"""Geodesic integration on the warped product, in coordinates.

State layout: the flat vector (y, v, yf, vf) with y, v in R^n (base position
and velocity) and yf, vf in R^d (fiber position and velocity). The fiber is
charted with a flat metric, which is exact for the flat-fiber catalog
entries and is the standard local model otherwise.

Two dynamics modes are provided:

  * "full": the complete coordinate geodesic system of the metric
    phi^-2 delta_eps + f^2 g_F, including the Christoffel terms of the
    conformal base factor;
  * "paper-reduced": the simplified system that keeps only the warping
    force on the base and the mixed fiber terms.

The modes genuinely disagree on some metrics (the conformal terms can
drive finite-parameter blowup), so completeness probes report both and the
comparison helper logs a note when the completion fractions differ.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, EvaluationError
from .numerics import solve_ivp
from .soliton import WarpedSolitonSpec

__all__ = [
    "GeodesicResult", "ProbeSummary", "geodesic_rhs", "energy",
    "fiber_momentum", "integrate_geodesic", "completeness_probe",
    "compare_probe_modes",
]

log = logging.getLogger("yamabe.geodesics")

MODES = ("full", "paper-reduced")
BLOWUP_NORM = 1e12     # state norm at which a geodesic counts as blown up
DOMAIN_MARGIN = 1e-9   # a geodesic leaves the domain this far inside its ends


def _clamped_xi(spec: WarpedSolitonSpec, y: np.ndarray) -> float:
    """xi = alpha . y, nudged inside an open finite domain so that trial
    steps slightly past the exit event cannot raise a domain error."""
    xi = float(np.dot(spec.direction.alpha, y))
    lo, hi = spec.domain.lo, spec.domain.hi
    if math.isfinite(lo):
        xi = max(xi, lo + 1e-13 * max(1.0, abs(lo)))
    if math.isfinite(hi):
        xi = min(xi, hi - 1e-13 * max(1.0, abs(hi)))
    return xi


def geodesic_rhs(spec: WarpedSolitonSpec,
                 mode: str = "full") -> Callable[[float, np.ndarray], np.ndarray]:
    """Right-hand side of the first-order geodesic system.

    Full mode, with a = phi'/phi and eps the base signature:

        y_k'' = 2 a (alpha.v) v_k - eps_k a alpha_k sum(eps v^2)
                + |vf|^2 f phi^2 eps_k f' alpha_k
        vf''  : vf' = -2 (f'/f) (alpha.v) vf

    Paper-reduced mode keeps only the last term of y'' and the same vf'.
    Non-finite profile evaluations surface as an inf vector, which stalls
    the step-size controller and is reported as blowup by the driver.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    n, d = spec.n, spec.d
    alpha = np.asarray(spec.direction.alpha, dtype=float)
    eps = np.asarray(spec.sig.epsilon, dtype=float)
    dim = 2 * n + 2 * d

    def rhs(s: float, state: np.ndarray) -> np.ndarray:
        y = state[:n]
        v = state[n:2 * n]
        vf = state[2 * n + d:]
        try:
            xi = _clamped_xi(spec, y)
            phi = spec.phi.value(xi)
            dphi = spec.phi.d1(xi)
            f = spec.f.value(xi)
            df = spec.f.d1(xi)
        except (EvaluationError, DomainError, OverflowError):
            return np.full(dim, np.inf)
        out = np.empty(dim)
        out[:n] = v
        adotv = float(alpha @ v)
        vf2 = float(vf @ vf)
        force = vf2 * f * phi * phi * df
        acc = eps * alpha * force
        if mode == "full":
            a = dphi / phi
            acc = acc + 2.0 * a * adotv * v - eps * alpha * (a * float(eps @ (v * v)))
        out[n:2 * n] = acc
        out[2 * n:2 * n + d] = vf
        out[2 * n + d:] = (-2.0 * (df / f) * adotv) * vf
        return out

    return rhs


def energy(spec: WarpedSolitonSpec, state: np.ndarray) -> float:
    """Metric speed g(gamma', gamma') = sum(eps v^2)/phi^2 + f^2 |vf|^2.

    A first integral of the full mode; the reduced mode does not conserve
    it except where the two systems happen to coincide.
    """
    n, d = spec.n, spec.d
    y = state[:n]
    v = state[n:2 * n]
    vf = state[2 * n + d:]
    xi = _clamped_xi(spec, y)
    eps = np.asarray(spec.sig.epsilon, dtype=float)
    phi = spec.phi.value(xi)
    return float(eps @ (v * v)) / phi ** 2 + spec.f.value(xi) ** 2 * float(vf @ vf)


def fiber_momentum(spec: WarpedSolitonSpec, state: np.ndarray) -> np.ndarray:
    """f^2 vf, conserved by both dynamics modes."""
    n, d = spec.n, spec.d
    xi = _clamped_xi(spec, state[:n])
    return spec.f.value(xi) ** 2 * state[2 * n + d:]


@dataclass(frozen=True)
class GeodesicResult:
    rows: np.ndarray          # columns: s, y (n), v (n), yf (d), vf (d)
    status: str               # completed | left-domain | blowup | positivity-loss
    s_reached: float
    mode: str

    def final_state(self) -> np.ndarray:
        return self.rows[-1, 1:]


def integrate_geodesic(spec: WarpedSolitonSpec,
                       y0, v0, yf0=(), vf0=(), *,
                       s_span: tuple[float, float] = (0.0, 10.0),
                       mode: str = "full", samples: int = 201,
                       method: str = "DOP853",
                       rtol: float = 1e-10, atol: float = 1e-12,
                       max_step: Optional[float] = None) -> GeodesicResult:
    """Integrate one geodesic over s_span (which may run backwards).

    Terminal events: exit of xi from a finite domain (status left-domain),
    state norm passing BLOWUP_NORM and integrator step failure (blowup),
    and loss of positivity of phi or f along numerically defined profiles
    (positivity-loss).
    """
    n, d = spec.n, spec.d
    y0 = np.asarray(y0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    yf0 = np.asarray(yf0, dtype=float) if len(np.atleast_1d(yf0)) else np.zeros(d)
    vf0 = np.asarray(vf0, dtype=float) if len(np.atleast_1d(vf0)) else np.zeros(d)
    if y0.shape != (n,) or v0.shape != (n,):
        raise ValueError(f"base position/velocity must have length n={n}")
    if yf0.shape != (d,) or vf0.shape != (d,):
        raise ValueError(f"fiber position/velocity must have length d={d}")
    state0 = np.concatenate([y0, v0, yf0, vf0])
    alpha = np.asarray(spec.direction.alpha, dtype=float)

    events = []
    labels = []
    lo, hi = spec.domain.lo, spec.domain.hi
    if math.isfinite(lo):
        def exit_lo(s, st):
            return float(alpha @ st[:n]) - (lo + DOMAIN_MARGIN)
        exit_lo.terminal = True
        events.append(exit_lo)
        labels.append("left-domain")
    if math.isfinite(hi):
        def exit_hi(s, st):
            return (hi - DOMAIN_MARGIN) - float(alpha @ st[:n])
        exit_hi.terminal = True
        events.append(exit_hi)
        labels.append("left-domain")

    def escape(s, st):
        return BLOWUP_NORM - float(np.linalg.norm(st))
    escape.terminal = True
    events.append(escape)
    labels.append("blowup")

    def positivity(s, st):
        try:
            xi = _clamped_xi(spec, st[:n])
            return min(spec.phi.value(xi), spec.f.value(xi)) - 1e-12
        except (EvaluationError, DomainError, OverflowError):
            return -1.0
    positivity.terminal = True
    events.append(positivity)
    labels.append("positivity-loss")

    t_eval = np.linspace(s_span[0], s_span[1], samples)
    extra = {} if max_step is None else {"max_step": max_step}
    with np.errstate(all="ignore"):
        sol = solve_ivp(geodesic_rhs(spec, mode), s_span, state0,
                        method=method, rtol=rtol, atol=atol,
                        t_eval=t_eval, events=events, **extra)

    if sol.status == 0:
        status = "completed"
    elif sol.status == 1:
        status = "blowup"
        for hits, label in zip(sol.t_events, labels):
            if len(hits):
                status = label
                break
    else:
        log.debug("integrator stopped early (%s); treating as blowup",
                  sol.message)
        status = "blowup"

    rows = np.column_stack([sol.t, sol.y.T]) if sol.t.size else \
        np.concatenate([[s_span[0]], state0])[None, :]
    s_reached = float(sol.t[-1]) if sol.t.size else s_span[0]
    for hits in sol.t_events or []:
        if len(hits):
            s_reached = float(hits[0])
            break
    return GeodesicResult(rows, status, s_reached, mode)


@dataclass(frozen=True)
class ProbeSummary:
    mode: str
    count: int
    s_max: float
    completed: int
    status_counts: dict[str, int]
    failures: tuple[tuple[int, str, str, float], ...]  # index, direction, status, s

    @property
    def fraction(self) -> float:
        return self.completed / self.count if self.count else float("nan")

    def to_dict(self) -> dict:
        return {
            "mode": self.mode, "count": self.count, "s_max": self.s_max,
            "completed": self.completed, "fraction": self.fraction,
            "status_counts": dict(self.status_counts),
            "failures": [list(f) for f in self.failures],
        }


def _default_initial_sampler(spec: WarpedSolitonSpec, rng: np.random.Generator):
    """Random start: positions uniform in [-1, 1]^k (base shifted so xi sits
    in the middle half of a finite domain), Euclidean unit-speed velocity."""
    n, d = spec.n, spec.d
    alpha = np.asarray(spec.direction.alpha, dtype=float)

    def sample():
        y = rng.uniform(-1.0, 1.0, n)
        lo, hi = spec.domain.lo, spec.domain.hi
        if math.isfinite(lo) and math.isfinite(hi):
            target = lo + (0.25 + 0.5 * rng.uniform()) * (hi - lo)
            y = y + (target - float(alpha @ y)) * alpha / float(alpha @ alpha)
        yf = rng.uniform(-1.0, 1.0, d)
        w = rng.normal(size=n + d)
        w = w / np.linalg.norm(w)
        return y, w[:n], yf, w[n:]

    return sample


def completeness_probe(spec: WarpedSolitonSpec, count: int = 100,
                       s_max: float = 1e3, *, mode: str = "full",
                       seed: int = 0, rtol: float = 1e-8, atol: float = 1e-10,
                       sampler=None) -> ProbeSummary:
    """Integrate `count` random geodesics to +-s_max and report how many ran
    the full affine-parameter range in both directions."""
    rng = np.random.default_rng(seed)
    sample = sampler or _default_initial_sampler(spec, rng)
    completed = 0
    counts: dict[str, int] = {}
    failures = []
    for i in range(count):
        y0, v0, yf0, vf0 = sample()
        ok = True
        for direction, span in (("forward", (0.0, s_max)),
                                ("backward", (0.0, -s_max))):
            res = integrate_geodesic(spec, y0, v0, yf0, vf0, s_span=span,
                                     mode=mode, samples=2, rtol=rtol,
                                     atol=atol)
            counts[res.status] = counts.get(res.status, 0) + 1
            if res.status != "completed":
                ok = False
                failures.append((i, direction, res.status, res.s_reached))
        if ok:
            completed += 1
    summary = ProbeSummary(mode, count, s_max, completed, counts,
                           tuple(failures))
    log.info("completeness probe (%s): %d/%d completed", mode, completed, count)
    return summary


def compare_probe_modes(spec: WarpedSolitonSpec, count: int = 100,
                        s_max: float = 1e3, *, seed: int = 0,
                        rtol: float = 1e-8, atol: float = 1e-10
                        ) -> tuple[ProbeSummary, ProbeSummary, list[str]]:
    """Run the probe in both dynamics modes with identical samples and
    collect notes about any disagreement."""
    full = completeness_probe(spec, count, s_max, mode="full", seed=seed,
                              rtol=rtol, atol=atol)
    reduced = completeness_probe(spec, count, s_max, mode="paper-reduced",
                                 seed=seed, rtol=rtol, atol=atol)
    notes = []
    if full.completed != reduced.completed:
        note = (f"dynamics modes disagree on completeness: full mode "
                f"completed {full.completed}/{full.count} while the reduced "
                f"system completed {reduced.completed}/{reduced.count}; the "
                f"conformal Christoffel terms dropped by the reduced system "
                f"change the long-time behavior on this metric")
        log.warning(note)
        notes.append(note)
    return full, reduced, notes
