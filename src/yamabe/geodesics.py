"""Geodesic integration on the warped product, in coordinates.

State layout: the flat vector (y, v, yf, vf) with y, v in R^n (base position
and velocity) and yf, vf in R^d (fiber position and velocity). The base
motion is exact for any fiber of constant curvature: the right-hand side
reads the fiber only through |vf|^2, and m = f^2 vf is conserved (O'Neill,
Semi-Riemannian Geometry, 1983, ch. 7). The yf columns are coordinates of a
flat chart of the fiber.

Profiles are read at a state's own xi = alpha . y, NaN off the domain. A
start where a stop event is not positive (xi past a finite end of the
domain or within DOMAIN_MARGIN of it) is a DomainError.

Two dynamics modes are provided:

  * "full": the complete coordinate geodesic system of the metric
    phi^-2 delta_eps + f^2 g_F, including the Christoffel terms of the
    conformal base factor;
  * "paper-reduced": the simplified system that keeps only the warping
    force on the base and the mixed fiber terms.

The modes genuinely disagree on some metrics (the conformal terms can
drive finite-parameter blowup), so a completeness probe reports both and the
comparison helper logs a note when the completion fractions differ.

Every integration goes through ``numerics.solve_ivp``, which advances a
batch of rows in lockstep: a completeness probe runs all its samples in both
directions in one call per mode. Each stop carries its reason (a key of
STATUS) besides the status it maps to.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
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

# why a geodesic stopped -> the status it reports
STATUS = {"completed": "completed", "domain-exit": "left-domain",
          "norm-escape": "blowup", "step-size-collapse": "blowup",
          "non-finite-rhs": "blowup", "positivity-loss": "positivity-loss"}


def _xi_of(spec: WarpedSolitonSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The function y (k, n) -> xi = alpha . y of each row."""
    alpha = np.asarray(spec.direction.alpha, dtype=float)
    return lambda y: np.add.reduce(y * alpha, axis=1)


def _profiles_at(spec: WarpedSolitonSpec):
    """The function y (k, n) -> phi, phi', f, f' at the rows' own xi, read
    through ``Profile.jet``: NaN off a profile's domain, not finite where it
    cannot be evaluated. A profile that is both phi and f is evaluated
    once. It runs under the caller's np.errstate(all="ignore")."""
    xi_of, phi, f = _xi_of(spec), spec.phi, spec.f

    def at(y: np.ndarray):
        xi = xi_of(y)
        p, dp, _ = phi.jet(xi, True, True, False)
        if f is phi:
            return p, dp, p, dp
        return (p, dp, *f.jet(xi, True, True, False)[:2])

    return at


def _unevaluable(phi, dphi, f, df) -> Optional[np.ndarray]:
    """The rows where phi, phi', f or f' is not finite, or None where every
    entry is. A product with an infinite or NaN factor is not finite, so
    finite dot products phi . phi' and f . f' prove every entry finite;
    only a dot that is not finite, which an overflow can also give, costs
    a mask."""
    if math.isfinite(phi @ dphi if f is phi else phi @ dphi + f @ df):
        return None
    bad = ~np.isfinite(phi)
    for entry in (dphi, f, df):
        bad |= ~np.isfinite(entry)
    return bad


def geodesic_rhs(spec: WarpedSolitonSpec,
                 mode: str = "full") -> Callable[[float, np.ndarray], np.ndarray]:
    """Right-hand side of the first-order geodesic system, for one state
    (dim,) or a batch of states (B, dim); it returns the same shape.

    Full mode, with a = phi'/phi and eps the base signature:

        y_k'' = 2 a (alpha.v) v_k - eps_k a alpha_k sum(eps v^2)
                + |vf|^2 f phi^2 eps_k f' alpha_k
        vf''  : vf' = -2 (f'/f) (alpha.v) vf

    Paper-reduced mode keeps only the last term of y'' and the same vf'.
    Every row is computed on its own. A row where the value or first
    derivative of phi or f is not finite (where a profile cannot be
    evaluated) comes back as inf: the integrator rejects each step that
    evaluates there and shrinks it until it falls below 10 ulps of s, and
    the row stops with stop reason non-finite-rhs (status blowup).

    Cost per call (one Runge-Kutta stage of every running row): one numpy
    form call per distinct profile (one when phi is f, as on the
    lightlike catalog example), about 25 elementwise numpy operations on
    the batch, and a mask of non-finite rows only when some row has one;
    all under one floating-point context.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    n, d = spec.n, spec.d
    alpha = np.asarray(spec.direction.alpha, dtype=float)
    eps = np.asarray(spec.sig.epsilon, dtype=float)
    eps_alpha = eps * alpha
    full = mode == "full"
    profiles_at = _profiles_at(spec)

    def rhs(s, state: np.ndarray) -> np.ndarray:
        states = np.asarray(state, dtype=float)
        batch = states if states.ndim == 2 else states[None, :]
        y, v, vf = batch[:, :n], batch[:, n:2 * n], batch[:, 2 * n + d:]
        with np.errstate(all="ignore"):
            phi, dphi, f, df = profiles_at(y)
            adotv = np.add.reduce(v * alpha, axis=1)
            force = np.add.reduce(vf * vf, axis=1) * f * phi * phi * df
            acc = eps_alpha * force[:, None]
            if full:
                a = dphi / phi
                acc += (2.0 * a * adotv)[:, None] * v
                acc -= eps_alpha * (a * np.add.reduce(eps * (v * v),
                                                      axis=1))[:, None]
            out = np.concatenate(
                (v, acc, vf, (-2.0 * (df / f) * adotv)[:, None] * vf), axis=1)
            bad = _unevaluable(phi, dphi, f, df)
        if bad is not None:
            out[bad] = np.inf
        return out if states.ndim == 2 else out[0]

    return rhs


def energy(spec: WarpedSolitonSpec, state: np.ndarray) -> float:
    """Metric speed g(gamma', gamma') = sum(eps v^2)/phi^2 + f^2 |vf|^2,
    NaN at a state whose xi is outside the domain.

    A first integral of the full mode; the reduced mode does not conserve
    it except where the two systems happen to coincide.
    """
    n, d = spec.n, spec.d
    v, vf = state[n:2 * n], state[2 * n + d:]
    with np.errstate(all="ignore"):
        phi, _, f, _ = _profiles_at(spec)(state[None, :n])
    eps = np.asarray(spec.sig.epsilon, dtype=float)
    return float(eps @ (v * v) / phi[0] ** 2 + f[0] ** 2 * (vf @ vf))


def fiber_momentum(spec: WarpedSolitonSpec, state: np.ndarray) -> np.ndarray:
    """f^2 vf, conserved by both dynamics modes; NaN off the domain."""
    n, d = spec.n, spec.d
    with np.errstate(all="ignore"):
        f = _profiles_at(spec)(state[None, :n])[2]
    return f[0] ** 2 * state[2 * n + d:]


def _initial_state(spec: WarpedSolitonSpec, y0, v0, yf0=(), vf0=()
                   ) -> np.ndarray:
    """The flat state (y, v, yf, vf); empty fiber data means zeros."""
    n, d = spec.n, spec.d
    y0 = np.asarray(y0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    yf0 = np.asarray(yf0, dtype=float) if len(np.atleast_1d(yf0)) else np.zeros(d)
    vf0 = np.asarray(vf0, dtype=float) if len(np.atleast_1d(vf0)) else np.zeros(d)
    if y0.shape != (n,) or v0.shape != (n,):
        raise ValueError(f"base position/velocity must have length n={n}")
    if yf0.shape != (d,) or vf0.shape != (d,):
        raise ValueError(f"fiber position/velocity must have length d={d}")
    return np.concatenate([y0, v0, yf0, vf0])


def _stop_events(spec: WarpedSolitonSpec):
    """The terminal events of a geodesic, and the stop reason of each: exit
    of xi from the domain past a finite end, the state norm passing
    BLOWUP_NORM, and loss of positivity of phi or f (or a point where they
    cannot be evaluated). Each is positive where a geodesic may run."""
    n, phi, f = spec.n, spec.phi, spec.f
    xi_of = _xi_of(spec)
    lo, hi = spec.domain.lo, spec.domain.hi

    def exit_domain(s, st):
        # an infinite end gives inf on its side, so the other side decides
        xi = xi_of(st[:, :n])
        return np.minimum(xi - (lo + DOMAIN_MARGIN), (hi - DOMAIN_MARGIN) - xi)

    def escape(s, st):
        return BLOWUP_NORM - np.sqrt(np.add.reduce(st * st, axis=1))

    def positivity(s, st):
        with np.errstate(all="ignore"):
            xi = xi_of(st[:, :n])
            margin = phi.jet(xi, d1=False, d2=False)[0]
            if f is not phi:
                margin = np.minimum(margin, f.jet(xi, d1=False, d2=False)[0])
            margin = margin - 1e-12
        return np.where(np.isnan(margin), -1.0, margin)

    events = {"domain-exit": exit_domain, "norm-escape": escape,
              "positivity-loss": positivity}
    if not (math.isfinite(lo) or math.isfinite(hi)):
        del events["domain-exit"]
    for event in events.values():
        event.terminal = True
    return list(events.values()), list(events)


def _run(spec: WarpedSolitonSpec, mode: str, spans, states, **options):
    """Integrate the rows of states over spans in one solve_ivp call; the
    solver result and each row's stop reason. A start where a stop event is
    not positive (xi outside the domain or inside its margin, say) is a
    DomainError."""
    events, reasons = _stop_events(spec)
    s0 = np.broadcast_to(spans, (len(states), 2))[:, 0]
    for event, reason in zip(events, reasons):
        with np.errstate(all="ignore"):
            bad = np.flatnonzero(~(event(s0, states) > 0.0))
        if len(bad):
            xi = float(_xi_of(spec)(states[bad[:1], :spec.n])[0])
            raise DomainError(f"a geodesic cannot start at xi={xi!r}: "
                              f"it is already past its {reason} stop")
    run = solve_ivp(geodesic_rhs(spec, mode), spans, states, events=events,
                    **options)
    return run, [reasons[e] if stop == "event" else stop
                 for stop, e in zip(run.stop, run.event.tolist())]


@dataclass(frozen=True)
class GeodesicResult:
    rows: np.ndarray          # columns: s, y (n), v (n), yf (d), vf (d)
    status: str               # completed | left-domain | blowup | positivity-loss
    s_reached: float          # where the integration stopped
    mode: str
    stop_reason: str          # a key of STATUS: blowup splits into
                              # norm-escape, step-size-collapse, non-finite-rhs
    nfev: int                 # RHS evaluations
    nsteps: int               # accepted steps

    def final_state(self) -> np.ndarray:
        return self.rows[-1, 1:]


def integrate_geodesic(spec: WarpedSolitonSpec,
                       y0, v0, yf0=(), vf0=(), *,
                       s_span: tuple[float, float] = (0.0, 10.0),
                       mode: str = "full", samples: int = 201,
                       rtol: float = 1e-10, atol: float = 1e-12
                       ) -> GeodesicResult:
    """Integrate one geodesic over s_span (which may run backwards); rows
    hold the state at `samples` (a positive count) evenly spaced parameters
    up to the stop.

    Terminal events: exit of xi from the domain past a finite end (status
    left-domain), state norm passing BLOWUP_NORM (blowup), and loss of
    positivity of phi or f along numerically defined profiles
    (positivity-loss). A step-size collapse also reports blowup;
    stop_reason tells the causes apart. A start where an event is not
    positive raises DomainError.
    """
    if not samples >= 1:
        raise ValueError(f"samples must be a positive count, got {samples!r}")
    state0 = _initial_state(spec, y0, v0, yf0, vf0)
    run, (stop,) = _run(spec, mode, s_span, state0[None, :],
                        rtol=rtol, atol=atol,
                        t_eval=np.linspace(s_span[0], s_span[1], samples))
    rows = np.column_stack([run.t_eval[0], run.y_eval[0]])
    return GeodesicResult(rows, STATUS[stop], float(run.t[0]), mode, stop,
                          int(run.nfev[0]), int(run.nsteps[0]))


@dataclass(frozen=True)
class ProbeSummary:
    mode: str
    count: int
    s_max: float
    completed: int
    status_counts: dict[str, int]
    failures: tuple[tuple[int, str, str, float], ...]  # index, direction, status, s
    stop_reasons: dict[str, int]

    @property
    def fraction(self) -> float:
        return self.completed / self.count if self.count else float("nan")

    def to_dict(self) -> dict:
        return {
            "mode": self.mode, "count": self.count, "s_max": self.s_max,
            "completed": self.completed, "fraction": self.fraction,
            "status_counts": dict(self.status_counts),
            "stop_reasons": dict(self.stop_reasons),
            "failures": [list(f) for f in self.failures],
        }


def _default_initial_sampler(spec: WarpedSolitonSpec, rng: np.random.Generator):
    """Random start: positions uniform in [-1, 1]^k, Euclidean unit-speed
    velocity. Where the domain has a finite end, the base is shifted along
    alpha so that xi sits inside it: in the middle half of a finite domain,
    in [lo + 0.5, lo + 1.5) on (lo, inf) and in (hi - 1.5, hi - 0.5] on
    (-inf, hi)."""
    n, d = spec.n, spec.d
    alpha = np.asarray(spec.direction.alpha, dtype=float)
    lo, hi = spec.domain.lo, spec.domain.hi

    def sample():
        y = rng.uniform(-1.0, 1.0, n)
        if math.isfinite(lo) or math.isfinite(hi):
            u = rng.uniform()
            target = (lo + (0.25 + 0.5 * u) * (hi - lo) if spec.domain.finite
                      else lo + 0.5 + u if math.isfinite(lo) else hi - 0.5 - u)
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
    the full affine-parameter range in both directions. All samples are
    drawn first; one solve_ivp call then runs each of them both ways. The
    default sampler starts every sample inside the domain; a sample from
    `sampler` that starts outside it raises DomainError."""
    rng = np.random.default_rng(seed)
    sample = sampler or _default_initial_sampler(spec, rng)
    starts = [_initial_state(spec, *sample()) for _ in range(count)]
    # row 2i runs sample i forward, row 2i + 1 backward
    run, stops = _run(
        spec, mode, np.tile([(0.0, s_max), (0.0, -s_max)], (count, 1)),
        np.repeat(np.reshape(starts, (count, 2 * spec.n + 2 * spec.d)), 2,
                  axis=0),
        rtol=rtol, atol=atol)
    completed = sum(stops[2 * i] == stops[2 * i + 1] == "completed"
                    for i in range(count))
    failures = tuple((row // 2, ("forward", "backward")[row % 2], STATUS[why],
                      float(run.t[row]))
                     for row, why in enumerate(stops) if why != "completed")
    summary = ProbeSummary(mode, count, s_max, completed,
                           dict(Counter(STATUS[why] for why in stops)),
                           failures, dict(Counter(stops)))
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
