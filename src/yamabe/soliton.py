"""Residual certification of gradient Yamabe solitons on warped products.

A spec bundles the base signature, translation direction, fiber dimension and
fiber scalar curvature, the soliton constant rho (a profile in the almost
case), and the three profiles phi, f, h. Verification runs two independent
routes over a margin-clipped grid:

  * the reduced scalar system in xi (one h-equation plus two diagonal
    equations, or the h-equation plus the constant-rho constraint when the
    direction is lightlike), and
  * the full tensor equation (S - rho) g = Hess(h) assembled blockwise from
    the closed-form tensors.

The two routes are linear images of one another, so verdicts must agree; the
tests pin that down.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError
from .geometry import (SignatureSpec, TranslationDirection,
                       warped_scalar_curvature)
from .numerics import square
from .profiles import Interval, Profile, grid_points, leading_jets

__all__ = [
    "WarpedSolitonSpec", "PointEval", "ResidualReport", "EquationStat",
    "Classification", "reduced_residuals", "full_tensor_residual",
    "lemma_identities", "classify", "certify",
    "ANALYTIC_TOL", "NUMERIC_TOL",
]

log = logging.getLogger("yamabe.soliton")

ANALYTIC_TOL = 1e-8   # default certification tolerance, analytic derivatives
NUMERIC_TOL = 1e-4    # default when any profile uses FD fallback derivatives


@dataclass(frozen=True)
class WarpedSolitonSpec:
    """Candidate soliton. rho is a float, or a Profile for almost solitons."""

    sig: SignatureSpec
    direction: TranslationDirection
    d: int
    rho: Union[float, Profile]
    lambda_f: float
    phi: Profile
    f: Profile
    h: Profile
    domain: Interval
    label: str = ""

    def __post_init__(self):
        if self.d < 1:
            raise DimensionMismatchError(f"fiber dimension d={self.d} must be >= 1")
        if len(self.direction.alpha) != self.sig.n:
            raise DimensionMismatchError(
                "alpha length does not match signature dimension")

    @property
    def n(self) -> int:
        return self.sig.n

    @property
    def is_almost(self) -> bool:
        return isinstance(self.rho, Profile)

    @property
    def analytic(self) -> bool:
        return (self.phi.analytic_derivatives and self.f.analytic_derivatives
                and self.h.analytic_derivatives
                and (not self.is_almost or self.rho.analytic_derivatives))

    def rho_at(self, xi: float) -> float:
        return self.rho.value(xi) if self.is_almost else self.rho

    def validate_positivity(self, interval: Optional[Interval] = None) -> None:
        interval = interval or self.domain
        if interval.finite:
            self.phi.require_positive(interval, name="phi")
            self.f.require_positive(interval, name="f")


@dataclass(frozen=True)
class PointEval:
    """All profile values needed at one xi, computed once. ``certify`` fills
    the same fields with arrays over its grid."""

    xi: float
    phi: float
    dphi: float
    ddphi: float
    f: float
    df: float
    ddf: float
    h: float  # unused by residuals (shift gauge); kept for tables
    dh: float
    ddh: float
    rho: float


def point_eval(spec: WarpedSolitonSpec, xi: float,
               with_h_value: bool = False) -> PointEval:
    return PointEval(
        xi=xi,
        phi=spec.phi.value(xi), dphi=spec.phi.d1(xi), ddphi=spec.phi.d2(xi),
        f=spec.f.value(xi), df=spec.f.d1(xi), ddf=spec.f.d2(xi),
        h=spec.h.value(xi) if with_h_value else 0.0,
        dh=spec.h.d1(xi), ddh=spec.h.d2(xi),
        rho=spec.rho_at(xi))


class _Terms:
    """Every residual formula of the package, once, over a PointEval of
    floats at one xi or of arrays over a grid. Both run the same operations
    in the same order (squares through ``numerics.square``), so they agree
    bitwise."""

    def __init__(self, spec: WarpedSolitonSpec, pv: PointEval,
                 sign_variant: str = "minus"):
        self.spec, self.pv, self.sign_variant = spec, pv, sign_variant
        self.rhs = pv.rho - spec.lambda_f / square(pv.f)
        # S_base, Lap f, <grad f, grad h>, |grad f|^2, Lap h, <grad ln f,
        # grad h>: each carries ||alpha||^2, so lightlike annihilates them
        norm, n = spec.direction.norm, spec.n
        if norm == 0.0:
            self.base = (0.0,) * 6
            return
        p2 = square(pv.phi)
        self.base = (
            norm * (n - 1) * (2.0 * pv.phi * pv.ddphi - n * square(pv.dphi)),
            norm * p2 * (pv.ddf - (n - 2) * (pv.dphi / pv.phi) * pv.df),
            norm * p2 * pv.df * pv.dh,
            norm * p2 * square(pv.df),
            norm * p2 * (pv.ddh - (n - 2) * (pv.dphi / pv.phi) * pv.dh),
            norm * p2 * (pv.df / pv.f) * pv.dh)

    def reduced(self) -> dict:
        """{'h-ode', 'diag-1', 'diag-2'}, or {'h-ode', 'lightlike'}."""
        spec, pv = self.spec, self.pv
        r_h = pv.ddh + 2.0 * (pv.dphi / pv.phi) * pv.dh
        norm, n, d = spec.direction.norm, spec.n, spec.d
        if norm == 0.0:
            return {"h-ode": r_h, "lightlike": self.rhs}
        # the ||alpha||^2 bracket shared by both diagonal equations
        p2 = square(pv.phi)
        bracket = ((n - 1) * (2.0 * pv.phi * pv.ddphi - n * square(pv.dphi))
                   - (2.0 * d / pv.f) * (p2 * pv.ddf
                                         - (n - 2) * pv.phi * pv.dphi * pv.df)
                   - (d * (d - 1) / square(pv.f)) * p2 * square(pv.df))
        return {"h-ode": r_h,
                "diag-1": norm * (bracket + pv.phi * pv.dphi * pv.dh) - self.rhs,
                "diag-2": norm * (bracket - (p2 / pv.f) * pv.df * pv.dh) - self.rhs}

    def tensor(self) -> tuple:
        """(n x n base block (S - rho) g_ij - Hess(h)_ij, fiber block per
        unit fiber metric component (S - rho) f^2 - f <grad f, grad h>)."""
        spec, pv = self.spec, self.pv
        s_base, lap_f, pair, grad2, _, _ = self.base
        factor = warped_scalar_curvature(s_base, pv.f, lap_f, grad2,
                                         spec.lambda_f, spec.d,
                                         self.sign_variant) - pv.rho

        def col(x):  # one value per point, broadcast along a last axis
            return np.asarray(x)[..., None]

        n = spec.n
        eps = np.asarray(spec.sig.epsilon, dtype=float)
        outer = np.outer(spec.direction.alpha, spec.direction.alpha)
        block = -(outer * col(col(pv.ddh))  # -Hess(h), then + (S - rho) g
                  + (2.0 * outer - np.diag(eps) * spec.direction.norm)
                  * col(col(pv.dphi / pv.phi)) * col(col(pv.dh)))
        block[..., range(n), range(n)] += col(factor) * (eps / col(square(pv.phi)))
        return block, factor * square(pv.f) - pv.f * pair

    def lemma(self, s: float) -> tuple:
        """See ``lemma_identities``."""
        pv, d = self.pv, self.spec.d
        s_base, lap_f, pair, grad2, lap_h, pair_ln = self.base
        lam = (self.rhs + 2.0 * d * lap_f / pv.f
               + d * (d - 1) * grad2 / square(pv.f))
        return lam, s_base - pair / pv.f - lam, lap_h - s * pair_ln


def reduced_residuals(spec: WarpedSolitonSpec, xi: float) -> dict[str, float]:
    """Pointwise residuals of the reduced system in xi.

    Non-lightlike: {'h-ode', 'diag-1', 'diag-2'}; lightlike: {'h-ode',
    'lightlike'}. All vanish exactly on a soliton.
    """
    return _Terms(spec, point_eval(spec, xi)).reduced()


def full_tensor_residual(spec: WarpedSolitonSpec, base_point: Sequence[float],
                         fiber_block_scale: float = 1.0,
                         sign_variant: str = "minus") -> np.ndarray:
    """(n+1)x(n+1) residual of (S - rho) g = Hess(h~) at a base point.

    Rows/cols 0..n-1 are the base block (S - rho) g_ij - Hess(h)_ij; the last
    row/col is the fiber block, a scalar per unit fiber metric component
    scaled by fiber_block_scale. Mixed entries are identically zero for both
    sides and are returned as exact zeros.
    """
    xi = spec.direction.xi_at(base_point)
    block, fiber = _Terms(spec, point_eval(spec, xi), sign_variant).tensor()
    n = spec.n
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = block
    out[n, n] = fiber_block_scale * fiber
    return out


def lemma_identities(spec: WarpedSolitonSpec, xi: float,
                     s: Optional[float] = None) -> tuple[float, float, float]:
    """(soliton function lambda, scalar identity residual, weighted
    harmonicity residual) at xi.

    lambda = rho - lambda_F/f^2 + 2d Lap f / f + d(d-1)|grad f|^2 / f^2 and
    the scalar identity residual is S_base - <grad f, grad h>/f - lambda.
    The weighted residual is Lap h - s <grad ln f, grad h> with s defaulting
    to n: tracing the base equation of a certified spec gives
    Lap h = n <grad f, grad h>/f pointwise, which fixes the exponent.
    """
    s_exp = float(spec.n) if s is None else float(s)
    return _Terms(spec, point_eval(spec, xi)).lemma(s_exp)


# --- classification ----------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    soliton_class: str   # trivial | steady | shrinking | expanding | almost
    causal: str          # spacelike | timelike | lightlike
    guards: tuple[str, ...] = ()
    rejected: bool = False
    forced_f: Optional[float] = None


def classify(spec: WarpedSolitonSpec, h_const_tol: float = 1e-12) -> Classification:
    """Sign class of rho x causal class, with the lightlike guards.

    Lightlike + lambda_F != 0 forces f = sqrt(lambda_F / rho) constant, and
    is impossible outright when rho and lambda_F disagree in sign (no steady
    or expanding soliton for lambda_F > 0, none steady or shrinking for
    lambda_F < 0).
    """
    causal = spec.direction.causal
    guards: list[str] = []
    rejected = False
    forced_f = None

    if spec.is_almost:
        soliton_class = "almost"
    else:
        rho = float(spec.rho)
        if _h_is_constant(spec, h_const_tol):
            soliton_class = "trivial"
        elif rho > 0.0:
            soliton_class = "shrinking"
        elif rho < 0.0:
            soliton_class = "expanding"
        else:
            soliton_class = "steady"
        if causal == "lightlike" and spec.lambda_f != 0.0:
            if spec.lambda_f > 0.0 and rho <= 0.0:
                rejected = True
                guards.append(
                    "no steady or expanding soliton exists for a lightlike "
                    "direction with positive fiber scalar curvature")
            elif spec.lambda_f < 0.0 and rho >= 0.0:
                rejected = True
                guards.append(
                    "no steady or shrinking soliton exists for a lightlike "
                    "direction with negative fiber scalar curvature")
            else:
                forced_f = math.sqrt(spec.lambda_f / rho)
                guards.append(
                    "lightlike direction with nonzero fiber scalar curvature "
                    f"forces the constant warping f = {forced_f!r}")
    return Classification(soliton_class, causal, tuple(guards), rejected, forced_f)


def _h_is_constant(spec: WarpedSolitonSpec, tol: float) -> bool:
    if not spec.domain.finite:
        return False
    pts = grid_points(spec.domain, 16)
    try:
        return max(abs(spec.h.d1(x)) for x in pts) <= tol
    except Exception:
        return False


# --- certification ------------------------------------------------------------

@dataclass(frozen=True)
class EquationStat:
    max_abs_residual: float
    argmax_xi: float
    samples: int


@dataclass(frozen=True)
class ResidualReport:
    verdict: str                       # certified | rejected | inconclusive
    classification: Classification
    tolerance: float
    grid: int
    interval: tuple[float, float]
    equations: dict[str, EquationStat] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "classification": {
                "soliton": self.classification.soliton_class,
                "causal": self.classification.causal,
                "guards": list(self.classification.guards),
                "forced_f": self.classification.forced_f,
            },
            "tolerance": self.tolerance,
            "grid": self.grid,
            "interval": list(self.interval),
            "equations": {
                key: {"max_abs_residual": st.max_abs_residual,
                      "argmax_xi": st.argmax_xi,
                      "samples": st.samples}
                for key, st in self.equations.items()
            },
            "notes": list(self.notes),
        }


def certify(spec: WarpedSolitonSpec, grid_size: int = 200,
            tolerance: Optional[float] = None,
            interval: Optional[Interval] = None,
            sign_variant: str = "minus") -> ResidualReport:
    """Grid certification: margin-clipped uniform grid, reduced and full
    tensor residuals, verdict by comparison against the tolerance.

    The whole grid is evaluated in one pass over arrays. Verdict
    'inconclusive' means that at some grid point a profile could not be
    evaluated, or a profile value or residual is not finite (typically a
    singularity inside the interval); the first such point is named in a
    note, and the maxima come from the points before it. 'rejected' means
    every evaluation was finite but some residual exceeds the tolerance.
    """
    interval = (interval or spec.domain).clipped(spec.domain)
    if tolerance is None:
        tolerance = ANALYTIC_TOL if spec.analytic else NUMERIC_TOL
    pts = grid_points(interval, grid_size)

    wanted = [(spec.phi, True), (spec.f, True), (spec.h, False)]
    if spec.is_almost:
        wanted.append((spec.rho, True))
    (phi, f, h, *rho), stop, error = leading_jets(pts, wanted)
    failure = (None if error is None
               else f"evaluation failed at xi={pts[stop]!r}: {error}")
    # PointEval fields in order; h itself is not needed, h' and h'' are
    pv = PointEval(np.array(pts[:stop]), *phi, *f, 0.0, *h[1:],
                   rho[0][0] if rho else spec.rho)
    with np.errstate(all="ignore"):
        terms = _Terms(spec, pv, sign_variant)
        block, fiber = terms.tensor()
        residuals = {**terms.reduced(),
                     "tensor-base": np.max(np.abs(block), axis=(-2, -1)),
                     "tensor-fiber": fiber}
        inequality = terms.base[0] - terms.rhs
    size = stop
    for name, values in {**vars(pv), **residuals}.items():
        bad = np.flatnonzero(~np.isfinite(np.broadcast_to(values, (size,))))
        if bad.size and bad[0] < stop:
            stop = int(bad[0])
            failure = f"evaluation failed at xi={pts[stop]!r}: non-finite {name}"
    notes = [] if failure is None else [failure]

    # argmax takes the first of tied maxima
    maxima = {key: np.abs(np.broadcast_to(values, (size,))[:stop])
              for key, values in residuals.items()} if stop else {}
    stats = {key: EquationStat(float(v.max()), pts[int(v.argmax())], len(pts))
             for key, v in maxima.items()}
    cls = classify(spec)
    if cls.rejected:
        notes.extend(cls.guards)

    if failure is not None:
        verdict = "inconclusive"
    elif cls.rejected:
        verdict = "rejected"
    elif all(st.max_abs_residual <= tolerance for st in stats.values()):
        verdict = "certified"
    else:
        verdict = "rejected"

    min_inequality = np.fmin.reduce(np.broadcast_to(inequality, (size,))[:stop],
                                    initial=math.inf)
    if math.isfinite(min_inequality):
        state = "holds" if min_inequality >= 0.0 else "violated"
        notes.append(
            f"base-scalar inequality S_base >= rho - lambda_F/f^2 {state} "
            f"on grid (min margin {min_inequality:.6e})")

    report = ResidualReport(verdict, cls, tolerance, grid_size,
                            interval.as_tuple(), stats, tuple(notes))
    log.info("certify[%s]: %s (tol=%g, grid=%d)",
             spec.label or "spec", verdict, tolerance, grid_size)
    return report
