"""Residual certification of gradient Yamabe solitons on warped products.

A spec bundles the base signature, translation direction, fiber dimension and
fiber scalar curvature, the soliton constant rho (a profile in the almost
case), and the three profiles phi, f, h. ``Terms`` computes the closed forms
of the base geometry once, and from them one S - rho, S the warped scalar
curvature. Verification assembles it two ways over a margin-clipped grid:

  * the reduced scalar system in xi (one h-equation plus two diagonal
    equations, S - rho plus gradient terms; or the h-equation plus the
    constant-rho constraint when the direction is lightlike), and
  * the full tensor equation (S - rho) g = Hess(h) assembled blockwise.

The two assemblies are linear images of one another, so verdicts must agree.
The tests pin that down, and hold the closed forms themselves to a
finite-difference oracle on metric samples (``tests/oracles.py``), with a
flat fiber and an upper-half-space H^d fiber.
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
from .profiles import Interval, Profile, grid_points

__all__ = [
    "WarpedSolitonSpec", "PointEval", "point_eval", "Terms",
    "ResidualReport", "EquationStat",
    "Classification", "reduced_residuals", "full_tensor_residual",
    "lemma_identities", "classify", "certify", "ANALYTIC_TOL",
]

log = logging.getLogger("yamabe.soliton")

ANALYTIC_TOL = 1e-8   # default certification tolerance


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

    def rho_at(self, xi: float) -> float:
        return self.rho.value(xi) if self.is_almost else self.rho


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
    dh: float
    ddh: float
    rho: float


def point_eval(spec: WarpedSolitonSpec, xi: float) -> PointEval:
    return PointEval(
        xi=xi,
        phi=spec.phi.value(xi), dphi=spec.phi.d1(xi), ddphi=spec.phi.d2(xi),
        f=spec.f.value(xi), df=spec.f.d1(xi), ddf=spec.f.d2(xi),
        dh=spec.h.d1(xi), ddh=spec.h.d2(xi),
        rho=spec.rho_at(xi))


def _col(x):
    """One value per point, broadcast along a new last axis."""
    return np.asarray(x)[..., None]


class Terms:
    """The closed forms of the base geometry and every residual formula of
    the package, once, over a PointEval of floats at one xi or of arrays over
    a grid. Both run the same operations in the same order (squares through
    ``numerics.square``), so they agree bitwise.

    Base terms of g = phi^-2 delta: ``s_base`` (scalar curvature), ``lap_f``
    and ``lap_h`` (Laplacians), ``pair`` = <grad f, grad h>, ``grad2_f`` =
    |grad f|^2 and ``pair_ln`` = <grad ln f, grad h>. Each carries
    ||alpha||^2, so a lightlike direction annihilates them exactly.
    ``s_minus_rho`` is S - rho, S from ``warped_scalar_curvature``; both
    diagonal equations and the lemma read it.
    """

    def __init__(self, spec: WarpedSolitonSpec, pv: PointEval,
                 sign_variant: str = "minus"):
        self.spec, self.pv, self.sign_variant = spec, pv, sign_variant
        self.rhs = pv.rho - spec.lambda_f / square(pv.f)
        norm, n = spec.direction.norm, spec.n
        if norm == 0.0:
            self.s_base = self.lap_f = self.pair = 0.0
            self.grad2_f = self.lap_h = self.pair_ln = 0.0
        else:
            p2 = square(pv.phi)
            self.s_base = norm * (n - 1) * (2.0 * pv.phi * pv.ddphi
                                            - n * square(pv.dphi))
            self.lap_f = norm * p2 * (pv.ddf - (n - 2) * (pv.dphi / pv.phi) * pv.df)
            self.pair = norm * p2 * pv.df * pv.dh
            self.grad2_f = norm * p2 * square(pv.df)
            self.lap_h = norm * p2 * (pv.ddh - (n - 2) * (pv.dphi / pv.phi) * pv.dh)
            self.pair_ln = norm * p2 * (pv.df / pv.f) * pv.dh
        self.s_minus_rho = warped_scalar_curvature(
            self.s_base, pv.f, self.lap_f, self.grad2_f, spec.lambda_f,
            spec.d) - pv.rho

    def reduced(self) -> dict:
        """{'h-ode', 'diag-1', 'diag-2'}, or {'h-ode', 'lightlike'}."""
        spec, pv = self.spec, self.pv
        r_h = pv.ddh + 2.0 * (pv.dphi / pv.phi) * pv.dh
        norm = spec.direction.norm
        if norm == 0.0:
            return {"h-ode": r_h, "lightlike": self.rhs}
        return {"h-ode": r_h,
                "diag-1": self.s_minus_rho + norm * pv.phi * pv.dphi * pv.dh,
                "diag-2": self.s_minus_rho - self.pair / pv.f}

    def hessian(self) -> np.ndarray:
        """Hess(h)_ij of the base, an n x n block per point:
        a_i a_j h'' + (2 a_i a_j - delta_ij eps_i ||alpha||^2) (phi'/phi) h'."""
        spec, pv = self.spec, self.pv
        eps = np.asarray(spec.sig.epsilon, dtype=float)
        outer = np.outer(spec.direction.alpha, spec.direction.alpha)
        return (outer * _col(_col(pv.ddh))
                + (2.0 * outer - np.diag(eps) * spec.direction.norm)
                * _col(_col(pv.dphi / pv.phi)) * _col(_col(pv.dh)))

    def tensor(self) -> tuple:
        """(n x n base block (S - rho) g_ij - Hess(h)_ij, fiber block per
        unit fiber metric component (S - rho) f^2 - f <grad f, grad h>)."""
        spec, pv = self.spec, self.pv
        factor = self.s_minus_rho
        if self.sign_variant != "minus":
            factor = warped_scalar_curvature(
                self.s_base, pv.f, self.lap_f, self.grad2_f, spec.lambda_f,
                spec.d, self.sign_variant) - pv.rho
        n = spec.n
        eps = np.asarray(spec.sig.epsilon, dtype=float)
        block = -self.hessian()
        block[..., range(n), range(n)] += _col(factor) * (eps / _col(square(pv.phi)))
        return block, factor * square(pv.f) - pv.f * self.pair

    def lemma(self, s: float) -> tuple:
        """See ``lemma_identities``."""
        return (self.s_base - self.s_minus_rho,
                self.s_minus_rho - self.pair / self.pv.f,
                self.lap_h - s * self.pair_ln)


def reduced_residuals(spec: WarpedSolitonSpec, xi: float) -> dict[str, float]:
    """Pointwise residuals of the reduced system in xi.

    Non-lightlike: {'h-ode', 'diag-1', 'diag-2'}; lightlike: {'h-ode',
    'lightlike'}. All vanish exactly on a soliton.
    """
    return Terms(spec, point_eval(spec, xi)).reduced()


def full_tensor_residual(spec: WarpedSolitonSpec, base_point: Sequence[float],
                         sign_variant: str = "minus") -> np.ndarray:
    """(n+1)x(n+1) residual of (S - rho) g = Hess(h~) at a base point.

    Rows/cols 0..n-1 are the base block (S - rho) g_ij - Hess(h)_ij; the last
    row/col is the fiber block, a scalar per unit fiber metric component.
    Mixed entries are identically zero for both sides and are returned as
    exact zeros.
    """
    xi = spec.direction.xi_at(base_point)
    block, fiber = Terms(spec, point_eval(spec, xi), sign_variant).tensor()
    n = spec.n
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = block
    out[n, n] = fiber
    return out


def lemma_identities(spec: WarpedSolitonSpec, xi: float,
                     s: Optional[float] = None) -> tuple[float, float, float]:
    """(soliton function lambda, scalar identity residual, weighted
    harmonicity residual) at xi.

    lambda = S_base - (S - rho), which is rho - lambda_F/f^2 + 2d Lap f / f
    + d(d-1)|grad f|^2 / f^2, and the scalar identity residual is
    S_base - <grad f, grad h>/f - lambda = (S - rho) - <grad f, grad h>/f,
    the reduced 'diag-2' when the direction is not lightlike.
    The weighted residual is Lap h - s <grad ln f, grad h> with s defaulting
    to n: tracing the base equation of a certified spec gives
    Lap h = n <grad f, grad h>/f pointwise, which fixes the exponent.
    """
    s_exp = float(spec.n) if s is None else float(s)
    return Terms(spec, point_eval(spec, xi)).lemma(s_exp)


# --- classification ----------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    soliton_class: str   # trivial | steady | shrinking | expanding | almost
    causal: str          # spacelike | timelike | lightlike
    guards: tuple[str, ...] = ()
    rejected: bool = False
    forced_f: Optional[float] = None


def classify(spec: WarpedSolitonSpec) -> Classification:
    """Sign class of rho x causal class, with the lightlike guards.

    The class is 'trivial' when h' vanishes at the 16 points of
    ``_classify_points`` (a finite domain and a constant rho only).
    Lightlike + lambda_F != 0 forces f = sqrt(lambda_F / rho) constant, and
    is impossible outright when rho and lambda_F disagree in sign (no steady
    or expanding soliton for lambda_F > 0, none steady or shrinking for
    lambda_F < 0).
    """
    xs = _classify_points(spec)
    with np.errstate(all="ignore"):
        dh = spec.h.jet(xs, False, True, False)[1] if len(xs) else xs
    return _classification(spec, dh)


def _classify_points(spec: WarpedSolitonSpec) -> np.ndarray:
    """The 16 grid points of a finite domain where h' tells a trivial
    soliton; none for an almost soliton or an infinite domain."""
    if spec.is_almost or not spec.domain.finite:
        return np.empty(0)
    return np.array(grid_points(spec.domain, 16))


def _classification(spec: WarpedSolitonSpec, dh: np.ndarray) -> Classification:
    """``classify`` given h' at the points of ``_classify_points``."""
    causal = spec.direction.causal
    guards: list[str] = []
    rejected = False
    forced_f = None

    if spec.is_almost:
        soliton_class = "almost"
    else:
        rho = float(spec.rho)
        if _h_is_constant(dh):
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


def _h_is_constant(dh: np.ndarray) -> bool:
    """Whether |h'| <= 1e-12 at each of the values dh, which are h' at the
    points of ``_classify_points``; a value that is not finite fails, and so
    does an empty dh (an infinite domain)."""
    return bool(len(dh)) and bool(np.max(np.abs(dh)) <= 1e-12)


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
    tensor residuals, verdict by comparison against the tolerance
    (ANALYTIC_TOL when None).

    The whole grid is evaluated in one pass over arrays, each profile
    through one ``Profile.jet`` call on the grid followed by the points of
    ``_classify_points``, whose h' gives the classification; only the
    grid's entries enter the verdict, the notes and the maxima.
    Verdict 'inconclusive' means that at some grid
    point a profile value or residual is not finite (typically a
    singularity inside the interval, where a profile cannot be evaluated);
    the first such point is named in a note, "evaluation failed at
    xi=...: non-finite <field>", and the maxima come from the points before
    it. 'rejected' means every evaluation was finite but some residual
    exceeds the tolerance.
    """
    interval = (interval or spec.domain).clipped(spec.domain)
    if tolerance is None:
        tolerance = ANALYTIC_TOL
    pts = grid_points(interval, grid_size)
    size = len(pts)
    # classify's h' points ride along in the same call of each profile, so
    # a profile that solves per array of points solves once
    xs = np.concatenate((pts, _classify_points(spec)))

    with np.errstate(all="ignore"):
        # PointEval fields in order; h itself is not needed, h' and h'' are
        jets = (*spec.phi.jet(xs), *spec.f.jet(xs))
        dh, ddh = spec.h.jet(xs, False, True, True)[1:]
        pv = PointEval(xs[:size],
                       *(jet[:size] for jet in (*jets, dh, ddh)),
                       spec.rho.jet(xs, True, False, False)[0]
                       if spec.is_almost else spec.rho)
        terms = Terms(spec, pv, sign_variant)
        block, fiber = terms.tensor()
        residuals = {**terms.reduced(),
                     "tensor-base": np.max(np.abs(block), axis=(-2, -1)),
                     "tensor-fiber": fiber}
        inequality = terms.s_base - terms.rhs
    stop = size
    failure = None
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
    cls = _classification(spec, dh[size:])
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
