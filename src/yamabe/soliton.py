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
from .profiles import Interval, Profile, grid_points

__all__ = [
    "WarpedSolitonSpec", "PointEval", "point_eval", "Terms",
    "ResidualReport", "EquationStat",
    "Classification", "reduced_residuals", "full_tensor_residual",
    "classify", "certify", "ANALYTIC_TOL",
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


def _col(x, axes: int = 1):
    """One value per point, broadcast along that many new last axes."""
    return np.asarray(x)[(...,) + (None,) * axes]


def _block(spec: WarpedSolitonSpec) -> tuple:
    """(a_i a_j, 2 a_i a_j - delta_ij eps_i ||alpha||^2, delta_ij eps_i) on
    the n x n base block, three n x n arrays."""
    eps = np.diag(np.asarray(spec.sig.epsilon, dtype=float))
    outer = np.outer(spec.direction.alpha, spec.direction.alpha)
    return outer, 2.0 * outer - eps * spec.direction.norm, eps


def _distinct_entries(spec: WarpedSolitonSpec) -> tuple:
    """``_block``'s distinct triples as three 1-D arrays, on which entry
    (i, j) of the tensor's base block alone depends: at most n(n+1)/2, and
    3-5 for the catalog's directions."""
    triples = set(zip(*(part.ravel().tolist() for part in _block(spec))))
    return tuple(np.array(list(triples)).T)


class Terms:
    """The closed forms of the base geometry and every residual formula of
    the package, once, over a PointEval of floats at one xi or of arrays over
    a grid. Both run the same operations in the same order, and squares are
    products x * x, which IEEE arithmetic rounds correctly on a float and on
    each array element alike, so they agree bitwise.

    Base terms of g = phi^-2 delta: ``s_base`` (scalar curvature), ``lap_f``
    and ``lap_h`` (Laplacians), ``pair`` = <grad f, grad h>, ``grad2_f`` =
    |grad f|^2 and ``pair_ln`` = <grad ln f, grad h>; ``lap_h`` and
    ``pair_ln`` are computed when read. Each carries ||alpha||^2, so a
    lightlike direction annihilates them exactly. ``s_minus_rho`` is
    S - rho, S from ``warped_scalar_curvature``; both diagonal equations
    and the lemma read it.
    """

    def __init__(self, spec: WarpedSolitonSpec, pv: PointEval,
                 sign_variant: str = "minus"):
        self.spec, self.pv, self.sign_variant = spec, pv, sign_variant
        self.rhs = pv.rho - spec.lambda_f / (pv.f * pv.f)
        norm, n = spec.direction.norm, spec.n
        if norm == 0.0:
            self.s_base = self.lap_f = self.pair = self.grad2_f = 0.0
        else:
            p2 = pv.phi * pv.phi
            self.s_base = norm * (n - 1) * (2.0 * pv.phi * pv.ddphi
                                            - n * (pv.dphi * pv.dphi))
            self.lap_f = norm * p2 * (pv.ddf - (n - 2) * (pv.dphi / pv.phi) * pv.df)
            self.pair = norm * p2 * pv.df * pv.dh
            self.grad2_f = norm * p2 * (pv.df * pv.df)
        self.s_minus_rho = warped_scalar_curvature(
            self.s_base, pv.f, self.lap_f, self.grad2_f, spec.lambda_f,
            spec.d) - pv.rho

    @property
    def lap_h(self):
        norm, pv = self.spec.direction.norm, self.pv
        return 0.0 if norm == 0.0 else norm * (pv.phi * pv.phi) * (
            pv.ddh - (self.spec.n - 2) * (pv.dphi / pv.phi) * pv.dh)

    @property
    def pair_ln(self):
        norm, pv = self.spec.direction.norm, self.pv
        return 0.0 if norm == 0.0 else (
            norm * (pv.phi * pv.phi) * (pv.df / pv.f) * pv.dh)

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
        a_i a_j h'' + (2 a_i a_j - delta_ij eps_i ||alpha||^2) (phi'/phi) h',
        the formula that ``certify`` runs on the block's distinct entries."""
        return self._hessian(*_block(self.spec)[:2])

    def tensor(self) -> tuple:
        """(n x n base block (S - rho) g_ij - Hess(h)_ij, fiber block per
        unit fiber metric component (S - rho) f^2 - f <grad f, grad h>),
        the formulas that ``certify`` runs on the base block's distinct
        entries."""
        return self._tensor(*_block(self.spec))

    def _tensor(self, outer, coef, eps) -> tuple:
        """``tensor`` with the base block at the entries whose a_i a_j,
        2 a_i a_j - delta_ij eps_i ||alpha||^2 and delta_ij eps_i are
        given: the last axes of the arrays outer, coef and eps."""
        spec, pv = self.spec, self.pv
        factor = self.s_minus_rho
        if self.sign_variant != "minus":
            factor = warped_scalar_curvature(
                self.s_base, pv.f, self.lap_f, self.grad2_f, spec.lambda_f,
                spec.d, self.sign_variant) - pv.rho
        base = -self._hessian(outer, coef)
        diagonal = eps != 0.0
        base[..., diagonal] += _col(factor) * (
            eps[diagonal] / _col(pv.phi * pv.phi))
        return base, factor * (pv.f * pv.f) - pv.f * self.pair

    def _hessian(self, outer, coef) -> np.ndarray:
        """Hess(h) at the entries whose a_i a_j and 2 a_i a_j - delta_ij
        eps_i ||alpha||^2 are the arrays outer and coef."""
        pv, axes = self.pv, outer.ndim
        return (outer * _col(pv.ddh, axes)
                + coef * _col(pv.dphi / pv.phi, axes) * _col(pv.dh, axes))

    def lemma(self, s: Optional[float] = None) -> tuple:
        """(soliton function lambda, scalar identity residual, weighted
        harmonicity residual).

        lambda = S_base - (S - rho), which is rho - lambda_F/f^2
        + 2d Lap f / f + d(d-1)|grad f|^2 / f^2, and the scalar identity
        residual is S_base - <grad f, grad h>/f - lambda = (S - rho)
        - <grad f, grad h>/f, the reduced 'diag-2' when the direction is not
        lightlike. The weighted residual is Lap h - s <grad ln f, grad h>
        with s defaulting to n: tracing the base equation of a certified
        spec gives Lap h = n <grad f, grad h>/f pointwise, which fixes the
        exponent.
        """
        s = float(self.spec.n) if s is None else float(s)
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
    return grid_points(spec.domain, 16)


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
    sampled_interval: tuple[float, float]   # first and last grid point
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
            "sampled_interval": list(self.sampled_interval),
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

    Raises ValueError when grid_size is not an int >= 2 (a bool is not) or
    a given tolerance is not positive and finite, the rules of the CLI's
    --grid and --tol.
    """
    if isinstance(grid_size, bool) or not isinstance(grid_size, int) \
            or grid_size < 2:
        raise ValueError(f"grid_size must be an int >= 2, got {grid_size!r}")
    if tolerance is not None and not (math.isfinite(tolerance)
                                      and tolerance > 0.0):
        raise ValueError(
            f"tolerance must be positive and finite, got {tolerance!r}")
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
        entries, fiber = terms._tensor(*_distinct_entries(spec))
        residuals = {**terms.reduced(),
                     "tensor-base": np.max(np.abs(entries), axis=-1),
                     "tensor-fiber": fiber}
        inequality = terms.s_base - terms.rhs
    # one row per field, PointEval's and then the residuals, so one isfinite
    # pass finds the first point where any of them is not finite
    fields = {**vars(pv), **residuals}
    table = np.empty((len(fields), size))
    for row, values in zip(table, fields.values()):
        row[...] = values
    finite = np.isfinite(table)
    stop = size
    failure = None
    if not finite.all():
        # the earliest point, and at it the first field in table order
        stop = int(finite.all(axis=0).argmin())
        name = list(fields)[int(finite[:, stop].argmin())]
        failure = (f"evaluation failed at xi={float(pts[stop])!r}: "
                   f"non-finite {name}")
    notes = [] if failure is None else [failure]

    # argmax takes the first of tied maxima
    stats = {}
    if stop:
        maxima = np.abs(table[-len(residuals):, :stop])
        for key, top, at in zip(residuals, maxima.max(axis=1),
                                maxima.argmax(axis=1)):
            stats[key] = EquationStat(float(top), float(pts[at]), size)
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
                            interval.as_tuple(), tuple(pts[[0, -1]].tolist()),
                            stats,
                            tuple(notes))
    log.info("certify[%s]: %s (tol=%g, grid=%d)",
             spec.label or "spec", verdict, tolerance, grid_size)
    return report
