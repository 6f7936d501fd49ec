"""Constructors for the explicit soliton families, plus the phase portrait.

Every constructor returns a WarpedSolitonSpec whose profiles carry exact
first and second derivatives (chain rules through the defining relations),
so certification checks solution-hood rather than interpolation error.

Conventions shared by the constructors:

  * indefinite integrals computed numerically (the h of thm18 and of the
    almost-lightlike family, the Riccati potentials) are anchored at the
    midpoint of xi_range with value 0; h is only ever compared through
    differences, so the anchor is a gauge choice;
  * closed forms keep their natural antiderivative constants so the
    catalog profiles come out in their familiar shape: thm16's h, and
    thm15's h = (k1/(4q)) (p/phi^4 - 4 phi'/phi^3), which the profile ODE
    gives in both of its constructions;
  * the implicitly-defined phi of the Lambert family passes through phi0
    (default 1) at xi = -k4.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BranchDomainError, FamilyConstructionError
from .geometry import SignatureSpec, TranslationDirection
from .lambertw import BRANCH_POINT, lambert_w
# no caller here; bench/spans.py patches families.CachedAntiderivative by name
from .numerics import CachedAntiderivative  # noqa: F401
from .numerics import gauss_legendre, invert_monotone, opposite, solve_ivp
from .profiles import Interval, Profile, grid_points
from .soliton import WarpedSolitonSpec, certify

__all__ = [
    "family_thm15", "family_thm16", "family_thm17", "family_thm18",
    "almost_soliton_lightlike", "riccati_residual",
    "riccati_general_solution", "phase_portrait", "PortraitTrajectory",
    "default_spacelike_frame", "default_lightlike_frame",
]

log = logging.getLogger("yamabe.families")


# --- shared helpers -----------------------------------------------------------

def default_spacelike_frame(n: int) -> tuple[SignatureSpec, TranslationDirection]:
    sig = SignatureSpec.euclidean(n)
    return sig, TranslationDirection((1.0,) + (0.0,) * (n - 1), sig)


def default_lightlike_frame(n: int) -> tuple[SignatureSpec, TranslationDirection]:
    sig = SignatureSpec.lorentzian(n)
    return sig, TranslationDirection((1.0, 1.0) + (0.0,) * (n - 2), sig)


def _frame(n, sig, alpha, lightlike: bool):
    """The frame a family builds in: its default frame when neither sig nor
    alpha is given, else alpha in sig (default Euclidean). Raises
    FamilyConstructionError unless alpha is lightlike exactly when the
    family is."""
    if alpha is None:
        if sig is not None:
            raise FamilyConstructionError("alpha must be given when sig is")
        sig, direction = (default_lightlike_frame(n) if lightlike
                          else default_spacelike_frame(n))
    else:
        sig = SignatureSpec.euclidean(n) if sig is None else sig
        direction = TranslationDirection(alpha, sig)
    if (direction.norm == 0.0) != lightlike:
        raise FamilyConstructionError(
            f"alpha must be lightlike (signed norm 0), got {direction.norm!r}"
            if lightlike else "alpha must not be lightlike")
    return sig, direction


def _reciprocal_profile(k2: float, phi: Profile, domain: Interval) -> Profile:
    """f = k2 / phi with exact derivatives, through phi's jet."""
    def arrays(xs, value, d1, d2):
        p, dp, ddp = phi.jet(xs, d2=d2)
        return (k2 / p if value else None,
                -k2 * dp / (p * p) if d1 else None,
                k2 * (2.0 * dp * dp / (p * p * p) - ddp / (p * p))
                if d2 else None)

    return Profile(arrays, domain)


def _h_from_phi(k1: float, phi: Profile, xi_range: Interval,
                values: Optional[Callable] = None) -> Profile:
    """h with h' = k1 / phi^2, through phi's jet. Its values are
    values(xs, phi, phi') when given, else k1 int_mid^xi dt/phi^2 anchored
    to 0 at the range midpoint, on Gauss-Legendre panels with phi's jet at
    their nodes."""
    if values is None:
        mid = 0.5 * (xi_range.lo + xi_range.hi)

        def inverse_square(t):
            p = phi.jet(t.reshape(-1), d2=False)[0].reshape(t.shape)
            return 1.0 / (p * p)

        values = lambda xs, p, dp: k1 * gauss_legendre(inverse_square, mid, xs)

    def arrays(xs, value, d1, d2):
        p, dp, _ = phi.jet(xs, d2=False)
        return (values(xs, p, dp) if value else None,
                k1 / (p * p) if d1 else None,
                -2.0 * k1 * dp / (p * p * p) if d2 else None)

    return Profile(arrays, phi.domain)


def _certify_or_raise(spec: WarpedSolitonSpec, run: bool) -> WarpedSolitonSpec:
    if run:
        report = certify(spec, grid_size=120, tolerance=1e-7)
        if report.verdict != "certified":
            worst = max(report.equations.items(),
                        key=lambda kv: kv[1].max_abs_residual, default=None)
            detail = (f"; worst residual {worst[1].max_abs_residual:.3e} "
                      f"in {worst[0]} at xi={worst[1].argmax_xi!r}"
                      if worst else "")

            raise FamilyConstructionError(
                f"constructed spec failed certification "
                f"({report.verdict}){detail}")
    return spec


# --- Lambert-W family (lambda_F != 0, n + d = 6) -------------------------------

def _q_value(k2: float, lambda_f: float, norm: float, q_variant: str) -> float:
    if k2 == 0.0:
        raise FamilyConstructionError("k2 must be nonzero")
    if q_variant == "statement":
        return lambda_f / (10.0 * k2 ** 2 * norm)
    if q_variant == "proof":
        return lambda_f / (k2 ** 2 * norm)
    raise FamilyConstructionError(
        f"q_variant must be 'statement' or 'proof', got {q_variant!r}")


def family_thm15(k1: float, k2: float, k3: float, k4: float = 0.0, *,
                 lambda_f: float, xi_range: tuple[float, float],
                 n: int = 3, d: int = 3,
                 sig: Optional[SignatureSpec] = None,
                 alpha: Optional[Sequence[float]] = None,
                 q_variant: str = "statement", w_branch: str = "principal",
                 construction: str = "quadrature", phi0: float = 1.0,
                 run_certify: bool = True) -> WarpedSolitonSpec:
    """Steady solitons with nonzero fiber curvature: f = k2/phi, h' = k1/phi^2,
    phi defined implicitly through the Lambert W relation.

    The profile ODE is  phi^2 phi'' - 3 phi phi'^2 + p phi' = -q phi^3  with
    p = k1/10; q_variant selects q = lambda_F/(10 k2^2 ||alpha||^2)
    ('statement', the value consistent with the n + d = 6 reduction and the
    one that certifies) or the tenfold 'proof' value, exposed for comparison.
    phi' = u phi^3, u = -(q/p) (1 + w), w = W(k3 exp(c s^2)), s = phi^-2,
    c = -p^2/(4q); w_branch is W's branch at phi0 (xi = -k4). In both
    constructions h = (k1/(4q)) (p/phi^4 - 4 phi'/phi^3) (h' = k1/phi^2 by
    the profile ODE), and one inversion, or one evaluation of the dense ODE
    solution ('ode'), per array of points serves the jets of phi, f and h.

    'quadrature' inverts xi in z = ln(w/k3) (``_thm15_chart``) on the
    component of F(z)/c > 0, F = z + k3 e^z = c s^2, holding the anchor,
    where the wall w = -1 is an ordinary point: a maximal interval passes
    through it. Its ends are roots -W(k3) of F (phi -> inf at a finite xi),
    z -> +inf if k3/c > 0 (phi -> 0 at a finite xi) and z -> -inf if c < 0
    (xi unbounded). So with c > 0, k3 < 0 'lower' is the principal solution
    translated in xi (by 8.4233490036 for k1 = k2 = 1, k3 = -0.2,
    lambda_F = -0.5, phi0 = 1); with c < 0, -1/e < k3 < 0 it selects the
    other component. A range past the maximal interval raises
    FamilyConstructionError.
    """
    if n + d != 6:
        raise FamilyConstructionError(
            "this family requires base and fiber dimensions with n + d = 6; "
            f"got n={n}, d={d}")
    if n < 3 or d < 1:
        raise FamilyConstructionError(f"need n >= 3 and d >= 1; got n={n}, d={d}")
    if k1 == 0.0 or k2 == 0.0:
        raise FamilyConstructionError("k1 and k2 must be nonzero")
    if lambda_f == 0.0:
        raise FamilyConstructionError(
            "lambda_F must be nonzero here; the lambda_F = 0 case has its own "
            "family with the elementary antiderivative")
    if not phi0 > 0.0:
        raise FamilyConstructionError(f"phi0 must be positive, got {phi0!r}")
    if w_branch not in ("principal", "lower"):
        raise FamilyConstructionError(
            f"w_branch must be 'principal' or 'lower', got {w_branch!r}")
    sig_, direction = _frame(n, sig, alpha, lightlike=False)

    p = k1 / 10.0
    q = _q_value(k2, lambda_f, direction.norm, q_variant)
    interval = Interval(*xi_range)
    s0, w0 = 1.0 / (phi0 * phi0), 0.0
    if k3 != 0.0:
        with np.errstate(over="ignore"):
            x0 = k3 * np.exp(-p * p / (4.0 * q) * (s0 * s0))
        try:
            w0 = lambert_w(x0, w_branch)
        except BranchDomainError:
            raise FamilyConstructionError(
                "the implicit relation is not defined at the anchor "
                f"phi0={phi0!r}") from None

    if construction == "quadrature":
        phi_profile = _thm15_chart(p, q, k3, k4, s0, w0, interval)
    elif construction == "ode":
        phi_profile = _thm15_phi_ode(p, q, k4, phi0, w0, interval)
        phi_profile.require_positive(interval, name="phi")
    else:
        raise FamilyConstructionError(
            f"construction must be 'quadrature' or 'ode', got {construction!r}")

    def h_values(xs, phi, dphi):
        # h' = -(k1/q) phi^-5 (phi^2 phi'' - 3 phi phi'^2 + p phi'), which
        # is k1/phi^2 by the profile ODE
        phi_sq = phi * phi
        return (k1 / (4.0 * q)) * (p / (phi_sq * phi_sq)
                                   - 4.0 * dphi / (phi_sq * phi))

    f_profile = _reciprocal_profile(k2, phi_profile, phi_profile.domain)
    h_profile = _h_from_phi(k1, phi_profile, interval, h_values)
    spec = WarpedSolitonSpec(sig_, direction, d, 0.0, lambda_f,
                             phi_profile, f_profile, h_profile, interval,
                             label=f"lambert-family(q={q_variant})")
    return _certify_or_raise(spec, run_certify)


def _thm15_chart(p, q, k3, k4, s0, w0, interval: Interval) -> Profile:
    """phi as a numpy form, one solve per array of points (the last is kept).

    xi + k4 = -(1/p) int_z0^z dt/s runs in x = z - z0 through y, dx/dy = 1
    at the anchor: toward a root end x_e (``_chart_ends``) x = y (1 + e)/2,
    e = 1 - |y|/(2|x_e|), so z = z_e -+ tau^2 with tau ~ e and the integrand
    is smooth up to the root; toward an infinite end x = y, cut where
    |w| = e^700 for z -> +inf (xi within e^-350 of the end) and for z -> -inf
    at Z = -((|p| D/(2 sqrt|c|) + sqrt(|z_a| + A))^2 - A), D = 1 + |far end
    of xi_range + k4|, from s^2 <= (|z| + A)/|c| on z <= z_a = min(z0, 0),
    A = max(0, -k3) e^z_a.
    """
    c = -p * p / (4.0 * q)
    # every point a profile reads lies inside the declared range, so its
    # ends are checked once, here
    if k3 == 0.0:
        # w = 0, u = -q/p: s = s0 + (2q/p)(xi + k4)
        slope = 2.0 * q / p
        for end in interval.as_tuple():
            if not s0 + slope * (end + k4) >= 0.0:
                raise FamilyConstructionError(
                    f"phi^2 leaves the positive axis at xi={float(end)!r}; "
                    "shrink xi_range to the sign-consistent interval")

        def solve(xs):
            s = s0 + slope * (xs + k4)
            return 1.0 / np.sqrt(s), 0.0 * s
    else:
        f0 = c * (s0 * s0)
        z0 = f0 - w0
        roots = _chart_ends(k3, z0)
        root = np.isfinite(roots)
        z_a = min(z0, 0.0)
        a = max(0.0, -k3) * math.exp(z_a)
        # cuts of infinite ends (unused at a root); past Z, T passes xi_range
        far = abs((interval.hi if p > 0.0 else interval.lo) + k4) + 1.0
        x_end = np.where(root, roots - z0, [
            a - z0 - (abs(p) * far / (2.0 * math.sqrt(abs(c)))
                      + math.sqrt(a - z_a)) ** 2,
            700.0 - math.log(abs(k3)) - z0])
        length = np.where(root, 2.0, 1.0) * np.abs(x_end)

        def chart(y):
            """c s^2, w and dxi/dy at y, NaN past the bracket."""
            side = (y >= 0.0).astype(np.intp)
            at_root = root[side]
            e = 1.0 - np.abs(y) / length[side]
            x = np.where(at_root, 0.5 * y * (1.0 + e), y)
            d = -x_end[side] * (e * e)
            near, w_e = at_root & (e < 0.5), -roots[side]
            w = np.where(near, w_e * np.exp(d), k3 * np.exp(z0 + x))
            # w - w0 in the form that neither overflows nor loses an
            # underflowed w0
            rise = np.where(x > 0.0, -w * np.expm1(-x), w0 * np.expm1(x))
            f = np.where(near, d + w_e * np.expm1(d), f0 + x + rise)
            dx = np.where(e < 0.0, np.nan, np.where(at_root, e, 1.0))
            return f, w, -dx / (p * np.sqrt(f / c))

        rate = lambda y: chart(y)[2]
        travel = lambda y: gauss_legendre(rate, 0.0, y)
        bracket = (-float(length[0]), float(length[1]))
        ends = travel(np.array(bracket)).tolist()
        for side, end in enumerate(ends):
            if math.isnan(end):
                # toward z's lower end xi rises when p > 0
                xi_end = "upper" if (side == 0) == (p > 0.0) else "lower"
                raise FamilyConstructionError(
                    f"the travel integral toward the {xi_end} end of the "
                    f"maximal interval (z -> {float(roots[side])!r}) does "
                    "not converge")
        # z -> -inf takes xi to infinity
        bounds = sorted([ends[0] if root[0] else p * math.inf, ends[1]])
        # a range past the interval fails here, before any inversion
        for end in interval.as_tuple():
            if not bounds[0] <= end + k4 <= bounds[1]:
                raise FamilyConstructionError(
                    f"xi target {float(end)!r} lies outside the maximal "
                    f"interval ({bounds[0] - k4!r}, {bounds[1] - k4!r}) of "
                    "the implicit relation")

        def solve(xs):
            y = invert_monotone(travel, xs + k4, bracket, ends, dg=rate,
                                start=0.0)
            with np.errstate(all="ignore"):
                f, w, _ = chart(y)
            return 1.0 / np.sqrt(np.sqrt(f / c)), w

    last: list = []

    def cached(xs):
        if not len(xs):
            return (xs,) * 2
        if not (last and np.array_equal(last[0], xs)):
            last[:] = [xs.copy(), solve(xs)]
        return last[1]

    def phi_arrays(xs, value, d1, d2):
        phi, w = cached(xs)
        u = -(q / p) * (1.0 + w)
        phi_sq = phi * phi
        dphi = u * phi_sq * phi
        return (phi if value else None, dphi if d1 else None,
                q * w * phi + 3.0 * u * dphi * phi_sq if d2 else None)

    return Profile(phi_arrays, interval)


def _chart_ends(k3, z0):
    """The ends in z of the component of F/c > 0 that holds z0: the nearest
    roots -W(k3) of F(z) = z + k3 e^z, else -inf and +inf."""
    roots = [-lambert_w(k3, branch) for branch in ("principal", "lower")
             if k3 >= BRANCH_POINT and (branch == "principal" or k3 < 0.0)]
    return np.array([max((r for r in roots if r < z0), default=-math.inf),
                     min((r for r in roots if r > z0), default=math.inf)])


def _profile_ode(phi, dphi, p, q):
    """phi'' from the profile ODE phi^2 phi'' - 3 phi phi'^2 + p phi' =
    -q phi^3. Powers are written as products, which round the same for a
    float and for every element of an array."""
    return (3.0 * phi * dphi * dphi - p * dphi - q * phi * phi * phi) / (phi * phi)


def _profile_ode_rhs(p, q):
    """The profile ODE as a first-order system on rows (phi, phi')."""
    def rhs(xi, y):
        out = np.empty_like(y)
        out[:, 0] = y[:, 1]
        out[:, 1] = _profile_ode(y[:, 0], y[:, 1], p, q)
        return out
    return rhs


def _thm15_phi_ode(p, q, k4, phi0, w0, interval: Interval) -> Profile:
    y0 = [phi0, -(q / p) * (1.0 + w0) * (phi0 * phi0 * phi0)]
    states = _two_sided_solve(_profile_ode_rhs(p, q), -k4, y0,
                              (interval.lo, interval.hi), "profile ODE")

    def arrays(xs, value, d1, d2):
        y = states(xs)
        phi, dphi = y[:, 0], y[:, 1]
        return (phi if value else None, dphi if d1 else None,
                _profile_ode(phi, dphi, p, q) if d2 else None)

    return Profile(arrays, interval)


def _two_sided_solve(rhs, xi_c, y0, ends, what: str):
    """Integrate y' = rhs(xi, y) from y0 at xi_c toward each end, one row per
    end, in one dense DOP853 call at rtol 1e-12, atol 1e-14. Returns the
    states over an array of points, (len(xs), len(y0)): each point from the
    side it lies on, y0 at xi_c itself."""
    ends = [end for end in ends if end != xi_c]
    run = solve_ivp(rhs, [(xi_c, end) for end in ends], [y0] * len(ends),
                    rtol=1e-12, atol=1e-14, dense_output=True)
    for end, stop in zip(ends, run.stop):
        if stop != "completed":
            raise FamilyConstructionError(
                f"{what} integration failed toward xi={end!r}: {stop}")
    pieces = [(min(xi_c, end), max(xi_c, end), dense)
              for end, dense in zip(ends, run.sol)]

    def states(xs):
        # a point on no piece is xi_c itself, or fell between the pieces
        y = np.empty((len(xs), len(y0)))
        y[:] = y0
        todo = np.ones(len(xs), dtype=bool)
        for lo, hi, dense in pieces:
            on = todo & (lo <= xs) & (xs <= hi)
            if np.count_nonzero(on):
                y[on] = dense(xs[on])
                todo &= ~on
        return y

    return states


# --- elementary family (lambda_F = 0, n + d = 6) -------------------------------

def _reflect(profile: Profile) -> Profile:
    """xi -> profile(-xi), through profile's jet."""
    def arrays(xs, value, d1, d2):
        v, e1, e2 = profile.jet(-xs, value=value, d2=d2)
        return v, -e1 if d1 else None, e2

    return Profile(arrays, Interval(-profile.domain.hi, -profile.domain.lo))


def family_thm16(k1: float, k2: float, k3: float = 0.0, k4: float = 0.0, *,
                 xi_range: tuple[float, float], n: int = 5, d: int = 1,
                 sig: Optional[SignatureSpec] = None,
                 alpha: Optional[Sequence[float]] = None,
                 branch: str = "inner",
                 run_certify: bool = True) -> WarpedSolitonSpec:
    """Steady solitons with scalar-flat fiber: 40 int phi dphi / (k1 - 20 k3
    phi^4) = xi + k4, f = k2/phi, h' = k1/phi^2.

    All parameter sign patterns reduce to elementary antiderivatives: k3 = 0
    gives phi = sqrt(k1 (xi+k4) / 20); k3 < 0 the arctan branch phi^2 =
    sqrt(-k1/(20 k3)) tan(...); k3 > 0 the partial-fraction branches tanh
    ('inner', phi^4 < k1/(20 k3)) and coth ('outer'). k1 < 0 maps to -k1 by
    the reflection xi -> -xi. h comes out as 20 ln |trig| with the natural
    constant, so the catalog profiles match their familiar closed forms.
    """
    if n + d != 6:
        raise FamilyConstructionError(
            "this family requires base and fiber dimensions with n + d = 6; "
            f"got n={n}, d={d}")
    if k1 == 0.0 or k2 == 0.0:
        raise FamilyConstructionError("k1 and k2 must be nonzero")
    if branch not in ("inner", "outer"):
        raise FamilyConstructionError(
            f"branch must be 'inner' or 'outer', got {branch!r}")
    sig_, direction = _frame(n, sig, alpha, lightlike=False)

    interval = Interval(*xi_range)
    phi_profile, h_profile = _thm16_profiles(k1, k3, k4, branch)
    if not (phi_profile.domain.lo <= interval.lo
            and interval.hi <= phi_profile.domain.hi):
        raise FamilyConstructionError(
            f"xi_range {xi_range!r} leaves the branch's validity interval "
            f"{phi_profile.domain.as_tuple()!r}")
    phi_profile.require_positive(interval, name="phi")
    f_profile = _reciprocal_profile(k2, phi_profile, phi_profile.domain)
    spec = WarpedSolitonSpec(sig_, direction, d, 0.0, 0.0,
                             phi_profile, f_profile, h_profile, interval,
                             label="elementary-family")
    return _certify_or_raise(spec, run_certify)


def _thm16_profiles(k1, k3, k4, branch) -> tuple[Profile, Profile]:
    if k1 < 0.0:
        phi_r, h_r = _thm16_profiles(-k1, -k3, -k4, branch)
        return _reflect(phi_r), _reflect(h_r)

    # u = phi^2 as a function of sigma = xi + k4; all cases share
    # phi' = (k1 - 20 k3 phi^4)/(40 phi) once phi solves the relation.
    if k3 == 0.0:
        u = lambda s: k1 * s / 20.0
        h_val = lambda s: 20.0 * np.log(np.abs(s))
        dom = Interval(-k4, math.inf)
    elif k3 < 0.0:
        a = -20.0 * k3
        r = math.sqrt(k1 / a)
        w = math.sqrt(k1 * a) / 20.0
        u = lambda s: r * np.tan(w * s)
        h_val = lambda s: 20.0 * np.log(np.abs(np.sin(w * s)))
        dom = Interval(-k4, -k4 + 0.5 * math.pi / w)
    else:
        c = 20.0 * k3
        b = math.sqrt(k1 / c)
        w = c * b / 20.0
        if branch == "inner":
            u = lambda s: b * np.tanh(w * s)
            h_val = lambda s: 20.0 * np.log(np.abs(np.sinh(w * s)))
        else:
            u = lambda s: b / np.tanh(w * s)
            h_val = lambda s: 20.0 * np.log(np.cosh(w * s))
        dom = Interval(-k4, math.inf)

    def solve(xs):
        """sigma, phi^2, phi and phi' over xs."""
        sigma = xs + k4
        phi_sq = u(sigma)
        phi = np.sqrt(phi_sq)
        dphi = (k1 - 20.0 * k3 * (phi_sq * phi_sq)) / (40.0 * phi)
        return sigma, phi_sq, phi, dphi

    def phi_arrays(xs, value, d1, d2):
        _, phi_sq, phi, dphi = solve(xs)
        return (phi if value else None, dphi if d1 else None,
                dphi * (-60.0 * k3 * (phi_sq * phi_sq) - k1) / (40.0 * phi_sq)
                if d2 else None)

    def h_arrays(xs, value, d1, d2):
        sigma, phi_sq, phi, dphi = solve(xs)
        return (h_val(sigma) if value else None,
                k1 / phi_sq if d1 else None,
                -2.0 * k1 * dphi / (phi_sq * phi) if d2 else None)

    return Profile(phi_arrays, dom), Profile(h_arrays, dom)


# --- constant-potential family (h' = 0, lambda_F = 0, any n, d) ----------------

def riccati_residual(z: Profile, phi: Profile, n: int, d: int,
                     xi) -> np.ndarray:
    """z^2 + 2 z'/(d+1) + (n+d-1)/(d (d+1)^2) (n (phi'/phi)^2 - 2 phi''/phi),
    elementwise over the points xi, from one jet per profile; a float xi
    gives a 0-d array."""
    xs = np.asarray(xi, dtype=float)
    coeff = (n + d - 1) / (d * (d + 1.0) ** 2)
    with np.errstate(all="ignore"):
        (z_val, dz, _), (p, dp, ddp) = (z.jet(xs.ravel(), d2=False),
                                        phi.jet(xs.ravel()))
        ratio = dp / p
        out = (z_val ** 2 + 2.0 * dz / (d + 1.0)
               + coeff * (n * ratio ** 2 - 2.0 * ddp / p))
    return out.reshape(xs.shape)


def _require_covers(profile: Profile, name: str, interval: Interval) -> None:
    """FamilyConstructionError unless profile's domain contains the whole
    xi_range interval, on which the family reads it."""
    lo, hi = profile.domain.as_tuple()
    if not (lo <= interval.lo and interval.hi <= hi):
        raise FamilyConstructionError(
            f"{name} is defined on {profile.domain.as_tuple()!r}, which does "
            f"not cover xi_range {interval.as_tuple()!r}")


def _riccati_potentials(z: Profile, interval: Interval, d: int):
    """Phi = int_mid^xi z and I = int_mid^xi e^{-(d+1) Phi}, anchored at the
    midpoint of interval, as a function of an array of points in it that
    returns (Phi, I). Both come from one dense two-sided solve whose ends sit
    one ulp inside the open interval, where z's jet is defined."""
    ends = (float(np.nextafter(interval.lo, interval.hi)),
            float(np.nextafter(interval.hi, interval.lo)))

    def rhs(xi, y):
        out = np.empty_like(y)
        # a stage time may round one ulp past the end of its span
        out[:, 0] = z.jet(np.clip(xi, *ends), d2=False)[0]
        out[:, 1] = np.exp(-(d + 1.0) * y[:, 0])
        return out

    states = _two_sided_solve(rhs, 0.5 * (interval.lo + interval.hi),
                              [0.0, 0.0], ends, "Riccati potential")
    return lambda xs: states(xs).T


def riccati_general_solution(z0: Profile, d: int, C: Optional[float],
                             xi_range: tuple[float, float]) -> Profile:
    """z = z0 + Psi / (C + (d+1)/2 int Psi), Psi = exp(-(d+1) int z0).

    Both integrals are anchored at the midpoint of xi_range; the anchor
    constants are absorbed into C. C = None (or +-inf) returns z0 itself.
    The update solves the Riccati equation of z0 whatever phi and n are, so
    neither is a parameter. z0 must be defined on all of xi_range. That is
    the update's domain, on whose grid the denominator is scanned for zero
    crossings: construction errors reported with a bracketing interval.
    """
    if C is None or (isinstance(C, float) and math.isinf(C)):
        return z0
    interval = Interval(*xi_range)
    _require_covers(z0, "z0", interval)
    potentials = _riccati_potentials(z0, interval, d)
    pts = grid_points(interval, 256)
    signs = (C + 0.5 * (d + 1.0) * potentials(np.array(pts))[1]).tolist()
    for left, right, sl, sr in zip(pts, pts[1:], signs, signs[1:]):
        if sl == 0.0 or opposite(sl, sr):
            raise FamilyConstructionError(
                "denominator of the Riccati update crosses zero inside "
                f"({left!r}, {right!r}); choose a different C or range")

    def arrays(xs, value, d1, d2):
        big_phi, integral = potentials(xs)
        w = np.exp(-(d + 1.0) * big_phi) / (C + 0.5 * (d + 1.0) * integral)
        z, dz, ddz = z0.jet(xs, d2=d2)
        dw = -(d + 1.0) * z * w - 0.5 * (d + 1.0) * w * w
        return (z + w if value else None, dz + dw if d1 else None,
                ddz + (-(d + 1.0) * (dz * w + z * dw) - (d + 1.0) * w * dw)
                if d2 else None)

    return Profile(arrays, interval)


def family_thm17(phi: Profile, z_p: Profile, C: float, *,
                 xi_range: tuple[float, float], n: int, d: int,
                 sig: Optional[SignatureSpec] = None,
                 alpha: Optional[Sequence[float]] = None,
                 run_certify: bool = True) -> WarpedSolitonSpec:
    """Trivial-potential solitons: given a Riccati solution z_p, build

        f = phi^((n-2)/(d+1)) e^Phi (int e^{-(d+1) Phi} + 2C/(d+1))^(2/(d+1))

    with Phi = int z_p (midpoint anchor; the anchor shift is absorbed by C).
    h is constant, rho = 0, and the fiber is scalar-flat (lambda_F = 0).
    """
    if n < 3 or d < 1:
        raise FamilyConstructionError(f"need n >= 3 and d >= 1; got n={n}, d={d}")
    sig_, direction = _frame(n, sig, alpha, lightlike=False)
    interval = Interval(*xi_range)
    _require_covers(z_p, "z_p", interval)
    _require_covers(phi, "phi", interval)
    phi.require_positive(interval, name="phi")

    worst = float(np.max(np.abs(riccati_residual(
        z_p, phi, n, d, grid_points(interval, 64)))))
    if not worst <= 1e-8:
        raise FamilyConstructionError(
            "z_p does not satisfy the profile Riccati equation: max residual "
            f"{worst:.3e} exceeds 1e-08")

    potentials = _riccati_potentials(z_p, interval, d)
    shift = 2.0 * C / (d + 1.0)
    pts = np.array(grid_points(interval, 128))
    bad = pts[potentials(pts)[1] + shift <= 0.0]
    if len(bad):
        raise FamilyConstructionError(
            f"inner integral term is nonpositive near xi={float(bad[0])!r}; "
            "increase C or shrink xi_range")

    m = (n - 2.0) / (d + 1.0)
    expo = 2.0 / (d + 1.0)

    def f_arrays(xs, value, d1, d2):
        # f = phi^m e^Phi inner^expo, f' = f ell, f'' = f (ell^2 + ell')
        big_phi, integral = potentials(xs)
        inner = integral + shift
        p, dp, ddp = phi.jet(xs, d2=d2)
        z, dz, _ = z_p.jet(xs, d2=False)
        f_val = (np.float_power(p, m) * np.exp(big_phi)
                 * np.float_power(inner, expo))
        t_val = expo * np.exp(-(d + 1.0) * big_phi) / inner
        ratio = dp / p
        ell = m * ratio + z + t_val
        dt = -(d + 1.0) * z * t_val - 0.5 * (d + 1.0) * t_val * t_val
        dell = m * (ddp / p - ratio * ratio) + dz + dt if d2 else None
        return (f_val if value else None, f_val * ell if d1 else None,
                f_val * (ell * ell + dell) if d2 else None)

    f_profile = Profile(f_arrays, interval)
    h_profile = Profile.constant(0.0, interval)
    spec = WarpedSolitonSpec(sig_, direction, d, 0.0, 0.0,
                             phi, f_profile, h_profile, interval,
                             label="constant-potential-family")
    return _certify_or_raise(spec, run_certify)


# --- lightlike families ---------------------------------------------------------

def family_thm18(phi: Profile, f: Profile, k1: float, *,
                 xi_range: tuple[float, float], n: int = 4, d: int = 2,
                 sig: Optional[SignatureSpec] = None,
                 alpha: Optional[Sequence[float]] = None,
                 run_certify: bool = True) -> WarpedSolitonSpec:
    """Lightlike steady solitons: any positive phi, f work; h' = k1/phi^2.

    With ||alpha||^2 = 0 every curvature term vanishes, so the system
    collapses to the h-equation plus rho = lambda_F = 0.
    """
    sig_, direction = _frame(n, sig, alpha, lightlike=True)
    interval = Interval(*xi_range)
    _require_covers(phi, "phi", interval)
    _require_covers(f, "f", interval)
    phi.require_positive(interval, name="phi")
    f.require_positive(interval, name="f")
    h_profile = _h_from_phi(k1, phi, interval)
    spec = WarpedSolitonSpec(sig_, direction, d, 0.0, 0.0,
                             phi, f, h_profile, interval,
                             label="lightlike-family")
    return _certify_or_raise(spec, run_certify)


def almost_soliton_lightlike(phi: Profile, f: Profile, k1: float,
                             lambda_f: float, *,
                             xi_range: tuple[float, float],
                             n: int = 4, d: int = 2,
                             sig: Optional[SignatureSpec] = None,
                             alpha: Optional[Sequence[float]] = None,
                             run_certify: bool = True) -> WarpedSolitonSpec:
    """Almost solitons from any lightlike data: rho(xi) = lambda_F / f^2.

    The constant-rho constraint of the lightlike system is promoted to the
    definition of rho, so its residual is zero by construction; only the
    h-equation carries information.
    """
    sig_, direction = _frame(n, sig, alpha, lightlike=True)
    interval = Interval(*xi_range)
    _require_covers(phi, "phi", interval)
    _require_covers(f, "f", interval)
    phi.require_positive(interval, name="phi")
    f.require_positive(interval, name="f")

    def rho_arrays(xs, value, d1, d2):
        fv, df, ddf = f.jet(xs, d2=d2)
        f2 = fv * fv
        return (lambda_f / f2 if value else None,
                -2.0 * lambda_f * df / (f2 * fv) if d1 else None,
                lambda_f * (6.0 * df * df / (f2 * f2) - 2.0 * ddf / (f2 * fv))
                if d2 else None)

    rho_profile = Profile(rho_arrays, f.domain)
    h_profile = _h_from_phi(k1, phi, interval)
    spec = WarpedSolitonSpec(sig_, direction, d, rho_profile, lambda_f,
                             phi, f, h_profile, interval,
                             label="almost-lightlike-family")
    return _certify_or_raise(spec, run_certify)


# --- phase portrait -------------------------------------------------------------

@dataclass
class PortraitTrajectory:
    initial: tuple[float, float]
    status: str                      # ok | blowup | positivity-loss | stationary
    rows: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    # rows columns: xi, phi, dphi (sorted by xi)


def phase_portrait(initials: Sequence[tuple[float, float]],
                   xi_span: tuple[float, float], *,
                   k1: float = 1.0, k2: float = 1.0, lambda_f: float = -6.0,
                   q_variant: str = "statement",
                   start_xi: Optional[float] = None, points_per_side: int = 120,
                   phi_floor: float = 1e-9) -> list[PortraitTrajectory]:
    """Trajectories of the profile ODE phi^2 phi'' - 3 phi phi'^2 + p phi' =
    -q phi^3 from the given (phi, phi') initial data at start_xi.

    Defaults are the R^3 x H^3 configuration: k1 = k2 = 1 and the fiber
    curvature passed in lambda_f (a unit-curvature hyperbolic 3-space has
    scalar curvature -6). One DOP853 call at rtol 1e-10, atol 1e-12 runs
    every initial toward both ends of the span; a side stops when phi falls
    to phi_floor (positivity-loss), when |(phi, phi')| passes 1e12 or the
    step size collapses (blowup). The first side that stops, toward the
    lower end first, sets the status. An integrated trajectory's rows are
    the start once, then the points_per_side - 1 points after it of
    linspace(start_xi, end, points_per_side) on each side, up to its stop.
    """
    p = k1 / 10.0
    q = _q_value(k2, lambda_f, 1.0, q_variant) if lambda_f != 0.0 else 0.0
    lo, hi = xi_span
    if start_xi is None:
        start_xi = 0.0 if lo < 0.0 < hi else 0.5 * (lo + hi)
    if not lo <= start_xi <= hi:
        raise FamilyConstructionError(
            f"start_xi={start_xi!r} outside span {xi_span!r}")

    def positivity(xi, y):
        return y[:, 0] - phi_floor
    positivity.terminal = True
    positivity.direction = -1

    def escape(xi, y):
        return 1e12 - np.hypot(y[:, 0], y[:, 1])
    escape.terminal = True
    escape.direction = -1

    out = []
    parts: dict[int, list] = {}   # rows of each integrated trajectory
    sides = []                    # one solver row per integrated side
    for k, (phi0, dphi0) in enumerate(initials):
        if phi0 <= 0.0:
            out.append(PortraitTrajectory((phi0, dphi0), "positivity-loss"))
        elif dphi0 == 0.0 and q * phi0 == 0.0:
            # equilibrium of the first-order system: both components of the
            # vector field vanish identically
            rows = np.array([[lo, phi0, 0.0], [hi, phi0, 0.0]])
            out.append(PortraitTrajectory((phi0, dphi0), "stationary", rows))
        else:
            out.append(PortraitTrajectory((phi0, dphi0), "ok"))
            parts[k] = [np.array([[start_xi, phi0, dphi0]])]
            sides += [(k, end) for end in (lo, hi) if end != start_xi]
    ends = np.array([end for _, end in sides])
    run = solve_ivp(_profile_ode_rhs(p, q),
                    np.column_stack([np.full(len(sides), start_xi), ends]),
                    np.array([out[k].initial for k, _ in sides]
                             ).reshape(-1, 2),
                    rtol=1e-10, atol=1e-12,
                    t_eval=np.linspace(start_xi, ends, points_per_side,
                                       axis=1)[:, 1:],
                    events=[positivity, escape])
    for row, (k, _) in enumerate(sides):
        if out[k].status == "ok" and run.stop[row] != "completed":
            out[k].status = ("positivity-loss" if run.event[row] == 0
                             else "blowup")
        parts[k].append(np.column_stack([run.t_eval[row], run.y_eval[row]]))
    for k, rows in parts.items():
        rows = np.vstack(rows)
        out[k].rows = rows[np.argsort(rows[:, 0])]
    return out
