"""Constructors for the explicit soliton families, plus the phase portrait.

Every constructor returns a WarpedSolitonSpec whose profiles carry exact
first and second derivatives (chain rules through the defining relations),
so certification checks solution-hood rather than interpolation error.

Conventions shared by the constructors:

  * indefinite integrals produced by quadrature (h, the Riccati potentials)
    are anchored at the midpoint of xi_range with value 0; h is only ever
    compared through differences, so the anchor is a gauge choice;
  * closed-form branches keep their natural antiderivative constants so the
    catalog profiles come out in their familiar shape;
  * the implicitly-defined phi of the Lambert family passes through phi0
    (default 1) at xi = -k4.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (BranchDomainError, FamilyConstructionError,
                     QuadratureError)
from .geometry import SignatureSpec, TranslationDirection
from .lambertw import lambert_w
from .numerics import CachedAntiderivative, invert_monotone, solve_ivp
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


def _resolve_frame(n, sig, alpha, want_lightlike=False):
    if sig is None and alpha is None:
        return (default_lightlike_frame(n) if want_lightlike
                else default_spacelike_frame(n))
    if sig is None:
        sig = SignatureSpec.euclidean(n)
    if alpha is None:
        raise FamilyConstructionError("alpha must be given when sig is")
    return sig, TranslationDirection(alpha, sig)


def _reciprocal_profile(k2: float, phi: Profile, domain: Interval) -> Profile:
    """f = k2 / phi with exact derivatives."""
    def value(xi):
        return k2 / phi.value(xi)

    def d1(xi):
        p = phi.value(xi)
        return -k2 * phi.d1(xi) / p ** 2

    def d2(xi):
        p = phi.value(xi)
        dp = phi.d1(xi)
        return k2 * (2.0 * dp * dp / p ** 3 - phi.d2(xi) / p ** 2)

    return Profile(value, d1, d2, domain, analytic_derivatives=True)


def _h_from_phi(k1: float, phi: Profile, xi_range: Interval) -> Profile:
    """h with h' = k1 / phi^2, value anchored to 0 at the range midpoint."""
    mid = 0.5 * (xi_range.lo + xi_range.hi)
    anti = CachedAntiderivative(lambda xi: k1 / phi.value(xi) ** 2, mid)

    def d1(xi):
        return k1 / phi.value(xi) ** 2

    def d2(xi):
        p = phi.value(xi)
        return -2.0 * k1 * phi.d1(xi) / p ** 3

    return Profile(anti, d1, d2, phi.domain, analytic_derivatives=True)


def _certify_or_raise(spec: WarpedSolitonSpec, run: bool,
                      tolerance: float = 1e-7) -> WarpedSolitonSpec:
    if run:
        report = certify(spec, grid_size=120, tolerance=tolerance)
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
    phi' = u(phi) phi^3 with u = -(q/p) (1 + W(k3 exp(-p^2/(4 q phi^4)))).
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
    sig_, direction = _resolve_frame(n, sig, alpha)
    if direction.norm == 0.0:
        raise FamilyConstructionError("alpha must not be lightlike")

    p = k1 / 10.0
    q = _q_value(k2, lambda_f, direction.norm, q_variant)
    interval = Interval(*xi_range)

    def u_of_phi(phi: float) -> float:
        if phi <= 0.0:
            raise FamilyConstructionError("phi left the positive axis")
        w = lambert_w(k3 * math.exp(-p * p / (4.0 * q * phi ** 4)), w_branch) \
            if k3 != 0.0 else 0.0
        return -(q / p) * (1.0 + w)

    def du_dphi(phi: float) -> float:
        if k3 == 0.0:
            return 0.0
        w = lambert_w(k3 * math.exp(-p * p / (4.0 * q * phi ** 4)), w_branch)
        return -p * w / ((1.0 + w) * phi ** 5)

    if construction == "quadrature":
        phi_profile = _thm15_phi_quadrature(p, q, k3, k4, phi0, u_of_phi,
                                            du_dphi, interval)
    elif construction == "ode":
        phi_profile = _thm15_phi_ode(p, q, k4, phi0, u_of_phi, interval)
    else:
        raise FamilyConstructionError(
            f"construction must be 'quadrature' or 'ode', got {construction!r}")

    phi_profile.require_positive(interval, name="phi")
    f_profile = _reciprocal_profile(k2, phi_profile, phi_profile.domain)
    h_profile = _h_from_phi(k1, phi_profile, interval)
    spec = WarpedSolitonSpec(sig_, direction, d, 0.0, lambda_f,
                             phi_profile, f_profile, h_profile, interval,
                             label=f"lambert-family(q={q_variant})")
    return _certify_or_raise(spec, run_certify)


def _thm15_phi_quadrature(p, q, k3, k4, phi0, u_of_phi, du_dphi,
                          interval: Interval) -> Profile:
    if k3 == 0.0:
        # u is the constant -q/p; the relation integrates in closed form to
        # 1/phi^2 = 1/phi0^2 + (2q/p)(xi + k4).
        def value(xi):
            radicand = 1.0 / phi0 ** 2 + (2.0 * q / p) * (xi + k4)
            if radicand <= 0.0:
                raise FamilyConstructionError(
                    f"phi^2 leaves the positive axis at xi={xi!r}; shrink "
                    "xi_range to the sign-consistent interval")
            return radicand ** -0.5
    else:
        travel = CachedAntiderivative(
            lambda t: 1.0 / (u_of_phi(t) * t ** 3), phi0)
        cache: dict[float, float] = {}

        def value(xi):
            got = cache.get(xi)
            if got is not None:
                return got
            target = xi + k4
            lo, hi = _expand_bracket_positive(travel, target, phi0)
            phi = invert_monotone(travel, target, phi0,
                                  dg=lambda t: 1.0 / (u_of_phi(t) * t ** 3),
                                  bracket=(lo, hi))
            cache[xi] = phi
            return phi

    def d1(xi):
        phi = value(xi)
        return u_of_phi(phi) * phi ** 3

    def d2(xi):
        phi = value(xi)
        u = u_of_phi(phi)
        dphi = u * phi ** 3
        return (du_dphi(phi) * phi ** 3 + 3.0 * u * phi ** 2) * dphi

    return Profile(value, d1, d2, interval, analytic_derivatives=True)


_WALL_ERRORS = (BranchDomainError, QuadratureError, FamilyConstructionError)


def _expand_bracket_positive(g, target, x0, factor=2.0, limit=80):
    """Multiplicative bracket search on the positive axis.

    The implicit relation is typically only defined on a sub-ray of phi > 0
    (the W argument leaves its branch domain, or the integrand hits the
    u = 0 turning point). Such failures act as hard walls: the search
    creeps up to them by bisection instead of stepping across.
    """

    def probe(x):
        try:
            return g(x) - target
        except _WALL_ERRORS:
            return None

    def creep(good, gval, bad, gref):
        # tighten the valid endpoint toward the wall between good and bad
        for _ in range(60):
            mid = 0.5 * (good + bad)
            gm = probe(mid)
            if gm is None:
                bad = mid
            else:
                good, gval = mid, gm
                if gval == 0.0 or gval * gref < 0.0:
                    break
            if abs(bad - good) <= 1e-14 * max(1.0, abs(good)):
                break
        return good, gval

    g0 = probe(x0)
    if g0 is None:
        raise FamilyConstructionError(
            f"the implicit relation is not defined at the anchor phi0={x0!r}")
    lo, glo = x0, g0
    hi, ghi = x0, g0
    lo_wall = hi_wall = False
    for _ in range(limit):
        if glo == 0.0:
            return lo, lo
        if ghi == 0.0:
            return hi, hi
        if glo * ghi < 0.0:
            return (lo, hi) if lo < hi else (hi, lo)
        if not lo_wall:
            cand = lo / factor
            gc = probe(cand)
            if gc is None:
                lo, glo = creep(lo, glo, cand, g0)
                lo_wall = True
            else:
                lo, glo = cand, gc
        if not hi_wall:
            cand = hi * factor
            gc = probe(cand)
            if gc is None:
                hi, ghi = creep(hi, ghi, cand, g0)
                hi_wall = True
            else:
                hi, ghi = cand, gc
        if lo_wall and hi_wall and glo * ghi > 0.0:
            raise FamilyConstructionError(
                f"xi target {target!r} lies outside the maximal interval of "
                f"the implicit relation (phi walls near ({lo!r}, {hi!r}))")
    raise FamilyConstructionError(
        f"could not bracket phi for target {target!r}; the relation may be "
        "singular inside the requested range")


def _thm15_phi_ode(p, q, k4, phi0, u_of_phi, interval: Interval) -> Profile:
    xi_c = -k4

    def rhs(xi, y):
        phi, dphi = y
        return [dphi, (3.0 * phi * dphi ** 2 - p * dphi - q * phi ** 3) / phi ** 2]

    y0 = [phi0, u_of_phi(phi0) * phi0 ** 3]
    pieces = []
    for end in (interval.lo, interval.hi):
        if end == xi_c:
            continue
        sol = solve_ivp(rhs, (xi_c, end), y0, method="DOP853",
                        rtol=1e-12, atol=1e-14, dense_output=True)
        if not sol.success:
            raise FamilyConstructionError(
                f"profile ODE integration failed toward xi={end!r}: "
                f"{sol.message}")
        pieces.append((min(xi_c, end), max(xi_c, end), sol.sol))

    def eval_pair(xi):
        for lo, hi, dense in pieces:
            if lo <= xi <= hi:
                return dense(xi)
        # xi == xi_c exactly, or fell between piece boundaries
        return np.asarray(y0)

    def value(xi):
        return float(eval_pair(xi)[0])

    def d1(xi):
        return float(eval_pair(xi)[1])

    def d2(xi):
        phi, dphi = eval_pair(xi)
        return float((3.0 * phi * dphi ** 2 - p * dphi - q * phi ** 3) / phi ** 2)

    return Profile(value, d1, d2, interval, analytic_derivatives=True)


# --- elementary family (lambda_F = 0, n + d = 6) -------------------------------

def _reflect(profile: Profile) -> Profile:
    dom = Interval(-profile.domain.hi, -profile.domain.lo)
    return Profile(lambda xi: profile._value(-xi),
                   lambda xi: -profile._d1(-xi),
                   lambda xi: profile._d2(-xi),
                   dom, analytic_derivatives=profile.analytic_derivatives)


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
    sig_, direction = _resolve_frame(n, sig, alpha)
    if direction.norm == 0.0:
        raise FamilyConstructionError("alpha must not be lightlike")

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
        h_val = lambda s: 20.0 * math.log(abs(s))
        dom = Interval(-k4, math.inf)
    elif k3 < 0.0:
        a = -20.0 * k3
        r = math.sqrt(k1 / a)
        w = math.sqrt(k1 * a) / 20.0
        u = lambda s: r * math.tan(w * s)
        h_val = lambda s: 20.0 * math.log(abs(math.sin(w * s)))
        dom = Interval(-k4, -k4 + 0.5 * math.pi / w)
    else:
        c = 20.0 * k3
        b = math.sqrt(k1 / c)
        w = c * b / 20.0
        if branch == "inner":
            u = lambda s: b * math.tanh(w * s)
            h_val = lambda s: 20.0 * math.log(abs(math.sinh(w * s)))
        else:
            u = lambda s: b / math.tanh(w * s)
            h_val = lambda s: 20.0 * math.log(math.cosh(w * s))
        dom = Interval(-k4, math.inf)

    def phi_value(xi):
        return math.sqrt(u(xi + k4))

    def phi_d1(xi):
        phi = phi_value(xi)
        return (k1 - 20.0 * k3 * phi ** 4) / (40.0 * phi)

    def phi_d2(xi):
        phi = phi_value(xi)
        return phi_d1(xi) * (-60.0 * k3 * phi ** 4 - k1) / (40.0 * phi ** 2)

    def h_d1(xi):
        return k1 / u(xi + k4)

    def h_d2(xi):
        phi = phi_value(xi)
        return -2.0 * k1 * phi_d1(xi) / phi ** 3

    phi_profile = Profile(phi_value, phi_d1, phi_d2, dom,
                          analytic_derivatives=True)
    h_profile = Profile(lambda xi: h_val(xi + k4), h_d1, h_d2, dom,
                        analytic_derivatives=True)
    return phi_profile, h_profile


# --- constant-potential family (h' = 0, lambda_F = 0, any n, d) ----------------

def riccati_residual(z: Profile, phi: Profile, n: int, d: int,
                     xi: float) -> float:
    """z^2 + 2 z'/(d+1) + (n+d-1)/(d (d+1)^2) (n (phi'/phi)^2 - 2 phi''/phi)."""
    ratio = phi.d1(xi) / phi.value(xi)
    coeff = (n + d - 1) / (d * (d + 1.0) ** 2)
    return (z.value(xi) ** 2 + 2.0 * z.d1(xi) / (d + 1.0)
            + coeff * (n * ratio ** 2 - 2.0 * phi.d2(xi) / phi.value(xi)))


def riccati_general_solution(z0: Profile, phi: Profile, n: int, d: int,
                             C: Optional[float],
                             xi_range: tuple[float, float]) -> Profile:
    """z = z0 + Psi / (C + (d+1)/2 int Psi), Psi = exp(-(d+1) int z0).

    Both integrals are anchored at the midpoint of xi_range; the anchor
    constants are absorbed into C. C = None (or +-inf) returns z0 itself.
    The denominator is scanned for zero crossings, which are construction
    errors reported with a bracketing interval.
    """
    if C is None or (isinstance(C, float) and math.isinf(C)):
        return z0
    interval = Interval(*xi_range)
    mid = 0.5 * (interval.lo + interval.hi)
    big_phi = CachedAntiderivative(z0.value, mid)
    psi = lambda xi: math.exp(-(d + 1.0) * big_phi(xi))
    int_psi = CachedAntiderivative(psi, mid)
    den = lambda xi: C + 0.5 * (d + 1.0) * int_psi(xi)

    pts = grid_points(interval, 256)
    signs = [den(x) for x in pts]
    for left, right, sl, sr in zip(pts, pts[1:], signs, signs[1:]):
        if sl == 0.0 or sl * sr < 0.0:
            raise FamilyConstructionError(
                "denominator of the Riccati update crosses zero inside "
                f"({left!r}, {right!r}); choose a different C or range")

    def w(xi):
        return psi(xi) / den(xi)

    def dw(xi):
        wv = w(xi)
        return -(d + 1.0) * z0.value(xi) * wv - 0.5 * (d + 1.0) * wv * wv

    def value(xi):
        return z0.value(xi) + w(xi)

    def d1(xi):
        return z0.d1(xi) + dw(xi)

    def d2(xi):
        wv, dwv = w(xi), dw(xi)
        ddw = (-(d + 1.0) * (z0.d1(xi) * wv + z0.value(xi) * dwv)
               - (d + 1.0) * wv * dwv)
        return z0.d2(xi) + ddw

    dom = z0.domain.clipped(phi.domain)
    return Profile(value, d1, d2, dom, analytic_derivatives=True)


def family_thm17(phi: Profile, z_p: Profile, C: float, *,
                 xi_range: tuple[float, float], n: int, d: int,
                 lambda_f: float = 0.0,
                 sig: Optional[SignatureSpec] = None,
                 alpha: Optional[Sequence[float]] = None,
                 residual_tol: float = 1e-8,
                 run_certify: bool = True) -> WarpedSolitonSpec:
    """Trivial-potential solitons: given a Riccati solution z_p, build

        f = phi^((n-2)/(d+1)) e^Phi (int e^{-(d+1) Phi} + 2C/(d+1))^(2/(d+1))

    with Phi = int z_p (midpoint anchor; the anchor shift is absorbed by C).
    h is constant and rho = lambda_F = 0.
    """
    if lambda_f != 0.0:
        raise FamilyConstructionError(
            "this construction requires a scalar-flat fiber (lambda_F = 0)")
    if n < 3 or d < 1:
        raise FamilyConstructionError(f"need n >= 3 and d >= 1; got n={n}, d={d}")
    sig_, direction = _resolve_frame(n, sig, alpha)
    if direction.norm == 0.0:
        raise FamilyConstructionError("alpha must not be lightlike")
    interval = Interval(*xi_range)
    phi.require_positive(interval, name="phi")

    worst = max(abs(riccati_residual(z_p, phi, n, d, x))
                for x in grid_points(interval, 64))
    if worst > residual_tol:
        raise FamilyConstructionError(
            "z_p does not satisfy the profile Riccati equation: max residual "
            f"{worst:.3e} exceeds {residual_tol:g}")

    mid = 0.5 * (interval.lo + interval.hi)
    big_phi = CachedAntiderivative(z_p.value, mid)
    decay = lambda xi: math.exp(-(d + 1.0) * big_phi(xi))
    inner_int = CachedAntiderivative(decay, mid)
    shift = 2.0 * C / (d + 1.0)
    inner = lambda xi: inner_int(xi) + shift

    pts = grid_points(interval, 128)
    bad = [x for x in pts if inner(x) <= 0.0]
    if bad:
        raise FamilyConstructionError(
            f"inner integral term is nonpositive near xi={bad[0]!r}; "
            "increase C or shrink xi_range")

    m = (n - 2.0) / (d + 1.0)
    expo = 2.0 / (d + 1.0)
    memo: dict[float, tuple[float, float, float]] = {}

    def _eval(xi):
        got = memo.get(xi)
        if got is not None:
            return got
        pv = phi.value(xi)
        f_val = pv ** m * math.exp(big_phi(xi)) * inner(xi) ** expo
        t_val = expo * decay(xi) / inner(xi)
        ell = m * phi.d1(xi) / pv + z_p.value(xi) + t_val
        dt = -(d + 1.0) * z_p.value(xi) * t_val - 0.5 * (d + 1.0) * t_val ** 2
        ratio = phi.d1(xi) / pv
        dell = m * (phi.d2(xi) / pv - ratio * ratio) + z_p.d1(xi) + dt
        memo[xi] = (f_val, ell, dell)
        return memo[xi]

    def f_value(xi):
        return _eval(xi)[0]

    def f_d1(xi):
        f_val, ell, _ = _eval(xi)
        return f_val * ell

    def f_d2(xi):
        f_val, ell, dell = _eval(xi)
        return f_val * (ell * ell + dell)

    f_profile = Profile(f_value, f_d1, f_d2, interval,
                        analytic_derivatives=True)
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
    sig_, direction = _resolve_frame(n, sig, alpha, want_lightlike=True)
    if direction.norm != 0.0:
        raise FamilyConstructionError(
            f"alpha must be lightlike (signed norm 0), got {direction.norm!r}")
    interval = Interval(*xi_range)
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
    sig_, direction = _resolve_frame(n, sig, alpha, want_lightlike=True)
    if direction.norm != 0.0:
        raise FamilyConstructionError(
            f"alpha must be lightlike (signed norm 0), got {direction.norm!r}")
    interval = Interval(*xi_range)
    phi.require_positive(interval, name="phi")
    f.require_positive(interval, name="f")

    def rho_value(xi):
        return lambda_f / f.value(xi) ** 2

    def rho_d1(xi):
        return -2.0 * lambda_f * f.d1(xi) / f.value(xi) ** 3

    def rho_d2(xi):
        fv = f.value(xi)
        return lambda_f * (6.0 * f.d1(xi) ** 2 / fv ** 4
                           - 2.0 * f.d2(xi) / fv ** 3)

    rho_profile = Profile(rho_value, rho_d1, rho_d2, f.domain,
                          analytic_derivatives=True)
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
                   alpha_norm: float = 1.0, q_variant: str = "statement",
                   start_xi: Optional[float] = None, points_per_side: int = 120,
                   rtol: float = 1e-10, atol: float = 1e-12,
                   blowup_norm: float = 1e12,
                   phi_floor: float = 1e-9) -> list[PortraitTrajectory]:
    """Trajectories of the profile ODE phi^2 phi'' - 3 phi phi'^2 + p phi' =
    -q phi^3 from the given (phi, phi') initial data at start_xi.

    Defaults are the R^3 x H^3 configuration: k1 = k2 = 1 and the fiber
    curvature passed in lambda_f (a unit-curvature hyperbolic 3-space has
    scalar curvature -6).
    """
    p = k1 / 10.0
    q = _q_value(k2, lambda_f, alpha_norm, q_variant) if lambda_f != 0.0 else 0.0
    lo, hi = xi_span
    if start_xi is None:
        start_xi = 0.0 if lo < 0.0 < hi else 0.5 * (lo + hi)
    if not lo <= start_xi <= hi:
        raise FamilyConstructionError(
            f"start_xi={start_xi!r} outside span {xi_span!r}")

    def rhs(xi, y):
        phi, dphi = y
        return [dphi, (3.0 * phi * dphi ** 2 - p * dphi - q * phi ** 3) / phi ** 2]

    def positivity(xi, y):
        return y[0] - phi_floor
    positivity.terminal = True
    positivity.direction = -1

    def escape(xi, y):
        return blowup_norm - math.hypot(y[0], y[1])
    escape.terminal = True
    escape.direction = -1

    out = []
    for phi0, dphi0 in initials:
        if phi0 <= 0.0:
            out.append(PortraitTrajectory((phi0, dphi0), "positivity-loss"))
            continue
        if dphi0 == 0.0 and q * phi0 == 0.0:
            # equilibrium of the first-order system: both components of the
            # vector field vanish identically
            rows = np.array([[lo, phi0, 0.0], [hi, phi0, 0.0]])
            out.append(PortraitTrajectory((phi0, dphi0), "stationary", rows))
            continue
        segments = []
        status = "ok"
        for end in (lo, hi):
            if end == start_xi:
                continue
            t_eval = np.linspace(start_xi, end, points_per_side)
            sol = solve_ivp(rhs, (start_xi, end), [phi0, dphi0],
                            method="RK45", rtol=rtol, atol=atol,
                            t_eval=t_eval, events=(positivity, escape))
            if sol.status == 1:
                hit = "positivity-loss" if len(sol.t_events[0]) else "blowup"
                if status == "ok":
                    status = hit
            elif sol.status != 0 and status == "ok":
                status = "blowup"
            segments.append(np.column_stack([sol.t, sol.y[0], sol.y[1]]))
        rows = np.vstack([np.array([[start_xi, phi0, dphi0]])] + segments)
        rows = rows[np.argsort(rows[:, 0])]
        out.append(PortraitTrajectory((phi0, dphi0), status, rows))
    return out
