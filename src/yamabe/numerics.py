"""Small numerical kernels shared across modules.

Adaptive Simpson quadrature, cached antiderivative evaluation, bracketed
bisection-then-Newton inversion and the central-difference stencils used for
derivative fallbacks. ODE trajectories go through scipy's embedded RK pairs;
the pieces here are the ones whose behaviour the package's contracts pin down.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import Callable

import numpy as np

from .errors import QuadratureError, RootFindError

__all__ = [
    "adaptive_simpson", "CachedAntiderivative", "invert_monotone",
    "central_d1", "central_d2", "square", "solve_ivp", "DEFAULT_QUAD_TOL",
]

DEFAULT_QUAD_TOL = 1e-10  # absolute tolerance per integral


def _eval_integrand(f, x, a, b):
    # singular integrands surface as arithmetic errors; report the panel
    try:
        return f(x)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise QuadratureError(
            f"integrand failed at {x!r}: {exc}", bracket=(a, b)) from exc


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = _eval_integrand(f, m, a, b)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = DEFAULT_QUAD_TOL, max_depth: int = 48) -> float:
    """Integral of f over [a, b] to absolute tolerance tol."""
    if a == b:
        return 0.0
    fa = _eval_integrand(f, a, a, b)
    fb = _eval_integrand(f, b, a, b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    return _simpson_rec(f, a, fa, b, fb, m, fm, whole, tol, max_depth)


def _simpson_rec(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    delta = left + right - whole
    if not math.isfinite(delta):
        raise QuadratureError(
            f"integrand not finite on [{a!r}, {b!r}]", bracket=(a, b))
    if abs(delta) <= 15.0 * tol or depth <= 0:
        if depth <= 0 and abs(delta) > 15.0 * tol:
            raise QuadratureError(
                f"quadrature failed to converge on [{a!r}, {b!r}]",
                bracket=(a, b))
        return left + right + delta / 15.0
    half = 0.5 * tol
    return (_simpson_rec(f, a, fa, m, fm, lm, flm, left, half, depth - 1)
            + _simpson_rec(f, m, fm, b, fb, rm, frm, right, half, depth - 1))


class CachedAntiderivative:
    """F(x) = F(anchor) + int_anchor^x f, reusing previously computed nodes.

    Grid sweeps then cost one short panel per new point instead of one long
    integral each.
    """

    def __init__(self, f: Callable[[float], float], anchor: float,
                 value_at_anchor: float = 0.0, tol: float = DEFAULT_QUAD_TOL):
        self.f = f
        self.tol = tol
        self._xs = [anchor]
        self._vals = {anchor: value_at_anchor}

    def __call__(self, x: float) -> float:
        if x in self._vals:
            return self._vals[x]
        i = bisect_left(self._xs, x)
        # nearest cached node on either side
        candidates = []
        if i > 0:
            candidates.append(self._xs[i - 1])
        if i < len(self._xs):
            candidates.append(self._xs[i])
        base = min(candidates, key=lambda c: abs(c - x))
        value = self._vals[base] + adaptive_simpson(self.f, base, x, self.tol)
        insort(self._xs, x)
        self._vals[x] = value
        return value


def invert_monotone(g: Callable[[float], float], target: float, x0: float,
                    dg: Callable[[float], float] | None = None,
                    bracket: tuple[float, float] | None = None,
                    tol: float = 1e-13, max_expand: int = 60) -> float:
    """Solve g(x) = target for monotone g: bracket by doubling from x0,
    bisect until safe, then Newton-polish (if dg given)."""
    # sign tests are written as comparisons, never as products: a product of
    # two subnormal same-sign values underflows to 0.0 and would pass for a
    # straddle
    def opposite(a, b):
        return (a < 0.0) != (b < 0.0)

    if bracket is None:
        lo = hi = x0
        glo = ghi = g(x0) - target
        step = max(1e-6, 1e-3 * abs(x0))
        for _ in range(max_expand):
            if glo == 0.0:
                return lo
            if ghi == 0.0:
                return hi
            if opposite(glo, ghi):
                break
            step *= 2.0
            cand = hi + step
            gc = g(cand) - target
            if gc == 0.0 or opposite(gc, ghi):
                lo, glo, hi, ghi = hi, ghi, cand, gc
                break
            cand2 = lo - step
            gc2 = g(cand2) - target
            if gc2 == 0.0 or opposite(gc2, glo):
                hi, ghi, lo, glo = lo, glo, cand2, gc2
                break
            lo, glo, hi, ghi = cand2, gc2, cand, gc
        else:
            raise RootFindError(
                f"no bracket found for target {target!r} from x0={x0!r}")
        if lo > hi:
            lo, hi = hi, lo
            glo, ghi = ghi, glo
    else:
        lo, hi = bracket
        glo, ghi = g(lo) - target, g(hi) - target
        if glo != 0.0 and ghi != 0.0 and not opposite(glo, ghi):
            raise RootFindError(
                f"bracket {bracket!r} does not straddle target {target!r}")

    # bisection until the interval is small, then Newton from the midpoint
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * max(1.0, abs(mid)):
            break
        gm = g(mid) - target
        if gm == 0.0:
            return mid
        if opposite(glo, gm):
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
    x = 0.5 * (lo + hi)
    if dg is not None:
        for _ in range(8):
            gx = g(x) - target
            d = dg(x)
            if d == 0.0 or not math.isfinite(d):
                break
            step = gx / d
            x_new = x - step
            if not (lo - (hi - lo) <= x_new <= hi + (hi - lo)):
                break
            x = x_new
            if abs(step) <= 1e-15 * max(1.0, abs(x)):
                break
    return x


def central_d1(f: Callable[[float], float], x: float,
               step: float | None = None) -> float:
    """First derivative, central difference with one Richardson level."""
    h = step if step is not None else max(1e-6, 1e-6 * abs(x))
    d_h = (f(x + h) - f(x - h)) / (2.0 * h)
    d_h2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * d_h2 - d_h) / 3.0


def central_d2(f: Callable[[float], float], x: float,
               step: float | None = None) -> float:
    """Second derivative with one Richardson level.

    The default step is larger than for d1: second differences lose ~eps/h^2
    to cancellation, so 1e-6 would leave 1e-4-sized noise.
    """
    h = step if step is not None else max(1e-4, 1e-4 * abs(x))
    fx = f(x)
    s_h = (f(x + h) - 2.0 * fx + f(x - h)) / (h * h)
    s_h2 = (f(x + 0.5 * h) - 2.0 * fx + f(x - 0.5 * h)) / (0.25 * h * h)
    return (4.0 * s_h2 - s_h) / 3.0


def square(x):
    """x ** 2 for a float or an array, rounded as Python rounds float powers
    (libm pow). numpy's own x ** 2 is x * x, and numpy's power loop has its
    own SIMD kernel; both differ from libm in the last bit on some inputs,
    and array and scalar residuals must agree bitwise."""
    return x ** 2 if isinstance(x, float) else np.float_power(x, 2.0)


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first call. Importing
    scipy.integrate takes about 0.8 s and 50 MB, and only the ODE paths
    (geodesics, the phase portrait, the thm15 ODE construction) need it."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)
