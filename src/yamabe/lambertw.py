"""Real branches of the Lambert W function of one real number.

Halley iteration on w*exp(w) = x from one initial guess: a truncated
branch-point series in p = sqrt(2*(e*x + 1)) near x = -1/e, log asymptotics
for large x or x -> 0- on the lower branch, and w0 = x/(1+x)-style guesses
elsewhere. The iteration stops when its Halley step falls below a few ulps
of w. exp and log are numpy's, applied to the float.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BranchDomainError

__all__ = ["lambert_w", "BRANCH_POINT"]

BRANCH_POINT = -math.exp(-1.0)  # -1/e, where the two real branches meet
# arguments this close below -1/e are taken as rounding error: W = -1
_FOLD = BRANCH_POINT - 1e-15 * abs(BRANCH_POINT)


def _branch_point_series(x: float, sign: float) -> float:
    # w = -1 + p - p^2/3 + 11 p^3/72 - ..., p = +-sqrt(2(ex+1))
    p = sign * math.sqrt(max(0.0, 2.0 * (math.e * x + 1.0)))
    return -1.0 + p - p * p / 3.0 + 11.0 * (p * p * p) / 72.0


def _guess(x: float, branch: str) -> float:
    if branch == "lower":
        if x < -0.27:
            return _branch_point_series(x, -1.0)
        # w ~ ln(-x) - ln(-ln(-x)) as x -> 0-
        lx = float(np.log(-x))
        return lx - float(np.log(-lx))
    if x < -0.32:
        return _branch_point_series(x, +1.0)
    if x <= -0.25:
        return x
    if x < 1.0:
        # the series W ~ x(1 - x + 1.5x^2) padded into a rational guess
        return x / (1.0 + x)
    lx = float(np.log(x))
    if x < 3.0:
        return 0.5 * lx + 0.6
    # w ~ ln x - ln ln x + ln ln x / ln x as x -> inf
    llx = float(np.log(lx))
    return lx - llx + llx / lx


def lambert_w(x: float, branch: str = "principal") -> float:
    """Real Lambert W of the real number x, as a float. branch: 'principal'
    (W >= -1) or 'lower' (W <= -1).

    An x outside the branch's domain, NaN, or one whose iteration does not
    converge raises BranchDomainError.
    """
    if branch not in ("principal", "lower"):
        raise BranchDomainError(f"unknown branch {branch!r}")
    x = float(x)
    if math.isnan(x):
        raise BranchDomainError("Lambert W argument is NaN")
    if _FOLD < x < BRANCH_POINT:
        return -1.0
    if branch == "principal" and x < BRANCH_POINT:
        raise BranchDomainError(f"principal branch needs x >= -1/e; got {x!r}")
    if branch == "lower" and not BRANCH_POINT <= x < 0.0:
        raise BranchDomainError(f"lower branch needs -1/e <= x < 0; got {x!r}")
    if x == 0.0:
        return 0.0
    # Convergence is judged on the step size in w, not on the residual
    # w*e^w - x: near w = -1 and in the tail of the lower branch the map is
    # so flat that a machine-small residual still leaves a large error in w.
    with np.errstate(all="ignore"):
        w, prev = _guess(x, branch), math.inf
        for _ in range(80):
            ew = float(np.exp(w))
            resid = w * ew - x
            wp1 = w + 1.0
            # exact already, or w = -1 where the step's denominator is
            # infinite: either way the step is zero
            if resid == 0.0 or wp1 == 0.0:
                return w
            denom = ew * wp1 - (w + 2.0) * resid / (2.0 * wp1)
            # a step that is not finite (zero or non-finite denominator) fails
            step = resid / denom if denom else math.nan
            if not math.isfinite(step):
                break
            new = w - step
            astep, scale = abs(step), max(1.0, abs(new))
            # a step that stops shrinking at the conditioning floor (branch
            # point) leaves w as accurate as double precision permits
            if astep <= 4e-16 * scale or prev <= astep <= 1e-8 * scale:
                return new
            w, prev = new, min(prev, astep)
    raise BranchDomainError(
        f"Halley iteration failed to converge for x={x!r} on {branch} branch")
