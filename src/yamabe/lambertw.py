"""Real branches of the Lambert W function, on a float or on an array.

Halley iteration on w*exp(w) = x, every element of an array in lockstep with
a stop of its own. Initial guesses: a truncated branch-point series in
p = sqrt(2*(e*x + 1)) near x = -1/e, log asymptotics for large |x| or
x -> 0- on the lower branch, and w0 = x/(1+x)-style guesses elsewhere, each
computed only on the elements that use it. An element stops when its Halley
step falls below a few ulps of w; the running arrays shrink only on an
iteration where some element stops.

A float runs the same code as a one-element array, and no element's
iterates depend on the others, so W of a float equals W of any array that
holds it, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BranchDomainError

__all__ = ["lambert_w", "BRANCH_POINT"]

BRANCH_POINT = -math.exp(-1.0)  # -1/e, where the two real branches meet
# arguments this close below -1/e are taken as rounding error: W = -1
_FOLD = BRANCH_POINT - 1e-15 * abs(BRANCH_POINT)


def _branch_point_series(x, sign: float):
    # w = -1 + p - p^2/3 + 11 p^3/72 - ..., p = +-sqrt(2(ex+1))
    p = sign * np.sqrt(np.maximum(0.0, 2.0 * (math.e * x + 1.0)))
    return -1.0 + p - p * p / 3.0 + 11.0 * (p * p * p) / 72.0


def _guess_where(w, x, mask, guess) -> None:
    """w[mask] = guess(x[mask]), evaluating guess on those elements only."""
    if mask.all():
        w[:] = guess(x)
    elif mask.any():
        w[mask] = guess(x[mask])


def _initial_principal(x):
    w = np.empty(x.shape)
    fold, mid, small, moderate = x < -0.32, x <= -0.25, x < 1.0, x < 3.0
    _guess_where(w, x, fold, lambda v: _branch_point_series(v, +1.0))
    _guess_where(w, x, mid & ~fold, lambda v: v)
    # below 1: the series W ~ x(1 - x + 1.5x^2) padded into a rational guess
    _guess_where(w, x, small & ~mid, lambda v: v / (1.0 + v))
    _guess_where(w, x, moderate & ~small, lambda v: 0.5 * np.log(v) + 0.6)
    _guess_where(w, x, ~moderate, _log_asymptotic)
    return w


def _log_asymptotic(x):
    # w ~ ln x - ln ln x + ln ln x / ln x as x -> inf (here x >= 3)
    lx = np.log(x)
    llx = np.log(lx)
    return lx - llx + llx / lx


def _initial_lower(x):
    w = np.empty(x.shape)
    fold = x < -0.27
    _guess_where(w, x, fold, lambda v: _branch_point_series(v, -1.0))
    _guess_where(w, x, ~fold, _log_lower)
    return w


def _log_lower(x):
    # w ~ ln(-x) - ln(-ln(-x)) as x -> 0-
    lx = np.log(-x)
    return lx - np.log(-lx)


def _lambert(x: np.ndarray, branch: str) -> np.ndarray:
    """W of the 1-D array x, NaN where it is not defined or the iteration
    fails. Runs under np.errstate(all="ignore")."""
    w = np.full(x.shape, np.nan)
    w[(_FOLD < x) & (x < BRANCH_POINT)] = -1.0
    if branch == "principal":
        w[x == 0.0] = 0.0
        idx = np.flatnonzero((x >= BRANCH_POINT) & (x != 0.0))
        guess = _initial_principal
    else:
        idx = np.flatnonzero((x >= BRANCH_POINT) & (x < 0.0))
        guess = _initial_lower
    xr = x[idx]
    wr = guess(xr)
    prev = np.full(len(idx), np.inf)
    # Convergence is judged on the step size in w, not on the residual
    # w*e^w - x: near w = -1 and in the tail of the lower branch the map is
    # so flat that a machine-small residual still leaves a large error in w.
    for _ in range(80):
        if not len(idx):
            break
        ew = np.exp(wr)
        resid = wr * ew - xr
        wp1 = wr + 1.0
        step = resid / (ew * wp1 - (wr + 2.0) * resid / (2.0 * wp1))
        step[resid == 0.0] = 0.0          # exact already
        new = wr - step
        astep = np.abs(step)
        scale = np.maximum(1.0, np.abs(new))
        # a step that stops shrinking at the conditioning floor (branch
        # point) leaves w as accurate as double precision permits
        done = (astep <= 4e-16 * scale) | ((astep >= prev)
                                           & (astep <= 1e-8 * scale))
        # a step that is not finite (zero or non-finite denominator) fails
        stop = done | ~np.isfinite(step)
        if stop.any():
            w[idx[done]] = new[done]
            if stop.all():
                break
            going = ~stop
            idx, xr, new, astep, prev = (a[going] for a in
                                         (idx, xr, new, astep, prev))
        wr, prev = new, np.minimum(prev, astep)
    return w


def lambert_w(x, branch: str = "principal"):
    """Real Lambert W of a float, or of every element of an array (same
    shape back). branch: 'principal' (W >= -1) or 'lower' (W <= -1).

    A float outside the branch's domain, NaN, or one whose iteration does
    not converge raises BranchDomainError; an array has NaN at exactly those
    elements instead.
    """
    if branch not in ("principal", "lower"):
        raise BranchDomainError(f"unknown branch {branch!r}")
    xs = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        w = _lambert(xs.reshape(-1), branch)
    if xs.ndim:
        return w.reshape(xs.shape)
    if not math.isnan(w[0]):
        return float(w[0])
    x = float(xs)
    if math.isnan(x):
        raise BranchDomainError("Lambert W argument is NaN")
    if branch == "principal" and x < BRANCH_POINT:
        raise BranchDomainError(f"principal branch needs x >= -1/e; got {x!r}")
    if branch == "lower" and not BRANCH_POINT <= x < 0.0:
        raise BranchDomainError(f"lower branch needs -1/e <= x < 0; got {x!r}")
    raise BranchDomainError(
        f"Halley iteration failed to converge for x={x!r} on {branch} branch")
