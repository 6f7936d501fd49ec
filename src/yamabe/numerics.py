"""Small numerical kernels shared across modules.

Adaptive Gauss-Kronrod panels and a bracketed monotone inversion (both also
elementwise over arrays), and ``solve_ivp``: the explicit Runge-Kutta kernel
(Dormand-Prince 8(5,3), DOP853) that integrates every ODE of the package, a
batch of independent trajectories at a time. Its stop events follow one
rule: each is positive wherever a row may run, and a row stops at the first
accepted step where one is <= 0. Its t_eval points and its dense output are
read by one reader of the kept steps' interpolants, DenseTrajectory.
Adaptive Simpson quadrature and its cached antiderivative are still here,
but no code of the package calls them any more: the benchmark's tracer
(bench/spans.py) patches them by name.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureError, RootFindError

__all__ = [
    "adaptive_simpson", "CachedAntiderivative", "gauss_kronrod",
    "invert_monotone", "opposite", "solve_ivp", "OdeBatch",
    "DenseTrajectory", "DEFAULT_QUAD_TOL",
]

DEFAULT_QUAD_TOL = 1e-10  # absolute tolerance per integral
_SIMPSON_DEPTH = 48       # bisection levels before quadrature gives up


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
                     tol: float = DEFAULT_QUAD_TOL) -> float:
    """Integral of f over [a, b] to absolute tolerance tol."""
    if a == b:
        return 0.0
    fa = _eval_integrand(f, a, a, b)
    fb = _eval_integrand(f, b, a, b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    return _simpson_rec(f, a, fa, b, fb, m, fm, whole, tol, _SIMPSON_DEPTH)


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
                 value_at_anchor: float = 0.0):
        self.f = f
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
        value = self._vals[base] + adaptive_simpson(self.f, base, x)
        insort(self._xs, x)
        self._vals[x] = value
        return value


def opposite(a: float, b: float) -> bool:
    """Whether a and b lie on opposite sides of zero (zero counts as
    non-negative). Sign tests are comparisons, never products: the product of
    two tiny values underflows to +-0.0 and hides a straddle or fakes one."""
    return (a < 0.0) != (b < 0.0)


_INVERT_STEPS = 200


def invert_monotone(g: Callable, target, bracket: tuple[float, float],
                    g_ends, dg: Callable | None = None,
                    start: float | None = None):
    """Solve g(x) = target for monotone g on a bracket (lo, hi) that
    straddles the target, elementwise over the array target: g and dg take
    and return arrays of the same shape, and g may give NaN where it cannot
    be evaluated. g_ends is g at the two ends of the bracket, in its order
    (the caller has them, or pays for g(np.array(bracket))); they check the
    straddle, raising RootFindError where it fails, and orient each step.
    The result has the shape of target (0-d for a float).

    Every element is solved in lockstep. Each starts at start (default the
    bracket midpoint) and takes Newton steps with dg. A step that leaves
    the element's own bracket (its iterates on either side of its root, and
    those where g is NaN), and every step without dg, bisects that bracket
    clipped to the given one instead. An element stops when its step falls
    below 1e-15 relative or returns to its previous iterate. The given
    bracket enters the iterates only through that clipping, so an element
    whose Newton steps stay inside it comes out the same solved alone or in
    any batch.
    """
    t = np.array(target, dtype=float).reshape(-1)

    lo_end, hi_end = bracket
    glo, ghi = np.asarray(g_ends, dtype=float)[:, None] - t
    bad = (glo != 0.0) & (ghi != 0.0) & ((glo < 0.0) == (ghi < 0.0))
    if np.count_nonzero(bad):
        raise RootFindError(
            f"bracket {bracket!r} does not straddle target "
            f"{float(t[bad][0])!r}")

    out = np.empty(len(t))
    idx = np.arange(len(t))
    x = prev = np.full(len(t), 0.5 * (lo_end + hi_end) if start is None
                       else float(start))
    lo, hi = np.full(len(t), -np.inf), np.full(len(t), np.inf)
    r = g(x) - t
    with np.errstate(all="ignore"):
        for _ in range(_INVERT_STEPS):
            # a point where g is NaN lies past a wall on the side the element
            # last moved to
            below = np.where(np.isnan(r), x < prev, (glo < 0.0) == (r < 0.0))
            lo, hi = np.where(below, x, lo), np.where(below, hi, x)
            x_new = x - r / dg(x) if dg is not None else np.nan * x
            inside = (lo <= x_new) & (x_new <= hi)
            if not inside.all():
                x_new = np.where(inside, x_new, 0.5 * (np.fmax(lo, lo_end)
                                                       + np.fmin(hi, hi_end)))
            hit = r == 0.0
            # a step back to the previous iterate is a two-cycle about a
            # root that g does not resolve any finer
            stop = hit | (x_new == prev) | (
                np.abs(x_new - x) <= 1e-15 * np.maximum(1.0, np.abs(x_new)))
            out[idx[stop]] = np.where(hit, x, x_new)[stop]
            idx, lo, hi, glo, t, prev, x = (a[~stop] for a in
                                            (idx, lo, hi, glo, t, x, x_new))
            if not len(idx):
                break
            r = g(x) - t
        out[idx] = x
    return out.reshape(np.shape(target))


# The 21-point Gauss-Kronrod rule and its embedded 10-point Gauss rule
# (Kronrod 1965; QUADPACK's qk21): each nonnegative node on [-1, 1], largest
# first, with its K21 weight. Every other node from the first is a G10 node.
_K21 = np.array([
    (0.995657163025808080735527280689003, 0.011694638867371874278064396062192),
    (0.973906528517171720077964012084452, 0.032558162307964727478818972459390),
    (0.930157491355708226001207180059508, 0.054755896574351996031381300244580),
    (0.865063366688984510732096688423493, 0.075039674810919952767043140916190),
    (0.780817726586416897063717578345042, 0.093125454583697605535065465083366),
    (0.679409568299024406234327365114874, 0.109387158802297641899210590325805),
    (0.562757134668604683339000099272694, 0.123491976262065851077958109831074),
    (0.433395394129247190799265943165784, 0.134709217311473325928054001771707),
    (0.294392862701460198131126603103866, 0.142775938577060080797094273138717),
    (0.148874338981631210884826001129720, 0.147739104901338491374841515972068),
    (0.000000000000000000000000000000000, 0.149445554002916905664936468389821),
])
_G10 = np.zeros(11)
_G10[1::2] = (0.066671344308688137593568809893332,
              0.149451349150580593145776339657697,
              0.219086362515982043995534934228163,
              0.269266719309996355091226921569469,
              0.295524224714752870173892994651338)
# nodes in increasing order, the negative ones mirrored from the positive
_KR_NODES = np.concatenate([-_K21[:-1, 0], _K21[::-1, 0]])
_KR_WEIGHTS, _G10_WEIGHTS = (np.concatenate([w[:-1], w[::-1]])
                             for w in (_K21[:, 1], _G10))
_GK_DEPTH = 40    # levels of panel splitting before an element gives up
_GK_PANELS = 64   # panels of one element at one level before it gives up


def gauss_kronrod(f: Callable, a, b):
    """Integral of f from a to b, elementwise over the arrays a and b (which
    broadcast; the result has their shape), on adaptive Gauss-Kronrod
    panels: a panel's value is the 21-point Kronrod rule and its error
    estimate is the distance to the 10-point Gauss rule on the same nodes
    (QUADPACK's G10/K21 pair). A panel is split in two while its estimate
    exceeds its share of DEFAULT_QUAD_TOL (halved at each split) and the
    estimates of its element do not add up to less than DEFAULT_QUAD_TOL,
    down to 40 levels and up to 64 panels at a level. The panels of every
    element are evaluated together, one level at a time, and a level whose
    panels are all within their shares is the last: its panels are added
    and nothing is split, so an element whose first panel is done is
    0.0 + that panel.

    f takes the nodes, an array (k, 21) with one row per panel, and returns
    the integrand there. An element with a == b is 0. An element with a
    panel that is not finite, or still too coarse at the last level or with
    too many panels, comes back NaN. An element's panels and the order of
    its sum do not depend on the other elements, so it comes out the same
    alone or in any batch.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    shape, a, b = a.shape, a.reshape(-1), b.reshape(-1)
    value, spent = np.zeros(a.size), np.zeros(a.size)
    failed = np.zeros(a.size, dtype=bool)
    owner = np.flatnonzero(a != b)
    lo, hi = a[owner], b[owner]
    tol = np.full(len(owner), DEFAULT_QUAD_TOL)
    with np.errstate(all="ignore"):
        for _ in range(_GK_DEPTH):
            if not len(owner):
                break
            half = 0.5 * (hi - lo)
            nodes = (lo + half)[:, None] + half[:, None] * _KR_NODES
            fx = np.asarray(f(nodes), dtype=float)
            panel, gauss = (half * np.add.reduce(fx * w, axis=1)
                            for w in (_KR_WEIGHTS, _G10_WEIGHTS))
            estimate = np.abs(panel - gauss)
            if (estimate <= tol).all():
                # no panel splits, so this level is the last
                np.add.at(value, owner, panel)
                break
            # a panel within its share is done, and so are all panels of an
            # element whose estimates fit in what is left of its budget
            total = spent + np.bincount(owner, estimate, a.size)
            done = (estimate <= tol) | (total <= DEFAULT_QUAD_TOL)[owner]
            spent += np.bincount(owner[done], estimate[done], a.size)
            np.add.at(value, owner[done], panel[done])
            failed[owner[~np.isfinite(estimate)]] = True
            split = ~done & ~failed[owner]
            # an estimate held up by noise in f splits every panel; an
            # element with more than _GK_PANELS at one level gives up
            crowded = np.bincount(owner[split], minlength=a.size) \
                > _GK_PANELS // 2
            failed |= crowded
            split &= ~crowded[owner]
            mid = 0.5 * (lo + hi)[split]
            owner = np.repeat(owner[split], 2)
            lo = np.column_stack([lo[split], mid]).reshape(-1)
            hi = np.column_stack([mid, hi[split]]).reshape(-1)
            tol = np.repeat(0.5 * tol[split], 2)
        else:
            # panels still open after the last level are too coarse
            failed[owner] = True
    return np.where(failed, np.nan, value).reshape(shape)


# --- explicit Runge-Kutta kernel ---------------------------------------------
#
# The embedded pair DOP853 (Dormand & Prince 8(5,3)) with the step-size
# control of Hairer, Norsett & Wanner, Solving ODEs I, II.4, II.5 and II.10,
# as scipy.integrate.solve_ivp applies it: the same tableau, error norm,
# controller constants, initial-step rule, failure rule (a step below 10 ulps
# of t) and event location on each step's interpolant. The kernel advances
# B independent rows in lockstep; each row has its own span, step size, error
# control, events and stop. Rows never mix: every operation is elementwise
# across rows or a reduction along one row, and powers go through libm one
# row at a time, so a row's trajectory is bitwise the same alone or inside
# any batch.

_SAFETY = 0.9        # multiplies the asymptotic step-size factor
_MIN_FACTOR = 0.2    # largest decrease of the step size after a rejection
_MAX_FACTOR = 10.0   # largest increase after an acceptance
_EVENT_TOL = 4 * np.finfo(float).eps   # absolute and relative, event times


def _combine(coefs: np.ndarray, K: np.ndarray) -> np.ndarray:
    """sum_j coefs[j] * K[j] over the stages K (stages, rows, n), added
    stage by stage for every element; coefs has shape (s, 1, 1)."""
    return np.add.reduce(coefs * K[:len(coefs)], axis=0)


def _stage_rows(A: np.ndarray) -> list:
    """Row s of the lower-triangular A, A[s, :s], shaped for ``_combine``."""
    return [A[s, :s, None, None] for s in range(len(A))]


def _rms(x: np.ndarray) -> np.ndarray:
    """Root mean square of each row."""
    return np.sqrt(np.add.reduce(x * x, axis=1)) / x.shape[1] ** 0.5


def _first_min(a, b):
    """Python's min(a, b) elementwise: b only where b < a (NaN loses)."""
    return np.where(b < a, b, a)


def _first_max(a, b):
    """Python's max(a, b) elementwise: b only where b > a (NaN loses)."""
    return np.where(b > a, b, a)


def _pow_each(x: np.ndarray, e: float, scale: float = 1.0) -> np.ndarray:
    """scale * x ** e for each element, the power through libm's pow, NaN
    where it is not defined: numpy's vectorised power may round
    differently from lane to lane."""
    return np.array([scale * v ** e if v > 0.0 or (v == 0.0 and e > 0.0)
                     else math.nan for v in x.tolist()])


class _DOP853:
    """Dormand-Prince 8(5,3) with its seventh-order interpolant (Hairer's
    DOP853; coefficients as published with the Fortran code)."""

    n_stages = 12
    n_k = 16                 # stages, new derivative, three dense stages
    error_exponent = -1 / 8
    C = np.array([
        0.0, 0.526001519587677318785587544488e-01,
        0.789002279381515978178381316732e-01,
        0.118350341907227396726757197510, 0.281649658092772603273242802490,
        0.333333333333333333333333333333, 0.25,
        0.307692307692307692307692307692, 0.651282051282051282051282051282,
        0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
        0.777777777777777777777777777778])
    A = np.zeros((16, 16))
    A[1, :1] = [5.26001519587677318785587544488e-2]
    A[2, :2] = [1.97250569845378994544595329183e-2,
                5.91751709536136983633785987549e-2]
    A[3, :3] = [2.95875854768068491816892993775e-2, 0.0,
                8.87627564304205475450678981324e-2]
    A[4, :4] = [2.41365134159266685502369798665e-1, 0.0,
                -8.84549479328286085344864962717e-1,
                9.24834003261792003115737966543e-1]
    A[5, :5] = [3.7037037037037037037037037037e-2, 0.0, 0.0,
                1.70828608729473871279604482173e-1,
                1.25467687566822425016691814123e-1]
    A[6, :6] = [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
                6.02165389804559606850219397283e-2, -1.7578125e-2]
    A[7, :7] = [3.70920001185047927108779319836e-2, 0.0, 0.0,
                1.70383925712239993810214054705e-1,
                1.07262030446373284651809199168e-1,
                -1.53194377486244017527936158236e-2,
                8.27378916381402288758473766002e-3]
    A[8, :8] = [6.24110958716075717114429577812e-1, 0.0, 0.0,
                -3.36089262944694129406857109825,
                -8.68219346841726006818189891453e-1,
                2.75920996994467083049415600797e1,
                2.01540675504778934086186788979e1,
                -4.34898841810699588477366255144e1]
    A[9, :9] = [4.77662536438264365890433908527e-1, 0.0, 0.0,
                -2.48811461997166764192642586468,
                -5.90290826836842996371446475743e-1,
                2.12300514481811942347288949897e1,
                1.52792336328824235832596922938e1,
                -3.32882109689848629194453265587e1,
                -2.03312017085086261358222928593e-2]
    A[10, :10] = [-9.3714243008598732571704021658e-1, 0.0, 0.0,
                  5.18637242884406370830023853209,
                  1.09143734899672957818500254654,
                  -8.14978701074692612513997267357,
                  -1.85200656599969598641566180701e1,
                  2.27394870993505042818970056734e1,
                  2.49360555267965238987089396762,
                  -3.0467644718982195003823669022]
    A[11, :11] = [2.27331014751653820792359768449, 0.0, 0.0,
                  -1.05344954667372501984066689879e1,
                  -2.00087205822486249909675718444,
                  -1.79589318631187989172765950534e1,
                  2.79488845294199600508499808837e1,
                  -2.85899827713502369474065508674,
                  -8.87285693353062954433549289258,
                  1.23605671757943030647266201528e1,
                  6.43392746015763530355970484046e-1]
    A[12, :12] = [5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
                  4.45031289275240888144113950566,
                  1.89151789931450038304281599044,
                  -5.8012039600105847814672114227,
                  3.1116436695781989440891606237e-1,
                  -1.52160949662516078556178806805e-1,
                  2.01365400804030348374776537501e-1,
                  4.47106157277725905176885569043e-2]
    A[13, :13] = [5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0,
                  0.0, 2.53500210216624811088794765333e-1,
                  -2.46239037470802489917441475441e-1,
                  -1.24191423263816360469010140626e-1,
                  1.5329179827876569731206322685e-1,
                  8.20105229563468988491666602057e-3,
                  7.56789766054569976138603589584e-3, -8.298e-3]
    A[14, :14] = [3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
                  2.83009096723667755288322961402e-2,
                  5.35419883074385676223797384372e-2,
                  -5.49237485713909884646569340306e-2, 0.0, 0.0,
                  -1.08347328697249322858509316994e-4,
                  3.82571090835658412954920192323e-4,
                  -3.40465008687404560802977114492e-4,
                  1.41312443674632500278074618366e-1]
    A[15, :15] = [-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
                  -4.69762141536116384314449447206,
                  7.68342119606259904184240953878,
                  4.06898981839711007970213554331,
                  3.56727187455281109270669543021e-1, 0.0, 0.0, 0.0,
                  -1.39902416515901462129418009734e-3,
                  2.9475147891527723389556272149,
                  -9.15095847217987001081870187138]
    B = A[12, :12]
    E3 = np.append(B, 0.0)
    E3[0] -= 0.244094488188976377952755905512
    E3[8] -= 0.733846688281611857341361741547
    E3[11] -= 0.220588235294117647058823529412e-1
    E5 = np.zeros(13)
    E5[0] = 0.1312004499419488073250102996e-1
    E5[5:12] = [-0.1225156446376204440720569753e+1,
                -0.4957589496572501915214079952,
                0.1664377182454986536961530415e+1,
                -0.3503288487499736816886487290,
                0.3341791187130174790297318841,
                0.8192320648511571246570742613e-1,
                -0.2235530786388629525884427845e-1]
    D = np.zeros((4, 16))
    D[0, 0] = -0.84289382761090128651353491142e+1
    D[0, 5:] = [0.56671495351937776962531783590,
                -0.30689499459498916912797304727e+1,
                0.23846676565120698287728149680e+1,
                0.21170345824450282767155149946e+1,
                -0.87139158377797299206789907490,
                0.22404374302607882758541771650e+1,
                0.63157877876946881815570249290,
                -0.88990336451333310820698117400e-1,
                0.18148505520854727256656404962e+2,
                -0.91946323924783554000451984436e+1,
                -0.44360363875948939664310572000e+1]
    D[1, 0] = 0.10427508642579134603413151009e+2
    D[1, 5:] = [0.24228349177525818288430175319e+3,
                0.16520045171727028198505394887e+3,
                -0.37454675472269020279518312152e+3,
                -0.22113666853125306036270938578e+2,
                0.77334326684722638389603898808e+1,
                -0.30674084731089398182061213626e+2,
                -0.93321305264302278729567221706e+1,
                0.15697238121770843886131091075e+2,
                -0.31139403219565177677282850411e+2,
                -0.93529243588444783865713862664e+1,
                0.35816841486394083752465898540e+2]
    D[2, 0] = 0.19985053242002433820987653617e+2
    D[2, 5:] = [-0.38703730874935176555105901742e+3,
                -0.18917813819516756882830838328e+3,
                0.52780815920542364900561016686e+3,
                -0.11573902539959630126141871134e+2,
                0.68812326946963000169666922661e+1,
                -0.10006050966910838403183860980e+1,
                0.77771377980534432092869265740,
                -0.27782057523535084065932004339e+1,
                -0.60196695231264120758267380846e+2,
                0.84320405506677161018159903784e+2,
                0.11992291136182789328035130030e+2]
    D[3, 0] = -0.25693933462703749003312586129e+2
    D[3, 5:] = [-0.15418974869023643374053993627e+3,
                -0.23152937917604549567536039109e+3,
                0.35763911791061412378285349910e+3,
                0.93405324183624310003907691704e+2,
                -0.37458323136451633156875139351e+2,
                0.10409964950896230045147246184e+3,
                0.29840293426660503123344363579e+2,
                -0.43533456590011143754432175058e+2,
                0.96324553959188282948394950600e+2,
                -0.39177261675615439165231486172e+2,
                -0.14972683625798562581422125276e+3]
    _A, _B = _stage_rows(A), B[:, None, None]
    _E3, _E5, _D = E3[:, None, None], E5[:, None, None], list(D[:, :, None, None])

    @classmethod
    def error_norm(cls, K, h, scale):
        """The blend of the fifth- and third-order estimates (II.10), in
        place on its temporaries."""
        err5 = _combine(cls._E5, K)
        err5 /= scale
        err3 = _combine(cls._E3, K)
        err3 /= scale
        n5 = np.add.reduce(np.multiply(err5, err5, out=err5), axis=1)
        n3 = np.add.reduce(np.multiply(err3, err3, out=err3), axis=1)
        np.sqrt(n5, out=n5)
        np.sqrt(n3, out=n3)
        n5 *= n5
        n3 *= n3
        norm = np.abs(h) * n5 / np.sqrt((n5 + 0.01 * n3) * scale.shape[1])
        zero = n5 == 0.0
        if np.count_nonzero(zero):
            norm[zero & (n3 == 0.0)] = 0.0
        return norm

    @classmethod
    def dense(cls, fun, K, t_old, h, y_old, y_new):
        """Interpolant coefficients (7, rows, n); the three extra stages
        cost one RHS call each."""
        hc = h[:, None]
        for s in range(cls.n_stages + 1, cls.n_k):
            dy = _combine(cls._A[s], K) * hc
            K[s] = fun(t_old + cls.C[s] * h, y_old + dy)
        delta = y_new - y_old
        F = np.empty((7,) + y_old.shape)
        F[0] = delta
        F[1] = hc * K[0] - delta
        F[2] = 2 * delta - hc * (K[cls.n_stages] + K[0])
        for i in range(4):
            F[3 + i] = hc * _combine(cls._D[i], K)
        return F

    @staticmethod
    def interp(F, x, y_old):
        """The state at the step fraction x from the coefficients F (7, ...,
        n): one row's (7, n) with a float x, or r rows' (7, r, n) with x of
        shape (r, 1)."""
        rest = 1 - x
        y = F[-1] * x
        for i, f in enumerate(F[-2::-1], start=1):
            y += f
            y *= rest if i % 2 else x
        y += y_old
        return y


def _rk_step(fun, t, y, f, h, K):
    """One trial step of every row, into the stage buffer K (n_k, rows, n):
    the stages, the derivative at the new point in K[n_stages], and the new
    state."""
    K[0] = f
    hc = h[:, None]
    ts = t + _DOP853.C[:_DOP853.n_stages, None] * h
    for s in range(1, _DOP853.n_stages):
        dy = _combine(_DOP853._A[s], K) * hc
        K[s] = fun(ts[s], y + dy)
    y_new = y + hc * _combine(_DOP853._B, K)
    K[_DOP853.n_stages] = fun(t + h, y_new)
    return K, y_new


def _initial_step(fun, t0, y0, f0, t_bound, direction, rtol, atol):
    """|h| of each row's first trial step (Hairer, Norsett & Wanner II.4)."""
    length = np.abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = _first_min(h0, length)
    f1 = np.asarray(fun(t0 + h0 * direction,
                        y0 + (h0 * direction)[:, None] * f0), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                  _first_max(1e-6, h0 * 1e-3),
                  _pow_each(0.01 / _first_max(d1, d2),
                            -_DOP853.error_exponent))
    return _first_min(_first_min(100 * h0, h1), length)


def _brentq(g, a: float, b: float) -> float:
    """A zero of g between a and b by Brent's method, as scipy's brentq with
    xtol = rtol = 4 eps. Without a sign change it returns b: the crossing
    was seen at the end of the step."""
    xpre, xcur = a, b
    fpre, fcur = g(xpre), g(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0 or not opposite(fpre, fcur):
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and opposite(fpre, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_EVENT_TOL + _EVENT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = g(xcur)
    return xcur


class DenseTrajectory:
    """The continuous solution of one row, running in the direction sign
    (+1 or -1): the interpolants of its kept steps. Called with a parameter
    value, it returns the state there (n,); called with an array of m
    values, the states (m, n), each equal to its one-point call. A value is
    read from the kept step that holds it, at a step boundary the one that
    ends there. A row that kept no step is constant."""

    def __init__(self, t_old, h, y_old, coefs, t_end, y_end, sign):
        self._t_old, self._h = np.asarray(t_old), np.asarray(h)
        self._y_old, self._coefs, self._y_end = y_old, coefs, y_end
        self._sign = sign
        self._keys = sign * np.append(self._t_old, t_end)

    def __call__(self, t) -> np.ndarray:
        ts = np.asarray(t, dtype=float)
        if not len(self._h):
            return np.tile(self._y_end, ts.shape + (1,))
        at = ts.reshape(-1)
        i = np.clip(self._keys.searchsorted(self._sign * at) - 1,
                    0, len(self._h) - 1)
        y = _DOP853.interp(np.moveaxis(self._coefs[i], 0, 1),
                           ((at - self._t_old[i]) / self._h[i])[:, None],
                           self._y_old[i])
        return y[0] if ts.ndim == 0 else y.reshape(ts.shape + y.shape[1:])


@dataclass(frozen=True)
class OdeBatch:
    """What ``solve_ivp`` returns: per row, where and why it stopped.

    stop[i] is completed (the row reached the end of its span), event (a
    terminal event fired; event[i] is its index, t[i] the located zero),
    step-size-collapse (a rejected step fell below 10 ulps of t) or
    non-finite-rhs (the same, after a trial step whose error estimate was
    not finite: the RHS could not be evaluated ahead of the row).
    """

    t: np.ndarray                      # (B,) parameter where each row stopped
    y: np.ndarray                      # (B, n) state there
    stop: tuple[str, ...]
    event: np.ndarray                  # (B,) terminal event index or -1
    nfev: np.ndarray                   # (B,) RHS evaluations of each row
    nsteps: np.ndarray                 # (B,) accepted steps of each row
    t_eval: tuple[np.ndarray, ...]     # per row with t_eval, points reached
    y_eval: tuple[np.ndarray, ...]     # per row, the states there (k, n)
    sol: tuple[DenseTrajectory, ...]   # per row, with dense_output


def solve_ivp(fun, t_span, y0, *, rtol: float = 1e-3, atol: float = 1e-6,
              t_eval=None, events=None,
              dense_output: bool = False) -> OdeBatch:
    """Integrate the rows of y0 (B, n) through y' = fun(t, y), row i over
    t_span[i] (t_span is (B, 2), or one (start, end) pair for every row;
    an end below the start integrates backwards).

    fun(t, Y) receives the times (k,) and states (k, n) of any k rows and
    returns their derivatives (k, n); each row of the result may depend
    only on the same row of the input. Every row runs DOP853.
    t_eval, (m,) or (B, m), lists points ordered in each row's direction
    from its start: a row reports those it reached, with the bytes its
    DenseTrajectory gives there, read from the steps that hold a point (at
    most two per point). events are callables event(t, Y) -> (k,) with a
    true ``terminal`` attribute, each positive wherever a row may run: a
    running row stops at the first accepted step where some event is <= 0,
    at the earliest stop of those events: an event's first zero inside the
    step, or the step's start where the event is 0 there, or the step's
    end where it is negative at both ends. dense_output keeps every step
    and returns each row's DenseTrajectory as sol.
    """
    events = list(events or ())
    if not all(getattr(ev, "terminal", False) for ev in events):
        raise ValueError("every event must be terminal")
    y0 = np.array(y0, dtype=float)
    if y0.ndim != 2:
        raise ValueError("y0 must have shape (rows, n)")
    if not np.isfinite(y0).all():
        raise ValueError("every initial state must be finite")
    span = np.broadcast_to(np.asarray(t_span, dtype=float), (len(y0), 2))
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        t_eval = np.broadcast_to(t_eval, (len(y0), t_eval.shape[-1]))
    with np.errstate(all="ignore"):
        return _Lockstep(fun, span, y0, rtol, atol, t_eval, events,
                         dense_output).run()


class _Lockstep:
    """State of one solve_ivp call: outputs for every row, and the working
    arrays of the rows still running (compacted as rows stop).

    One iteration (``_iterate``) costs 12 RHS calls on the running rows and
    a fixed number of numpy calls on arrays of that many rows, whatever
    their count. Event values, and the test for <= 0 on them, run on the
    rows that accepted their step; the interpolant is built only for
    accepted rows where an event is <= 0 or whose step is kept: every step
    for dense output, and the steps that hold a t_eval point, from which
    ``run`` reads the points at the end. The stage buffer is allocated
    once per solve and sliced to the running rows.
    """

    _WORKING = ("idx", "t", "tb", "sgn", "far", "y", "f", "h_abs", "retry",
                "err", "te", "nfev", "nsteps")

    def __init__(self, fun, span, y0, rtol, atol, t_eval, events,
                 dense_output):
        rows = len(y0)
        self.fun = fun
        self.rtol, self.atol = rtol, atol
        self.events = events
        self.dense_output = dense_output
        self.K = np.empty((_DOP853.n_k,) + y0.shape)
        # outputs
        self.t_out, self.y_out = span[:, 0].copy(), y0.copy()
        self.sign = np.where(span[:, 1] >= span[:, 0], 1.0, -1.0)
        self.t_eval = t_eval
        self.stop = ["completed"] * rows
        self.hit = np.full(rows, -1)
        self.nfev_out = np.zeros(rows, dtype=int)
        self.nsteps_out = np.zeros(rows, dtype=int)
        self.segments = [[] for _ in range(rows)]   # the kept steps
        # working arrays of the running rows
        self.idx = np.arange(rows)
        self.t, self.tb = span[:, 0].copy(), span[:, 1].copy()
        self.sgn = self.sign
        self.far = self.sgn * np.inf
        self.y = y0.copy()
        # the t_eval points times the row's sign, increasing along the row
        self.te = None if t_eval is None else self.sign[:, None] * t_eval
        self.nfev = np.zeros(rows, dtype=int)
        self.nsteps = np.zeros(rows, dtype=int)
        self.f = self.h_abs = self.retry = self.err = None

    def _keep(self, keep: np.ndarray) -> None:
        for name in self._WORKING:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[keep])

    def _finish(self, mask: np.ndarray, stops) -> None:
        """Record the rows in mask as stopped and drop them."""
        rows = self.idx[mask]
        self.t_out[rows] = self.t[mask]
        self.y_out[rows] = self.y[mask]
        self.nfev_out[rows] = self.nfev[mask]
        self.nsteps_out[rows] = self.nsteps[mask]
        for row, why in zip(rows.tolist(), stops):
            self.stop[row] = why
        self._keep(~mask)

    def run(self) -> OdeBatch:
        zero = self.t == self.tb
        if np.count_nonzero(zero):
            self._finish(zero, ["completed"] * int(zero.sum()))
        if len(self.idx):
            self.f = np.array(self.fun(self.t, self.y), dtype=float)
            self.h_abs = _initial_step(self.fun, self.t, self.y, self.f,
                                       self.tb, self.sgn, self.rtol, self.atol)
            self.nfev += 2
            self.retry = np.zeros(len(self.idx), dtype=bool)
            self.err = np.zeros(len(self.idx))
        while len(self.idx):
            self._iterate()
        sol = ts = ys = ()
        if self.dense_output or self.t_eval is not None:
            sol = tuple(map(self._dense, range(len(self.segments))))
        if self.t_eval is not None:
            reached = self.sign[:, None] * (
                self.t_eval - self.t_out[:, None]) <= 0.0
            ts = tuple(te[r] for te, r in zip(self.t_eval, reached))
            ys = tuple(trajectory(t) for trajectory, t in zip(sol, ts))
        return OdeBatch(self.t_out, self.y_out, tuple(self.stop), self.hit,
                        self.nfev_out, self.nsteps_out, ts, ys,
                        sol if self.dense_output else ())

    def _event_values(self, t, y) -> np.ndarray:
        g = np.empty((len(t), len(self.events)))
        for e, event in enumerate(self.events):
            g[:, e] = event(t, y)
        return g

    def _dense(self, row) -> DenseTrajectory:
        segs = self.segments[row]
        t_old, h, y_old, coefs = zip(*segs) if segs else ((), (), (), ())
        return DenseTrajectory(t_old, h, np.array(y_old), np.array(coefs),
                               self.t_out[row], self.y_out[row],
                               self.sign[row])

    def _iterate(self) -> None:
        """One lockstep iteration: every running row tries one step."""
        t, sgn, retry = self.t, self.sgn, self.retry
        min_step = 10 * np.abs(np.nextafter(t, self.far) - t)
        # a fresh step is at least min_step long; a retry after a rejection
        # keeps its shrunk size and fails below min_step (or when the size
        # is NaN, where scipy's loop would never end)
        h_abs = np.maximum(self.h_abs, min_step)
        retrying = np.count_nonzero(retry)
        if retrying:
            h_abs = np.where(retry, self.h_abs, h_abs)
            collapsed = retry & ~(h_abs >= min_step)
            if np.count_nonzero(collapsed):
                self._finish(collapsed, np.where(
                    np.isfinite(self.err[collapsed]), "step-size-collapse",
                    "non-finite-rhs").tolist())
                return
        t_new = t + h_abs * sgn
        past = sgn * (t_new - self.tb) > 0
        if np.count_nonzero(past):
            t_new = np.where(past, self.tb, t_new)
        h = t_new - t
        K, y_new = _rk_step(self.fun, t, self.y, self.f, h,
                            self.K[:, :len(t)])
        self.nfev += _DOP853.n_stages
        scale = np.maximum(np.abs(self.y), np.abs(y_new))
        scale *= self.rtol
        scale += self.atol
        err = _DOP853.error_norm(K, h, scale)
        ok = err < 1
        accepted = np.count_nonzero(ok)
        # Python's min and max let a NaN lose: the power is NaN where err is
        # 0 (the step grows by the largest factor) or not a number
        power = _pow_each(err, _DOP853.error_exponent, _SAFETY)
        factor = np.fmin(_MAX_FACTOR, power)
        if retrying:                    # no growth right after a rejection
            factor = np.where(retry, np.fmin(1.0, factor), factor)
        if accepted < len(ok):
            factor = np.where(ok, factor, np.fmax(_MIN_FACTOR, power))
        self.h_abs = np.abs(h)
        self.h_abs *= factor
        self.err = err
        self.retry = ~ok
        if not accepted:
            return
        f_new = K[_DOP853.n_stages]
        stopped = ok & (t_new == self.tb)
        if accepted == len(ok):
            acc = slice(None)
            t_old, y_old = t, self.y
            self.t, self.y = t_new, y_new
            self.f[...] = f_new     # a view of the buffer the next step fills
        else:
            acc = np.flatnonzero(ok)
            t_old, y_old = t[acc], self.y[acc]
            self.t, self.y = t.copy(), self.y.copy()
            self.t[acc], self.y[acc], self.f[acc] = (t_new[acc], y_new[acc],
                                                     f_new[acc])
        self.nsteps += ok
        ta, ya = self.t[acc], self.y[acc]

        # the steps kept: every one for dense output, else those where a
        # t_eval point lies in [t_old, t_new]; they and the rows where an
        # event is <= 0 need the step's interpolant
        keep = np.full(len(ta), self.dense_output)
        if self.te is not None:
            te, lo, hi = self.te[acc], sgn[acc] * t_old, sgn[acc] * ta
            keep |= np.logical_or.reduce(
                (te >= lo[:, None]) & (te <= hi[:, None]), axis=1)
        need = keep
        fired = None
        if self.events:
            fired = self._event_values(ta, ya) <= 0.0
            if np.count_nonzero(fired):
                need = keep | fired.any(axis=1)
        if not np.count_nonzero(need):
            if np.count_nonzero(stopped):
                self._finish(stopped, ["completed"] * int(stopped.sum()))
            return
        q = np.flatnonzero(need)
        rows = np.arange(len(ok))[acc][q]
        t_old, h, y_old = t_old[q], h[rows], y_old[q]
        coefs = _DOP853.dense(self.fun, K[:, rows], t_old, h, y_old, ya[q])
        self.nfev[rows] += _DOP853.n_k - _DOP853.n_stages - 1
        stops = ["completed"] * len(ok)
        if fired is not None:
            for j in np.flatnonzero(fired[q].any(axis=1)).tolist():
                p = int(rows[j])
                self._locate(p, fired[q[j]], coefs[:, j], t_old[j], h[j],
                             y_old[j])
                stops[p], stopped[p] = "event", True
        for j in np.flatnonzero(keep[q]).tolist():
            self.segments[self.idx[rows[j]]].append(
                (t_old[j], h[j], y_old[j], coefs[:, j]))
        if np.count_nonzero(stopped):
            self._finish(stopped, [s for s, m in zip(stops, stopped) if m])

    def _locate(self, p, fired, coefs, t_old, h, y_old) -> None:
        """Move running row p back to the first zero of the events that are
        <= 0 at the end of its last step."""
        def state(s):
            return _DOP853.interp(coefs, float((s - t_old) / h), y_old)

        best = None
        for e in np.flatnonzero(fired).tolist():
            event = self.events[e]
            root = _brentq(
                lambda s: float(event(np.array([s]), state(s)[None, :])[0]),
                t_old, float(self.t[p]))
            if best is None or self.sgn[p] * (root - best[1]) < 0:
                best = (e, root)
        e, root = best
        self.t[p] = root
        self.y[p] = state(root)
        self.hit[self.idx[p]] = e
