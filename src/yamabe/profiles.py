"""Profiles: scalar functions of the invariance variable with two derivatives.

A profile is an open domain and a numpy form that evaluates value, d1 and d2
on an array of points at once (``Profile.jet``); its scalar ``value``,
``d1`` and ``d2`` are that form at one point. The expression constructor
differentiates symbolically and compiles a form; every family closure is
given by its own; shifted, scaled and summed profiles compose their
parents' forms; and the form of a ``from_callable`` profile runs its scalars
point by point. The callable constructor falls back to central differences
when derivatives are not supplied, which is why numeric-callback specs
certify against a looser default tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expressions
from .errors import DomainError, EvaluationError, PositivityError
from .numerics import central_d1, central_d2

__all__ = ["Interval", "Profile", "grid_points", "leading_jets",
           "masked_jet", "DEFAULT_GRID_MARGIN"]

DEFAULT_GRID_MARGIN = 0.01  # fraction of interval length clipped at each end


@dataclass(frozen=True)
class Interval:
    """Open interval; endpoints may be +-inf."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError(f"empty interval ({self.lo!r}, {self.hi!r})")

    def contains(self, xi: float) -> bool:
        return self.lo < xi < self.hi

    @property
    def finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def clipped(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def as_tuple(self) -> tuple[float, float]:
        return (self.lo, self.hi)


def grid_points(interval: Interval, count: int) -> list[float]:
    """Uniform grid on the margin-clipped interval; needs finite endpoints."""
    if not interval.finite:
        raise DomainError(
            "grid evaluation needs a finite interval; pass an explicit one "
            f"for {interval.as_tuple()!r}")
    a, b = interval.lo, interval.hi
    pad = DEFAULT_GRID_MARGIN * (b - a)
    a, b = a + pad, b - pad
    if count < 2:
        return [0.5 * (a + b)]
    step = (b - a) / (count - 1)
    return [a + i * step for i in range(count)]


class Profile:
    """One scalar profile: its declared open domain and its numpy form
    arrays(xs, value, d2): (value or None, d1, d2 or None) over the float
    array xs of in-domain points, run with numpy's floating-point errors
    ignored."""

    def __init__(self, arrays: Callable,
                 domain: Interval | tuple[float, float] = (-math.inf, math.inf),
                 *, source: Optional[str] = None,
                 analytic_derivatives: bool = True):
        if not isinstance(domain, Interval):
            domain = Interval(*domain)
        self.domain = domain
        self.source = source
        self._arrays = arrays
        self.analytic_derivatives = analytic_derivatives

    def _at(self, xi: float, k: int) -> float:
        """Entry k of the jet at the one point xi: DomainError outside the
        domain, EvaluationError where the entry is not finite, and the
        form's own exception where it raises."""
        if not self.domain.contains(xi):
            raise DomainError(
                f"xi={xi!r} outside declared domain {self.domain.as_tuple()!r}")
        got = _entry_at(self._arrays, xi, k)
        if not math.isfinite(got):
            raise EvaluationError(
                f"non-finite {('value', 'd1', 'd2')[k]} at xi={xi!r}")
        return got

    def value(self, xi: float) -> float:
        return self._at(xi, 0)

    def d1(self, xi: float) -> float:
        return self._at(xi, 1)

    def d2(self, xi: float) -> float:
        return self._at(xi, 2)

    __call__ = value

    def jet(self, xs, value: bool = True, d2: bool = True):
        """(value, d1, d2) as arrays over the 1-D points xs; value is None
        unless asked for, and so is d2.

        The numpy form evaluates the whole array in one call; expression
        profiles and those built on numpy (the families, the wrappers)
        return non-finite entries where they cannot be evaluated, and a
        ``from_callable`` profile runs its scalars point by point, in order,
        raising at the first failure. A form that raises propagates the
        exception of the shortest prefix of xs on which it raises. A point
        outside the domain raises DomainError naming the first one.
        """
        jet, error = self._leading_jet(np.asarray(xs, dtype=float), value, d2)
        if error is not None:
            raise error
        return jet

    def _leading_jet(self, xs: np.ndarray, value: bool, d2: bool = True):
        """The jet over the longest prefix of xs on which nothing raises,
        and the exception raised by the prefix one point longer (None if
        none). Without d2 the last entry of the jet is None."""
        error = None
        inside = (self.domain.lo < xs) & (xs < self.domain.hi)
        if np.count_nonzero(inside) < len(xs):
            k = int(np.argmin(inside))
            error = DomainError(f"xi={float(xs[k])!r} outside declared "
                                f"domain {self.domain.as_tuple()!r}")
            xs = xs[:k]
        with np.errstate(all="ignore"):
            try:
                return self._arrays(xs, value, d2), error
            except Exception as exc:
                return _longest_prefix(
                    lambda k: self._arrays(xs[:k], value, d2), len(xs), exc)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_expression(cls, text: str,
                        domain: Interval | tuple[float, float] = (-math.inf, math.inf)
                        ) -> "Profile":
        ast = expressions.parse_expression(text)
        d1_ast = expressions.differentiate(ast)
        d2_ast = expressions.differentiate(d1_ast)
        return cls(_expression_arrays(ast, d1_ast, d2_ast), domain,
                   source=text)

    @classmethod
    def from_callable(cls, value: Callable[[float], float],
                      domain: Interval | tuple[float, float],
                      d1: Optional[Callable[[float], float]] = None,
                      d2: Optional[Callable[[float], float]] = None) -> "Profile":
        """A profile given by scalar callables; a missing derivative comes
        from central differences of value, and the profile is then marked
        numeric. Its numpy form runs the scalars point by point, so a
        one-point ``value`` runs the d1 callable as well."""
        analytic = d1 is not None and d2 is not None
        if d1 is None:
            d1 = lambda xi: central_d1(value, xi)
        if d2 is None:
            d2 = lambda xi: central_d2(value, xi)
        return cls(_pointwise(value, d1, d2), domain,
                   analytic_derivatives=analytic)

    @classmethod
    def constant(cls, c: float,
                 domain: Interval | tuple[float, float] = (-math.inf, math.inf)
                 ) -> "Profile":
        arrays = lambda xs, value, d2: (
            np.full(xs.shape, float(c)) if value else None,
            np.zeros(xs.shape), np.zeros(xs.shape) if d2 else None)
        return cls(arrays, domain, source=repr(float(c)))

    # -- wrappers (used by invariance checks and families) ----------------

    def shifted(self, c: float) -> "Profile":
        """Profile + c; derivatives are the parent's arrays, so residuals
        that depend only on derivatives are bitwise unchanged."""
        arrays = self._arrays

        def shifted_arrays(xs, value, d2):
            v, e1, e2 = arrays(xs, value, d2)
            return (v + c if value else None, e1, e2)

        return Profile(shifted_arrays, self.domain,
                       analytic_derivatives=self.analytic_derivatives)

    def scaled(self, c: float) -> "Profile":
        arrays = self._arrays

        def scaled_arrays(xs, value, d2):
            v, e1, e2 = arrays(xs, value, d2)
            return (c * v if value else None, c * e1, c * e2 if d2 else None)

        return Profile(scaled_arrays, self.domain,
                       analytic_derivatives=self.analytic_derivatives)

    def plus(self, other: "Profile") -> "Profile":
        mine, theirs = self._arrays, other._arrays

        def sum_arrays(xs, value, d2):
            (v, a1, a2), (w, b1, b2) = (mine(xs, value, d2),
                                        theirs(xs, value, d2))
            return (v + w if value else None, a1 + b1,
                    a2 + b2 if d2 else None)

        return Profile(sum_arrays, self.domain.clipped(other.domain),
                       analytic_derivatives=(self.analytic_derivatives
                                             and other.analytic_derivatives))

    def require_positive(self, interval: Interval,
                         name: str = "profile") -> None:
        """Positivity check at 64 points of the margin-clipped interval,
        through the numpy form. The first point that fails raises
        PositivityError, or EvaluationError where the value is not
        finite; a point the form raises at raises that."""
        pts = grid_points(interval, 64)
        (values, _, _), error = self._leading_jet(np.array(pts), True, False)
        for xi, v in zip(pts, values.tolist()):
            if not v > 0.0:
                if not math.isfinite(v):
                    raise EvaluationError(f"non-finite {name} at xi={xi!r}")
                raise PositivityError(f"{name} must stay positive; "
                                      f"{name}({xi!r}) = {v!r}")
        if error is not None:
            raise error

    def __repr__(self) -> str:
        src = f" source={self.source!r}" if self.source else ""
        return (f"Profile(domain={self.domain.as_tuple()!r},"
                f" analytic={self.analytic_derivatives}{src})")


@np.errstate(all="ignore")
def _entry_at(arrays, xi: float, k: int) -> float:
    """Entry k of the numpy form on the one-element array [xi]."""
    return float(arrays(np.array([xi], dtype=float), k == 0, k == 2)[k][0])


def _longest_prefix(numpy_form, n: int, error: Exception):
    """(numpy_form(k), the exception numpy_form(k + 1) raises) for the
    largest k < n at which numpy_form, a function of a prefix length that
    raises ``error`` at n, does not raise, found by bisection on k: a point
    that makes it raise makes every longer prefix raise."""
    good, bad, got = 0, n, numpy_form(0)
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            got, good = numpy_form(mid), mid
        except Exception as exc:
            bad, error = mid, exc
    return got, error


def leading_jets(xs, wanted):
    """Jets of several profiles, given as (profile, value) pairs, over the
    longest prefix xs[:stop] on which none of them raises. Returns the jets,
    stop, and the exception raised at xs[stop] by the first profile that
    raises there (None when all of xs evaluates)."""
    xs = np.asarray(xs, dtype=float)
    jets, stop, error = [], len(xs), None
    for profile, value in wanted:
        jet, err = profile._leading_jet(xs[:stop], value)
        if err is not None:
            stop, error = len(jet[-1]), err
        jets.append(jet)
    return ([tuple(a if a is None else a[:stop] for a in jet) for jet in jets],
            stop, error)


def masked_jet(profile: Profile, xs: np.ndarray, errors):
    """Value and first derivative over xs, as ``profile.jet`` gives them,
    with NaN in both at every point where the profile raises one of
    ``errors``; the points after such a point are still evaluated. Any
    other exception propagates."""
    (value, d1, _), error = profile._leading_jet(xs, True, d2=False)
    if error is None:
        return value, d1
    out = np.full((2, len(xs)), np.nan)
    start = 0
    while error is not None:
        if not isinstance(error, errors):
            raise error
        stop = start + len(d1)
        out[:, start:stop] = value, d1
        start = stop + 1
        (value, d1, _), error = profile._leading_jet(xs[start:], True,
                                                     d2=False)
    out[:, start:] = value, d1
    return out[0], out[1]


def _expression_arrays(*nodes):
    """Numpy form of an expression profile from the ASTs of its value, d1 and
    d2. Each is compiled on first use, so building a profile compiles
    nothing."""
    compiled = [None] * len(nodes)

    def arrays(xs, value, d2):
        out = []
        for k, node in enumerate(nodes):
            if (k == 0 and not value) or (k == 2 and not d2):
                out.append(None)
                continue
            if compiled[k] is None:
                compiled[k] = expressions.compile_array_raw(node)
            out.append(compiled[k](xs))
        return tuple(out)

    return arrays


def _pointwise(*fns):
    """Numpy form of scalar value, d1 and d2 callables: each point in turn,
    in order, calling value only when asked; the first exception
    propagates."""
    def arrays(xs, value, d2):
        wanted = (value, True, d2)
        rows = [fn for fn, want in zip(fns, wanted) if want]
        out = np.empty((len(rows), len(xs)))
        for i, x in enumerate(xs.tolist()):
            for row, fn in enumerate(rows):
                out[row, i] = fn(x)
        it = iter(out)
        return tuple(next(it) if want else None for want in wanted)

    return arrays
