"""Profiles: scalar functions of the invariance variable with two derivatives.

A profile carries an open domain and three callables (value, d1, d2). The
expression constructor differentiates symbolically; the callable constructor
falls back to central differences when derivatives are not supplied, which is
why numeric-callback specs certify against a looser default tolerance.

``Profile.jet`` evaluates all three on an array of points at once. Expression
and constant profiles, shifted, scaled and summed versions of them, and the
profiles built by ``Profile.from_arrays`` (the Lambert family's phi, f and h
among them) have numpy forms; any other profile is run point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expressions
from .errors import DomainError, PositivityError
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
    """value/d1/d2 of one scalar profile, plus its declared open domain."""

    def __init__(self, value: Callable[[float], float],
                 d1: Optional[Callable[[float], float]] = None,
                 d2: Optional[Callable[[float], float]] = None,
                 domain: Interval | tuple[float, float] = (-math.inf, math.inf),
                 *, source: Optional[str] = None,
                 analytic_derivatives: bool = True):
        if not isinstance(domain, Interval):
            domain = Interval(*domain)
        self.domain = domain
        self.source = source
        self._value = value
        if d1 is None:
            d1 = lambda xi: central_d1(value, xi)
            analytic_derivatives = False
        if d2 is None:
            d2 = lambda xi: central_d2(value, xi)
            analytic_derivatives = False
        self._d1 = d1
        self._d2 = d2
        self.analytic_derivatives = analytic_derivatives
        # (xs, value) -> (value or None, d1, d2) on in-domain points, for the
        # profiles that have a numpy form
        self._arrays = None

    def _check(self, xi: float) -> None:
        if not self.domain.contains(xi):
            raise DomainError(
                f"xi={xi!r} outside declared domain {self.domain.as_tuple()!r}")

    def value(self, xi: float) -> float:
        self._check(xi)
        return self._value(xi)

    def d1(self, xi: float) -> float:
        self._check(xi)
        return self._d1(xi)

    def d2(self, xi: float) -> float:
        self._check(xi)
        return self._d2(xi)

    __call__ = value

    def jet(self, xs, value: bool = True, d2: bool = True):
        """(value, d1, d2) as arrays over the 1-D points xs; value is None
        unless asked for, and so is d2. Entries equal the scalar
        ``value``/``d1``/``d2``.

        Profiles with a numpy form (expression and constant profiles, the
        shifted, scaled and summed ones built from them, and those made by
        ``from_arrays``) evaluate in one call and return non-finite entries
        where they cannot be evaluated. Any other profile, or a numpy form
        that raises, runs the scalar callables point by point, in order, and
        never calls value unless asked; the first exception stops the loop
        and propagates. A point outside the domain raises DomainError naming
        the first one.
        """
        jet, error = self._leading_jet(np.asarray(xs, dtype=float), value, d2)
        if error is not None:
            raise error
        return jet

    def _leading_jet(self, xs: np.ndarray, value: bool, d2: bool = True):
        """The jet over the longest prefix of xs on which nothing raises,
        and the exception raised at the point after it (None if none).
        Without d2 the last entry of the jet is None."""
        error = None
        inside = (self.domain.lo < xs) & (xs < self.domain.hi)
        if np.count_nonzero(inside) < len(xs):
            k = int(np.argmin(inside))
            error = DomainError(f"xi={float(xs[k])!r} outside declared "
                                f"domain {self.domain.as_tuple()!r}")
            xs = xs[:k]
        wanted = (value, True, d2)
        start = 0
        if self._arrays is not None:
            with np.errstate(all="ignore"):
                try:
                    return self._arrays(xs, value, d2), error
                except Exception:
                    # a numpy form that raises covers the longest prefix on
                    # which it does not; the loop below goes on from there
                    start, head = _longest_prefix(
                        lambda k: self._arrays(xs[:k], value, d2), len(xs))
        rows = [fn for fn, want in zip((self._value, self._d1, self._d2),
                                       wanted) if want]
        out = np.empty((len(rows), len(xs)))
        if start:
            out[:, :start] = [a for a in head if a is not None]
        for i, x in enumerate(xs[start:].tolist(), start):
            try:
                for row, fn in enumerate(rows):
                    out[row, i] = fn(x)
            except Exception as exc:
                out, error = out[:, :i], exc
                break
        it = iter(out)
        return tuple(next(it) if want else None for want in wanted), error

    def _derived(self, value, d1, d2, domain, analytic_derivatives,
                 arrays) -> "Profile":
        """A profile built from this one (and maybe another); it has a numpy
        form when ``arrays`` is given, i.e. when its parents have one."""
        out = Profile(value, d1, d2, domain,
                      analytic_derivatives=analytic_derivatives)
        out._arrays = arrays
        return out

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_expression(cls, text: str,
                        domain: Interval | tuple[float, float] = (-math.inf, math.inf)
                        ) -> "Profile":
        ast = expressions.parse_expression(text)
        d1_ast = expressions.differentiate(ast)
        d2_ast = expressions.differentiate(d1_ast)
        out = cls(expressions.compile_callable(ast),
                  expressions.compile_callable(d1_ast),
                  expressions.compile_callable(d2_ast),
                  domain, source=text, analytic_derivatives=True)
        out._arrays = _expression_arrays(ast, d1_ast, d2_ast)
        return out

    @classmethod
    def from_arrays(cls, arrays: Callable,
                    domain: Interval | tuple[float, float]) -> "Profile":
        """A profile given by its numpy form alone: arrays(xs, value, d2)
        returns (value or None, d1, d2 or None) over the float array xs and
        runs under np.errstate(all="ignore"). value, d1 and d2 at a point are
        that form on a one-element array, so they equal the jet's entries
        wherever the form treats each point apart from the others."""
        def at(k):
            def scalar(xi):
                with np.errstate(all="ignore"):
                    return float(arrays(np.array([xi], dtype=float),
                                        k == 0, k == 2)[k][0])
            return scalar

        out = cls(at(0), at(1), at(2), domain, analytic_derivatives=True)
        out._arrays = arrays
        return out

    @classmethod
    def from_callable(cls, value: Callable[[float], float],
                      domain: Interval | tuple[float, float],
                      d1: Optional[Callable[[float], float]] = None,
                      d2: Optional[Callable[[float], float]] = None) -> "Profile":
        return cls(value, d1, d2, domain,
                   analytic_derivatives=(d1 is not None and d2 is not None))

    @classmethod
    def constant(cls, c: float,
                 domain: Interval | tuple[float, float] = (-math.inf, math.inf)
                 ) -> "Profile":
        zero = lambda xi: 0.0
        out = cls(lambda xi: c, zero, zero, domain,
                  source=repr(float(c)), analytic_derivatives=True)
        out._arrays = lambda xs, value, d2: (
            np.full(xs.shape, float(c)) if value else None,
            np.zeros(xs.shape), np.zeros(xs.shape) if d2 else None)
        return out

    # -- wrappers (used by invariance checks and families) ----------------

    def shifted(self, c: float) -> "Profile":
        """Profile + c; derivatives are shared, so residuals that depend only
        on derivatives are bitwise unchanged."""
        arrays = self._arrays

        def shifted_arrays(xs, value, d2):
            v, e1, e2 = arrays(xs, value, d2)
            return (v + c if value else None, e1, e2)

        return self._derived(lambda xi: self._value(xi) + c, self._d1,
                             self._d2, self.domain, self.analytic_derivatives,
                             arrays and shifted_arrays)

    def scaled(self, c: float) -> "Profile":
        arrays = self._arrays

        def scaled_arrays(xs, value, d2):
            v, e1, e2 = arrays(xs, value, d2)
            return (c * v if value else None, c * e1, c * e2 if d2 else None)

        return self._derived(lambda xi: c * self._value(xi),
                             lambda xi: c * self._d1(xi),
                             lambda xi: c * self._d2(xi),
                             self.domain, self.analytic_derivatives,
                             arrays and scaled_arrays)

    def plus(self, other: "Profile") -> "Profile":
        mine, theirs = self._arrays, other._arrays

        def sum_arrays(xs, value, d2):
            (v, a1, a2), (w, b1, b2) = (mine(xs, value, d2),
                                        theirs(xs, value, d2))
            return (v + w if value else None, a1 + b1,
                    a2 + b2 if d2 else None)

        return self._derived(lambda xi: self._value(xi) + other._value(xi),
                             lambda xi: self._d1(xi) + other._d1(xi),
                             lambda xi: self._d2(xi) + other._d2(xi),
                             self.domain.clipped(other.domain),
                             (self.analytic_derivatives
                              and other.analytic_derivatives),
                             mine and theirs and sum_arrays)

    def require_positive(self, interval: Interval,
                         name: str = "profile") -> None:
        """Positivity check at 64 points of the margin-clipped interval,
        through the numpy form where the profile has one. The first point
        that fails is evaluated again through the scalar value, so the error
        is the one a point-by-point check raises there."""
        pts = grid_points(interval, 64)
        values, error = map(self._value, pts), None
        if self._arrays is not None:
            (values, _, _), error = self._leading_jet(np.array(pts), True,
                                                      False)
        for xi, v in zip(pts, values):
            if not v > 0.0:
                raise PositivityError(f"{name} must stay positive; "
                                      f"{name}({xi!r}) = {self._value(xi)!r}")
        if error is not None:
            raise error

    def __repr__(self) -> str:
        src = f" source={self.source!r}" if self.source else ""
        return (f"Profile(domain={self.domain.as_tuple()!r},"
                f" analytic={self.analytic_derivatives}{src})")


def _longest_prefix(numpy_form, n: int):
    """(k, numpy_form(k)) for the largest k < n at which numpy_form, a
    function of a prefix length that raises at n, does not raise, found by
    bisection on k: a point that makes it raise makes every longer prefix
    raise."""
    good, bad, got = 0, n, numpy_form(0)
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            got, good = numpy_form(mid), mid
        except Exception:
            bad = mid
    return good, got


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
    d2. Each is compiled on first use, so building a profile costs what it
    did before any array evaluation existed."""
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
