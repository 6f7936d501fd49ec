"""Profiles: scalar functions of the invariance variable with two derivatives.

A profile carries an open domain and three callables (value, d1, d2). The
expression constructor differentiates symbolically; the callable constructor
falls back to central differences when derivatives are not supplied, which is
why numeric-callback specs certify against a looser default tolerance.

``Profile.jet`` evaluates all three on an array of points at once. Expression
and constant profiles, and shifted, scaled and summed versions of them, have
numpy forms; any other profile is run point by point.
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
           "DEFAULT_GRID_MARGIN"]

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


def grid_points(interval: Interval, count: int,
                margin: float = DEFAULT_GRID_MARGIN) -> list[float]:
    """Uniform grid on the margin-clipped interval; needs finite endpoints."""
    if not interval.finite:
        raise DomainError(
            "grid evaluation needs a finite interval; pass an explicit one "
            f"for {interval.as_tuple()!r}")
    a, b = interval.lo, interval.hi
    pad = margin * (b - a)
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

    def jet(self, xs, value: bool = True):
        """(value, d1, d2) as arrays over the 1-D points xs; value is None
        unless asked for. Entries equal the scalar ``value``/``d1``/``d2``.

        Expression and constant profiles, and shifted, scaled and summed
        ones built from them, evaluate in numpy and return non-finite entries
        where they cannot be evaluated. Any other profile runs its scalar
        callables point by point, in order, and never calls value unless
        asked; the first exception stops the loop and propagates. A point
        outside the domain raises DomainError naming the first one.
        """
        jet, error = self._leading_jet(np.asarray(xs, dtype=float), value)
        if error is not None:
            raise error
        return jet

    def _leading_jet(self, xs: np.ndarray, value: bool):
        """The jet over the longest prefix of xs on which nothing raises,
        and the exception raised at the point after it (None if none)."""
        error = None
        inside = (self.domain.lo < xs) & (xs < self.domain.hi)
        if not inside.all():
            k = int(np.argmin(inside))
            error = DomainError(f"xi={float(xs[k])!r} outside declared "
                                f"domain {self.domain.as_tuple()!r}")
            xs = xs[:k]
        if self._arrays is not None:
            return self._arrays(xs, value), error
        rows = [self._value, self._d1, self._d2] if value else [self._d1,
                                                                self._d2]
        out = np.empty((len(rows), len(xs)))
        for i, x in enumerate(xs.tolist()):
            try:
                for row, fn in enumerate(rows):
                    out[row, i] = fn(x)
            except Exception as exc:
                out, error = out[:, :i], exc
                break
        return (out[0] if value else None, out[-2], out[-1]), error

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
        out._arrays = lambda xs, value: (
            np.full(xs.shape, float(c)) if value else None,
            np.zeros(xs.shape), np.zeros(xs.shape))
        return out

    # -- wrappers (used by invariance checks and families) ----------------

    def shifted(self, c: float) -> "Profile":
        """Profile + c; derivatives are shared, so residuals that depend only
        on derivatives are bitwise unchanged."""
        arrays = self._arrays

        def shifted_arrays(xs, value):
            v, d1, d2 = arrays(xs, value)
            return (v + c if value else None, d1, d2)

        return self._derived(lambda xi: self._value(xi) + c, self._d1,
                             self._d2, self.domain, self.analytic_derivatives,
                             arrays and shifted_arrays)

    def scaled(self, c: float) -> "Profile":
        arrays = self._arrays

        def scaled_arrays(xs, value):
            v, d1, d2 = arrays(xs, value)
            return (c * v if value else None, c * d1, c * d2)

        return self._derived(lambda xi: c * self._value(xi),
                             lambda xi: c * self._d1(xi),
                             lambda xi: c * self._d2(xi),
                             self.domain, self.analytic_derivatives,
                             arrays and scaled_arrays)

    def plus(self, other: "Profile") -> "Profile":
        mine, theirs = self._arrays, other._arrays

        def sum_arrays(xs, value):
            (v, d1, d2), (w, e1, e2) = mine(xs, value), theirs(xs, value)
            return (v + w if value else None, d1 + e1, d2 + e2)

        return self._derived(lambda xi: self._value(xi) + other._value(xi),
                             lambda xi: self._d1(xi) + other._d1(xi),
                             lambda xi: self._d2(xi) + other._d2(xi),
                             self.domain.clipped(other.domain),
                             (self.analytic_derivatives
                              and other.analytic_derivatives),
                             mine and theirs and sum_arrays)

    def require_positive(self, interval: Interval, samples: int = 64,
                         name: str = "profile") -> None:
        """Sampled positivity check on the margin-clipped interval."""
        for xi in grid_points(interval, samples):
            if not self._value(xi) > 0.0:
                raise PositivityError(
                    f"{name} must stay positive; {name}({xi!r}) = "
                    f"{self._value(xi)!r}")

    def __repr__(self) -> str:
        src = f" source={self.source!r}" if self.source else ""
        return (f"Profile(domain={self.domain.as_tuple()!r},"
                f" analytic={self.analytic_derivatives}{src})")


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


def _expression_arrays(*nodes):
    """Numpy form of an expression profile from the ASTs of its value, d1 and
    d2. Each is compiled on first use, so building a profile costs what it
    did before any array evaluation existed."""
    compiled = [None] * len(nodes)

    def arrays(xs, value):
        out = []
        for k, node in enumerate(nodes):
            if k == 0 and not value:
                out.append(None)
                continue
            if compiled[k] is None:
                compiled[k] = expressions.compile_array(node)
            out.append(compiled[k](xs))
        return tuple(out)

    return arrays
