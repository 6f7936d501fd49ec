"""Profiles: scalar functions of the invariance variable with two derivatives.

A profile is an open domain and a numpy form that evaluates value, d1 and d2
on an array of points at once (``Profile.jet``); its scalar ``value``,
``d1`` and ``d2`` are that form at one point. The expression constructor
differentiates symbolically and compiles a form; every family closure is
given by its own; shifted, scaled and summed profiles compose their
parents' forms.

A form reports a point where it cannot be evaluated in one way: the entries
there are not finite. ``Profile.jet`` is the one way the package reads a
profile on an array of points: NaN at a point outside the domain, one call
of the form on the rest, under the caller's floating-point context. An
exception a form raises itself always propagates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expressions
from .errors import DomainError, EvaluationError, PositivityError

__all__ = ["Interval", "Profile", "grid_points", "DEFAULT_GRID_MARGIN"]

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


def grid_points(interval: Interval, count: int) -> np.ndarray:
    """The uniform grid a + i * step, i < count, on the margin-clipped
    interval as a float array, each element the double of that scalar
    expression. Needs finite ends and an int count >= 2 (not a bool)."""
    if isinstance(count, bool) or not isinstance(count, int) or count < 2:
        raise ValueError(f"count must be an int >= 2, got {count!r}")
    if not interval.finite:
        raise DomainError(
            "grid evaluation needs a finite interval; pass an explicit one "
            f"for {interval.as_tuple()!r}")
    a, b = interval.lo, interval.hi
    pad = DEFAULT_GRID_MARGIN * (b - a)
    a, b = a + pad, b - pad
    step = (b - a) / (count - 1)
    return a + np.arange(count) * step


class Profile:
    """One scalar profile: its declared open domain and its numpy form
    arrays(xs, value, d1, d2): the jet (value, d1, d2) over the float array
    xs of in-domain points, with None for each entry whose flag is false,
    run under its reader's floating-point context. Where it cannot be
    evaluated, its entries are not finite."""

    def __init__(self, arrays: Callable,
                 domain: Interval | tuple[float, float] = (-math.inf, math.inf),
                 *, source: Optional[str] = None):
        if not isinstance(domain, Interval):
            domain = Interval(*domain)
        self.domain = domain
        self.source = source
        self._arrays = arrays

    def _at(self, xi: float, k: int) -> float:
        """Entry k of the jet at the one point xi: DomainError outside the
        domain, EvaluationError where the entry is not finite, and the
        form's own exception where it raises."""
        if not self.domain.contains(xi):
            raise DomainError(
                f"xi={xi!r} outside declared domain {self.domain.as_tuple()!r}")
        with np.errstate(all="ignore"):
            got = float(self.jet([xi], k == 0, k == 1, k == 2)[k][0])
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

    def jet(self, xs, value: bool = True, d1: bool = True, d2: bool = True):
        """(value, d1, d2) as arrays over the 1-D points xs, None for each
        entry not asked for. The numpy form runs once, on the points inside
        the domain, under the caller's floating-point context; an exception
        it raises propagates. Every asked entry is NaN at a point outside
        the domain (a NaN point included), and not finite where the profile
        cannot be evaluated.

        When every point is inside the domain this is the one call of the
        form on xs itself."""
        xs = np.asarray(xs, dtype=float)
        if len(xs) and _all_inside(self.domain, xs):
            return self._arrays(xs, value, d1, d2)
        inside = (self.domain.lo < xs) & (xs < self.domain.hi)
        out = []
        for got in self._arrays(xs[inside], value, d1, d2):
            if got is not None:
                full = np.full(len(xs), np.nan)
                full[inside] = got
                got = full
            out.append(got)
        return tuple(out)

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
    def constant(cls, c: float,
                 domain: Interval | tuple[float, float] = (-math.inf, math.inf)
                 ) -> "Profile":
        arrays = lambda xs, value, d1, d2: (
            np.full(xs.shape, float(c)) if value else None,
            np.zeros(xs.shape) if d1 else None,
            np.zeros(xs.shape) if d2 else None)
        return cls(arrays, domain, source=repr(float(c)))

    # -- wrappers (used by invariance checks and families) ----------------

    def shifted(self, c: float) -> "Profile":
        """Profile + c; derivatives are the parent's arrays, so residuals
        that depend only on derivatives are bitwise unchanged."""
        arrays = self._arrays

        def shifted_arrays(xs, value, d1, d2):
            v, e1, e2 = arrays(xs, value, d1, d2)
            return (v + c if value else None, e1, e2)

        return Profile(shifted_arrays, self.domain)

    def scaled(self, c: float) -> "Profile":
        arrays = self._arrays

        def scaled_arrays(xs, value, d1, d2):
            v, e1, e2 = arrays(xs, value, d1, d2)
            return (c * v if value else None, c * e1 if d1 else None,
                    c * e2 if d2 else None)

        return Profile(scaled_arrays, self.domain)

    def plus(self, other: "Profile") -> "Profile":
        mine, theirs = self._arrays, other._arrays

        def sum_arrays(xs, value, d1, d2):
            (v, a1, a2), (w, b1, b2) = (mine(xs, value, d1, d2),
                                        theirs(xs, value, d1, d2))
            return (v + w if value else None, a1 + b1 if d1 else None,
                    a2 + b2 if d2 else None)

        return Profile(sum_arrays, self.domain.clipped(other.domain))

    def require_positive(self, interval: Interval,
                         name: str = "profile") -> None:
        """Positivity check at 64 points of the margin-clipped interval,
        through ``jet``. The first point that fails raises PositivityError,
        or EvaluationError where the value is not finite (a point outside
        the domain included)."""
        pts = grid_points(interval, 64)
        with np.errstate(all="ignore"):
            values = self.jet(pts, True, False, False)[0]
        bad = np.flatnonzero(~(values > 0.0))
        if len(bad):
            xi, v = float(pts[bad[0]]), float(values[bad[0]])
            if not math.isfinite(v):
                raise EvaluationError(f"non-finite {name} at xi={xi!r}")
            raise PositivityError(f"{name} must stay positive; "
                                  f"{name}({xi!r}) = {v!r}")

    def __repr__(self) -> str:
        src = f" source={self.source!r}" if self.source else ""
        return f"Profile(domain={self.domain.as_tuple()!r}{src})"


def _all_inside(domain: Interval, xs: np.ndarray) -> bool:
    """Whether every point of the nonempty xs lies in the open domain; a
    NaN point does not. On the whole line a finite sum of squares proves
    every point finite (an overflow only sends xs the slow way)."""
    if domain.lo == -math.inf and domain.hi == math.inf:
        return math.isfinite(xs @ xs)
    return domain.lo < np.minimum.reduce(xs) and \
        np.maximum.reduce(xs) < domain.hi


def _expression_arrays(*nodes):
    """Numpy form of an expression profile from the ASTs of its value, d1 and
    d2: for each set of entries asked for, one ``expressions.compile_jet``
    function that computes just those. Each is compiled on first use, so
    building a profile compiles nothing."""
    compiled = {}

    def arrays(xs, value, d1, d2):
        want = (value, d1, d2)
        jet = compiled.get(want)
        if jet is None:
            jet = compiled[want] = expressions.compile_jet(
                [node if w else None for node, w in zip(nodes, want)])
        return jet(xs)

    return arrays
