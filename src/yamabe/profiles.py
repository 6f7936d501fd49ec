"""Profiles: scalar functions of the invariance variable with two derivatives.

A profile is an open domain and a numpy form that evaluates value, d1 and d2
on an array of points at once (``Profile.jet``); its scalar ``value``,
``d1`` and ``d2`` are that form at one point. The expression constructor
differentiates symbolically and compiles a form; every family closure is
given by its own; shifted, scaled and summed profiles compose their
parents' forms.

A form reports a point where it cannot be evaluated in one way: the entries
there are not finite. ``masked_jet`` is how the package reads profiles on
points that may lie outside the domain: NaN there, and one call of the form
on the rest. An exception a form raises itself always propagates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expressions
from .errors import DomainError, EvaluationError, PositivityError

__all__ = ["Interval", "Profile", "grid_points", "masked_jet",
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
    arrays(xs, value, d1, d2): the jet (value, d1, d2) over the float array
    xs of in-domain points, with None for each entry whose flag is false,
    run with numpy's floating-point errors ignored. Where it cannot be
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
        """(value, d1, d2) as arrays over the 1-D points xs, from one call of
        the numpy form; value is None unless asked for, and so is d2.

        An entry is not finite where the profile cannot be evaluated. A
        point outside the domain raises DomainError naming the first one,
        and an exception the form raises propagates.
        """
        xs = np.asarray(xs, dtype=float)
        inside = (self.domain.lo < xs) & (xs < self.domain.hi)
        if not inside.all():
            raise DomainError(
                f"xi={float(xs[np.argmin(inside)])!r} outside declared "
                f"domain {self.domain.as_tuple()!r}")
        with np.errstate(all="ignore"):
            return self._arrays(xs, value, True, d2)

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
        through ``masked_jet``. The first point that fails raises
        PositivityError, or EvaluationError where the value is not finite
        (a point outside the domain included)."""
        pts = grid_points(interval, 64)
        with np.errstate(all="ignore"):
            values = masked_jet(self, np.array(pts), True, False, False)[0]
        for xi, v in zip(pts, values.tolist()):
            if not v > 0.0:
                if not math.isfinite(v):
                    raise EvaluationError(f"non-finite {name} at xi={xi!r}")
                raise PositivityError(f"{name} must stay positive; "
                                      f"{name}({xi!r}) = {v!r}")

    def __repr__(self) -> str:
        src = f" source={self.source!r}" if self.source else ""
        return f"Profile(domain={self.domain.as_tuple()!r}{src})"


@np.errstate(all="ignore")
def _entry_at(arrays, xi: float, k: int) -> float:
    """Entry k of the numpy form on the one-element array [xi], the only
    entry it computes."""
    return float(arrays(np.array([xi], dtype=float), k == 0, k == 1,
                        k == 2)[k][0])


def masked_jet(profile: Profile, xs: np.ndarray, value: bool, d1: bool,
               d2: bool):
    """The jet of profile over the float array xs, entries not asked for
    None, with NaN in every asked entry at a point outside the domain (a NaN
    point included). The numpy form runs once, on the points inside, under
    the caller's floating-point context; an exception it raises propagates.

    When every point is inside the domain this is the one call of the form
    on xs itself."""
    if len(xs) and _all_inside(profile.domain, xs):
        return profile._arrays(xs, value, d1, d2)
    inside = (profile.domain.lo < xs) & (xs < profile.domain.hi)
    out = []
    for got in profile._arrays(xs[inside], value, d1, d2):
        if got is not None:
            full = np.full(len(xs), np.nan)
            full[inside] = got
            got = full
        out.append(got)
    return tuple(out)


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
