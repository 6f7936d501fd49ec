"""Conformally semi-Euclidean bases: the signature and direction types, and
the scalar curvature of the warped product.

The base metric is g = phi(xi)^-2 * delta on R^n, where delta is the diagonal
semi-Euclidean metric with entries eps_i in {-1, +1} and xi = sum_i alpha_i x_i.
The closed forms of the base geometry (scalar curvature, Laplacians, gradient
pairings, Hessian) live once, in ``soliton.Terms``, which ``certify`` runs;
the Christoffel symbols are contracted in ``geodesics.geodesic_rhs``. The
tests hold both to finite-difference oracles on metric samples, with a flat
and an upper-half-space H^d fiber, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import DimensionMismatchError

__all__ = [
    "SignatureSpec", "TranslationDirection", "signed_norm", "causal_class",
    "warped_scalar_curvature",
]


@dataclass(frozen=True)
class SignatureSpec:
    """Diagonal semi-Euclidean signature (eps_1, ..., eps_n), n >= 3."""

    epsilon: tuple[int, ...]

    def __post_init__(self):
        if len(self.epsilon) < 3:
            raise DimensionMismatchError(
                f"base dimension must be >= 3, got {len(self.epsilon)}")
        if any(e not in (-1, 1) for e in self.epsilon):
            raise DimensionMismatchError(
                f"signature entries must be +-1, got {self.epsilon!r}")

    @property
    def n(self) -> int:
        return len(self.epsilon)

    @classmethod
    def euclidean(cls, n: int) -> "SignatureSpec":
        return cls((1,) * n)

    @classmethod
    def lorentzian(cls, n: int) -> "SignatureSpec":
        return cls((-1,) + (1,) * (n - 1))


def signed_norm(alpha: Sequence[float], sig: SignatureSpec) -> float:
    """||alpha||^2 = sum_i eps_i alpha_i^2; sign decides the causal class."""
    if len(alpha) != sig.n:
        raise DimensionMismatchError(
            f"alpha has length {len(alpha)}, signature has n={sig.n}")
    return float(sum(e * a * a for e, a in zip(sig.epsilon, alpha)))


def causal_class(norm: float) -> str:
    # lightlike only on exact zero; near-zero norms are genuinely spacelike
    # or timelike and must not be rounded.
    if norm == 0.0:
        return "lightlike"
    return "spacelike" if norm > 0.0 else "timelike"


@dataclass(frozen=True)
class TranslationDirection:
    """Direction alpha with its signed norm and causal class precomputed."""

    alpha: tuple[float, ...]
    norm: float = field(init=False)
    causal: str = field(init=False)
    _sig: SignatureSpec = field(repr=False)

    def __init__(self, alpha: Sequence[float], sig: SignatureSpec):
        object.__setattr__(self, "alpha", tuple(float(a) for a in alpha))
        object.__setattr__(self, "_sig", sig)
        object.__setattr__(self, "norm", signed_norm(self.alpha, sig))
        object.__setattr__(self, "causal", causal_class(self.norm))
        if all(a == 0.0 for a in self.alpha):
            raise DimensionMismatchError("alpha must be nonzero")

    def xi_at(self, x: Sequence[float]) -> float:
        return float(sum(a * v for a, v in zip(self.alpha, x)))


# --- warped product -------------------------------------------------------

def warped_scalar_curvature(s_base: float, f_value: float, laplacian_f: float,
                            gradsq_f: float, lambda_f: float, d: int,
                            sign_variant: str = "minus") -> float:
    """Scalar curvature of base x_f fiber with dim(fiber) = d and constant
    fiber scalar curvature lambda_f.

    The |grad f|^2 term enters with a minus sign by default (the convention
    consistent with the reduced soliton system and the FD oracle); 'plus'
    reproduces the alternative display and is exposed for comparison only.
    """
    if sign_variant not in ("minus", "plus"):
        raise ValueError(f"sign_variant must be 'minus' or 'plus', got {sign_variant!r}")
    sign = -1.0 if sign_variant == "minus" else 1.0
    f_sq = f_value * f_value
    return (s_base + lambda_f / f_sq - 2.0 * d * laplacian_f / f_value
            + sign * d * (d - 1) * gradsq_f / f_sq)
