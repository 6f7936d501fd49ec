"""Closed-form tensors for conformally semi-Euclidean bases, plus FD oracles.

The base metric is g = phi(xi)^-2 * delta on R^n, where delta is the diagonal
semi-Euclidean metric with entries eps_i in {-1, +1} and xi = sum_i alpha_i x_i.
All closed forms below depend on position only through xi, so they take xi
directly. The finite-difference oracle at the bottom knows nothing about the
closed forms: it differentiates a metric sampler, and exists so the two routes
can be compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError, SingularMetricError
from .numerics import square
from .profiles import Profile

__all__ = [
    "SignatureSpec", "TranslationDirection", "signed_norm", "causal_class",
    "christoffel_conformal", "conformal_christoffels",
    "conformal_scalar_curvature", "conformal_hessian",
    "conformal_hessian_matrix", "conformal_laplacian_and_pairings",
    "warped_scalar_curvature", "conformal_metric_sampler",
    "warped_metric_sampler", "base_point_for_xi",
    "fd_curvature_oracle", "fd_hessian_oracle", "fd_laplacian_oracle",
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


def base_point_for_xi(direction: TranslationDirection, xi: float) -> np.ndarray:
    """Any point x with xi(x) = xi; uses the Euclidean projection, which is
    well defined for lightlike alpha too."""
    a = np.asarray(direction.alpha)
    return xi * a / float(a @ a)


# --- closed forms -----------------------------------------------------------

def christoffel_conformal(phi: Profile, direction: TranslationDirection,
                          sig: SignatureSpec, i: int, j: int, k: int,
                          xi: float) -> float:
    """Gamma^k_{ij} of g = phi^-2 delta.

    Equivalent to Gamma^k_ij = d^k_i psi_j + d^k_j psi_i - d_ij eps_i eps_k
    psi_k with psi = -ln(phi): zero for distinct indices, -phi_{,j}/phi on
    (i,i,j->i), eps_i eps_k phi_{,k}/phi on (i,i)->k, -phi_{,i}/phi on the
    triple diagonal.
    """
    ratio = phi.d1(xi) / phi.value(xi)
    psi = lambda m: -ratio * direction.alpha[m]
    out = 0.0
    if k == i:
        out += psi(j)
    if k == j:
        out += psi(i)
    if i == j:
        out -= sig.epsilon[i] * sig.epsilon[k] * psi(k)
    return out


def conformal_christoffels(phi: Profile, direction: TranslationDirection,
                           sig: SignatureSpec, xi: float) -> np.ndarray:
    """Array Gamma[k, i, j]."""
    n = sig.n
    ratio = phi.d1(xi) / phi.value(xi)
    psi = -ratio * np.asarray(direction.alpha)
    eps = np.asarray(sig.epsilon, dtype=float)
    gamma = np.zeros((n, n, n))
    for k in range(n):
        gamma[k, k, :] += psi
        gamma[k, :, k] += psi
        gamma[k, range(n), range(n)] -= eps * eps[k] * psi[k]
    return gamma


def conformal_scalar_curvature(phi: Profile, direction: TranslationDirection,
                               sig: SignatureSpec, xi: float) -> float:
    """S = ||alpha||^2 (n-1) (2 phi phi'' - n phi'^2)."""
    if direction.norm == 0.0:
        return 0.0
    p, dp, ddp = phi.value(xi), phi.d1(xi), phi.d2(xi)
    return direction.norm * (sig.n - 1) * (2.0 * p * ddp - sig.n * dp * dp)


def conformal_hessian(h: Profile, phi: Profile,
                      direction: TranslationDirection, sig: SignatureSpec,
                      i: int, j: int, xi: float) -> float:
    """(Hess h)_{ij} = a_i a_j h'' + (2 a_i a_j - d_ij eps_i ||a||^2)
    (phi'/phi) h'."""
    a = direction.alpha
    ratio = phi.d1(xi) / phi.value(xi)
    term = 2.0 * a[i] * a[j]
    if i == j:
        term -= sig.epsilon[i] * direction.norm
    return a[i] * a[j] * h.d2(xi) + term * ratio * h.d1(xi)


def conformal_hessian_matrix(h: Profile, phi: Profile,
                             direction: TranslationDirection,
                             sig: SignatureSpec, xi: float) -> np.ndarray:
    a = np.asarray(direction.alpha)
    eps = np.asarray(sig.epsilon, dtype=float)
    ratio = phi.d1(xi) / phi.value(xi)
    outer = np.outer(a, a)
    return (outer * h.d2(xi)
            + (2.0 * outer - np.diag(eps) * direction.norm)
            * ratio * h.d1(xi))


def conformal_laplacian_and_pairings(f: Profile, h: Profile, phi: Profile,
                                     direction: TranslationDirection,
                                     sig: SignatureSpec, xi: float
                                     ) -> tuple[float, float, float]:
    """(Laplacian f, <grad f, grad h>, |grad f|^2) w.r.t. g = phi^-2 delta.

    All three carry the overall ||alpha||^2 factor, so a lightlike direction
    annihilates them exactly.
    """
    if direction.norm == 0.0:
        return 0.0, 0.0, 0.0
    p, dp = phi.value(xi), phi.d1(xi)
    p2 = p * p
    lap = direction.norm * p2 * (f.d2(xi) - (sig.n - 2) * (dp / p) * f.d1(xi))
    pair = direction.norm * p2 * f.d1(xi) * h.d1(xi)
    grad2 = direction.norm * p2 * f.d1(xi) ** 2
    return lap, pair, grad2


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
    return (s_base + lambda_f / square(f_value)
            - 2.0 * d * laplacian_f / f_value
            + sign * d * (d - 1) * gradsq_f / square(f_value))


# --- metric samplers --------------------------------------------------------

def conformal_metric_sampler(phi: Profile, direction: TranslationDirection,
                             sig: SignatureSpec) -> Callable[[np.ndarray], np.ndarray]:
    eps = np.asarray(sig.epsilon, dtype=float)

    def sample(x: np.ndarray) -> np.ndarray:
        xi = direction.xi_at(x)
        return np.diag(eps / phi.value(xi) ** 2)

    return sample


def warped_metric_sampler(phi: Profile, f: Profile,
                          direction: TranslationDirection, sig: SignatureSpec,
                          d: int) -> Callable[[np.ndarray], np.ndarray]:
    """Sampler for the full (n+d)-metric phi^-2 delta + f^2 (flat fiber)."""
    eps = np.asarray(sig.epsilon, dtype=float)
    n = sig.n

    def sample(z: np.ndarray) -> np.ndarray:
        xi = direction.xi_at(z[:n])
        diag = np.concatenate([eps / phi.value(xi) ** 2,
                               np.full(d, f.value(xi) ** 2)])
        return np.diag(diag)

    return sample


# --- finite-difference oracle ----------------------------------------------

def _metric_inverse(g: np.ndarray) -> np.ndarray:
    sv = np.linalg.svd(g, compute_uv=False)
    if sv[-1] < 1e-12 * max(1.0, sv[0]):
        raise SingularMetricError(
            f"metric pivot {sv[-1]:.3e} below 1e-12 threshold")
    return np.linalg.inv(g)


def _fd_christoffels(metric_sampler, point: np.ndarray, step: float) -> np.ndarray:
    m = len(point)
    dg = np.empty((m, m, m))  # dg[l, i, j] = d_l g_ij
    for l in range(m):
        e = np.zeros(m)
        e[l] = step
        dg[l] = (metric_sampler(point + e) - metric_sampler(point - e)) / (2.0 * step)
    ginv = _metric_inverse(metric_sampler(point))
    # bracket[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij; note transpose(p)
    # moves axis p[m] of dg to position m, so d_i g_jl needs p = (2, 0, 1)
    bracket = dg.transpose(2, 0, 1) + dg.transpose(2, 1, 0) - dg
    return 0.5 * np.einsum("kl,lij->kij", ginv, bracket)


def fd_curvature_oracle(metric_sampler: Callable[[np.ndarray], np.ndarray],
                        point: Sequence[float], step: float = 1e-3
                        ) -> tuple[np.ndarray, float]:
    """(Christoffels Gamma[k,i,j], scalar curvature) by central differences.

    Truncation error is O(step^2); tests pick the step (and may Richardson-
    extrapolate two calls). Independent of every closed form above.
    """
    point = np.asarray(point, dtype=float)
    m = len(point)
    gamma = _fd_christoffels(metric_sampler, point, step)
    dgamma = np.empty((m, m, m, m))  # dgamma[l, k, i, j] = d_l Gamma^k_ij
    for l in range(m):
        e = np.zeros(m)
        e[l] = step
        dgamma[l] = (_fd_christoffels(metric_sampler, point + e, step)
                     - _fd_christoffels(metric_sampler, point - e, step)) / (2.0 * step)
    # R_ij = d_k Gamma^k_ij - d_i Gamma^k_kj + Gamma^k_kl Gamma^l_ij
    #        - Gamma^k_il Gamma^l_kj
    ricci = (np.einsum("kkij->ij", dgamma)
             - np.einsum("ikkj->ij", dgamma)
             + np.einsum("kkl,lij->ij", gamma, gamma)
             - np.einsum("kil,lkj->ij", gamma, gamma))
    ginv = _metric_inverse(metric_sampler(point))
    scalar = float(np.einsum("ij,ij->", ginv, ricci))
    return gamma, scalar


def fd_hessian_oracle(field: Callable[[np.ndarray], float],
                      metric_sampler: Callable[[np.ndarray], np.ndarray],
                      point: Sequence[float], step: float = 1e-3) -> np.ndarray:
    """Hess(field)_ij = d_i d_j field - Gamma^k_ij d_k field, all by FD."""
    point = np.asarray(point, dtype=float)
    m = len(point)
    grad = np.empty(m)
    hess_coord = np.empty((m, m))
    f0 = field(point)
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = step
        grad[i] = (field(point + ei) - field(point - ei)) / (2.0 * step)
        hess_coord[i, i] = (field(point + ei) - 2.0 * f0
                            + field(point - ei)) / step ** 2
        for j in range(i):
            ej = np.zeros(m)
            ej[j] = step
            hess_coord[i, j] = hess_coord[j, i] = (
                field(point + ei + ej) - field(point + ei - ej)
                - field(point - ei + ej) + field(point - ei - ej)
            ) / (4.0 * step ** 2)
    gamma = _fd_christoffels(metric_sampler, point, step)
    return hess_coord - np.einsum("kij,k->ij", gamma, grad)


def fd_laplacian_oracle(field: Callable[[np.ndarray], float],
                        metric_sampler: Callable[[np.ndarray], np.ndarray],
                        point: Sequence[float], step: float = 1e-3) -> float:
    hess = fd_hessian_oracle(field, metric_sampler, point, step)
    ginv = _metric_inverse(metric_sampler(np.asarray(point, dtype=float)))
    return float(np.einsum("ij,ij->", ginv, hess))
