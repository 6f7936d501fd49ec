"""The tests' second route of the curvature side: metric samplers and
finite-difference oracles.

The samplers write the metric of the conformal base phi^-2 delta, or of the
warped product phi^-2 delta + f^2 g_F with a flat fiber or an upper-half-space
H^d fiber, straight from the profile values. The oracles differentiate a
sampler by central differences. Neither knows any closed form of the package
(``soliton.Terms``, the Christoffel contractions of ``geodesics``), so the
tests can hold those closed forms to them; this module must not import
``yamabe.soliton`` or ``yamabe.geodesics``.

Everything is batched: a sampler or a field takes points of shape (..., m)
and reads one jet per profile for all of them, and each oracle call gathers
its whole stencil into one sampler call and one field call.
"""

import numpy as np


def base_point_for_xi(direction, xi: float) -> np.ndarray:
    """Any point x with xi(x) = xi; uses the Euclidean projection, which is
    well defined for lightlike alpha too."""
    a = np.asarray(direction.alpha)
    return xi * a / float(a @ a)


def profile_field(profile, direction):
    """The function x -> profile(alpha . x) on base points (..., n)."""
    alpha = np.asarray(direction.alpha)

    def field(x):
        xi = np.asarray(x, dtype=float)[..., :len(alpha)] @ alpha
        return profile.jet(xi.ravel(), d2=False)[0].reshape(xi.shape)

    return field


def _diagonal(entries: np.ndarray) -> np.ndarray:
    """Diagonal matrices (..., m, m) from their diagonals (..., m)."""
    return entries[..., None] * np.eye(entries.shape[-1])


def conformal_metric_sampler(phi, direction, sig):
    """Sampler of the base metric phi^-2 delta at points (..., n)."""
    eps = np.asarray(sig.epsilon, dtype=float)
    phi_at = profile_field(phi, direction)

    def sample(x):
        return _diagonal(eps / phi_at(x)[..., None] ** 2)

    return sample


def warped_metric_sampler(phi, f, direction, sig, d: int,
                          hyperbolic: bool = False):
    """Sampler of the full (n+d)-metric phi^-2 delta + f^2 g_F at points
    (..., n + d). The fiber metric g_F is delta (flat, lambda_F = 0), or
    with ``hyperbolic`` y_d^-2 delta on the upper half space y_d > 0 (H^d of
    sectional curvature -1, lambda_F = -d(d-1))."""
    eps = np.asarray(sig.epsilon, dtype=float)
    n = sig.n
    phi_at, f_at = profile_field(phi, direction), profile_field(f, direction)

    def sample(z):
        z = np.asarray(z, dtype=float)
        fiber_scale = f_at(z) ** 2
        if hyperbolic:
            fiber_scale = fiber_scale / z[..., -1] ** 2
        base = eps / phi_at(z)[..., None] ** 2
        return _diagonal(np.concatenate(
            [base, np.repeat(fiber_scale[..., None], d, axis=-1)], axis=-1))

    return sample


def _metric_inverse(g: np.ndarray) -> np.ndarray:
    """Inverses of the metrics (..., m, m); LinAlgError when one is
    numerically singular."""
    sv = np.linalg.svd(g, compute_uv=False)
    if np.any(sv[..., -1] < 1e-12 * np.maximum(1.0, sv[..., 0])):
        raise np.linalg.LinAlgError(
            f"metric pivot {float(np.min(sv[..., -1])):.3e} below 1e-12 "
            "threshold")
    return np.linalg.inv(g)


def _offsets(m: int, step: float) -> np.ndarray:
    """The 2m + 1 central-difference offsets: +step e_l, -step e_l, 0."""
    e = step * np.eye(m)
    return np.concatenate([e, -e, np.zeros((1, m))])


def _fd_christoffels(metric_sampler, centers: np.ndarray, step: float):
    """(Gamma[c, k, i, j], inverse metric[c]) at each of the centers (c, m),
    from one sampler call on all their stencil points."""
    m = centers.shape[-1]
    g = metric_sampler(centers[:, None, :] + _offsets(m, step))
    dg = (g[:, :m] - g[:, m:2 * m]) / (2.0 * step)  # dg[c, l, i, j] = d_l g_ij
    ginv = _metric_inverse(g[:, 2 * m])
    # bracket[c, l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    bracket = dg.transpose(0, 3, 1, 2) + dg.transpose(0, 3, 2, 1) - dg
    return 0.5 * np.einsum("ckl,clij->ckij", ginv, bracket), ginv


def fd_curvature_oracle(metric_sampler, point, step: float = 1e-3
                        ) -> tuple[np.ndarray, float]:
    """(Christoffels Gamma[k,i,j], scalar curvature) by central differences.

    Truncation error is O(step^2); tests pick the step (and may Richardson-
    extrapolate two calls). Independent of every closed form in the package.
    """
    point = np.asarray(point, dtype=float)
    m = len(point)
    gammas, ginvs = _fd_christoffels(metric_sampler, point + _offsets(m, step),
                                     step)
    gamma, ginv = gammas[2 * m], ginvs[2 * m]
    # dgamma[l, k, i, j] = d_l Gamma^k_ij
    dgamma = (gammas[:m] - gammas[m:2 * m]) / (2.0 * step)
    # R_ij = d_k Gamma^k_ij - d_i Gamma^k_kj + Gamma^k_kl Gamma^l_ij
    #        - Gamma^k_il Gamma^l_kj
    ricci = (np.einsum("kkij->ij", dgamma)
             - np.einsum("ikkj->ij", dgamma)
             + np.einsum("kkl,lij->ij", gamma, gamma)
             - np.einsum("kil,lkj->ij", gamma, gamma))
    return gamma, float(np.einsum("ij,ij->", ginv, ricci))


def _fd_hessian(field, metric_sampler, point, step):
    """(Hess(field)_ij, inverse metric) at point: the field at its whole
    stencil (point, point +- e_i, point +- e_i +- e_j) in one call."""
    point = np.asarray(point, dtype=float)
    m = len(point)
    e = step * np.eye(m)
    i, j = np.tril_indices(m, -1)
    signs = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)])[:, :, None, None]
    mixed = point + signs[:, 0] * e[i] + signs[:, 1] * e[j]  # (4, pairs, m)
    values = field(np.concatenate([point[None], point + e, point - e,
                                   mixed.reshape(-1, m)]))
    f0, plus, minus = values[0], values[1:m + 1], values[m + 1:2 * m + 1]
    pp, pm, mp, mm = values[2 * m + 1:].reshape(4, -1)
    hess_coord = np.diag((plus - 2.0 * f0 + minus) / step ** 2)
    hess_coord[i, j] = hess_coord[j, i] = (pp - pm - mp + mm) / (4.0 * step ** 2)
    grad = (plus - minus) / (2.0 * step)
    gamma, ginv = _fd_christoffels(metric_sampler, point[None], step)
    return hess_coord - np.einsum("kij,k->ij", gamma[0], grad), ginv[0]


def fd_hessian_oracle(field, metric_sampler, point, step: float = 1e-3
                      ) -> np.ndarray:
    """Hess(field)_ij = d_i d_j field - Gamma^k_ij d_k field, all by FD."""
    return _fd_hessian(field, metric_sampler, point, step)[0]


def fd_laplacian_oracle(field, metric_sampler, point, step: float = 1e-3
                        ) -> float:
    hess, ginv = _fd_hessian(field, metric_sampler, point, step)
    return float(np.einsum("ij,ij->", ginv, hess))
