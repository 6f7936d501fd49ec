import ast
import pathlib

import numpy as np
import pytest

from oracles import (base_point_for_xi, conformal_metric_sampler,
                     fd_curvature_oracle, fd_hessian_oracle,
                     fd_laplacian_oracle, profile_field,
                     warped_metric_sampler)
from yamabe.errors import DimensionMismatchError
from yamabe.geodesics import geodesic_rhs
from yamabe.geometry import (SignatureSpec, TranslationDirection,
                             causal_class, signed_norm,
                             warped_scalar_curvature)
from yamabe.profiles import Profile
from yamabe.soliton import Terms, WarpedSolitonSpec, point_eval

EPS = SignatureSpec((1, -1, 1, 1))
ALPHA = (0.6, -0.3, 0.8, 0.2)
DIRECTION = TranslationDirection(ALPHA, EPS)
PHI = Profile.from_expression("sec(xi/2)", domain=(-3.0, 3.0))
F = Profile.from_expression("2 + sin(xi)/3")
H = Profile.from_expression("exp(xi/5)")
LIGHT_SIG = SignatureSpec.lorentzian(4)
LIGHT = TranslationDirection((1.0, 1.0, 0.0, 0.0), LIGHT_SIG)


def geometry_spec(direction=DIRECTION, sig=EPS, d=2):
    return WarpedSolitonSpec(sig, direction, d, 0.0, 0.0, PHI, F, H,
                             PHI.domain)


def terms_at(xi, direction=DIRECTION, sig=EPS):
    """The closed forms that certify runs, at one xi."""
    spec = geometry_spec(direction, sig)
    return Terms(spec, point_eval(spec, xi))


def richardson(fn, step):
    coarse = fn(step)
    fine = fn(0.5 * step)
    return (4.0 * fine - coarse) / 3.0


class TestSignature:
    def test_dimension_floor(self):
        with pytest.raises(DimensionMismatchError):
            SignatureSpec((1, 1))

    def test_entries_validated(self):
        with pytest.raises(DimensionMismatchError):
            SignatureSpec((1, 2, 1))

    def test_constructors(self):
        assert SignatureSpec.euclidean(4).epsilon == (1, 1, 1, 1)
        assert SignatureSpec.lorentzian(4).epsilon == (-1, 1, 1, 1)
        assert SignatureSpec.euclidean(5).n == 5

    def test_signed_norm(self):
        assert signed_norm((1.0, 2.0, 0.0, 0.0), EPS) == 1.0 - 4.0
        with pytest.raises(DimensionMismatchError):
            signed_norm((1.0, 2.0), EPS)

    def test_causal_class_exact_zero_only(self):
        assert causal_class(0.0) == "lightlike"
        assert causal_class(1e-300) == "spacelike"
        assert causal_class(-1e-300) == "timelike"


class TestDirection:
    def test_norm_and_class_precomputed(self):
        assert DIRECTION.norm == pytest.approx(0.95)
        assert DIRECTION.causal == "spacelike"

    def test_zero_alpha_rejected(self):
        with pytest.raises(DimensionMismatchError):
            TranslationDirection((0.0, 0.0, 0.0, 0.0), EPS)

    def test_xi_at(self):
        assert DIRECTION.xi_at((1.0, 1.0, 1.0, 1.0)) == pytest.approx(1.3)

    def test_base_point_inverts_xi(self):
        for xi in (-1.2, 0.0, 0.7):
            x = base_point_for_xi(DIRECTION, xi)
            assert DIRECTION.xi_at(x) == pytest.approx(xi, abs=1e-14)

    def test_base_point_for_lightlike(self):
        sig = SignatureSpec.lorentzian(4)
        light = TranslationDirection((1.0, 1.0, 0.0, 0.0), sig)
        assert light.causal == "lightlike"
        x = base_point_for_xi(light, 0.8)
        assert light.xi_at(x) == pytest.approx(0.8)


class TestChristoffels:
    @pytest.mark.parametrize("direction,sig", [(DIRECTION, EPS),
                                               (LIGHT, LIGHT_SIG)],
                             ids=["spacelike", "lightlike"])
    def test_geodesic_rhs_matches_fd(self, direction, sig):
        """The accelerations of the full geodesic system are -Gamma(w, w)
        with w = (v, vf) and Gamma the FD Christoffels of the warped metric."""
        d = 2
        spec = geometry_spec(direction, sig, d)
        y = base_point_for_xi(direction, 0.4) + np.array([0.1, -0.2, 0.3, 0.05])
        v = np.array([0.3, -0.7, 0.5, 0.2])
        yf, vf = np.array([0.3, -0.1]), np.array([0.4, -0.6])
        out = geodesic_rhs(spec, "full")(0.0, np.concatenate([y, v, yf, vf]))
        sampler = warped_metric_sampler(PHI, F, direction, sig, d)
        point = np.concatenate([y, yf])

        def fd(step):
            return fd_curvature_oracle(sampler, point, step)[0]

        w = np.concatenate([v, vf])
        acc = -np.einsum("kij,i,j->k", richardson(fd, 2e-3), w, w)
        assert np.max(np.abs(out[4:8] - acc[:4])) < 1e-7
        assert np.max(np.abs(out[10:] - acc[4:])) < 1e-7


class TestScalarCurvature:
    @pytest.mark.parametrize("xi", [-0.9, 0.0, 0.6])
    def test_conformal_base_matches_fd(self, xi):
        sampler = conformal_metric_sampler(PHI, DIRECTION, EPS)
        point = base_point_for_xi(DIRECTION, xi)

        def fd(step):
            return fd_curvature_oracle(sampler, point, step)[1]

        exact = terms_at(xi).s_base
        assert abs(richardson(fd, 2e-3) - exact) < 1e-6 * max(1.0, abs(exact))

    def test_lightlike_base_is_flat(self):
        assert terms_at(0.3, LIGHT, LIGHT_SIG).s_base == 0.0
        sampler = conformal_metric_sampler(PHI, LIGHT, LIGHT_SIG)
        point = base_point_for_xi(LIGHT, 0.3)
        _, s_fd = fd_curvature_oracle(sampler, point, step=1e-3)
        assert abs(s_fd) < 1e-6

    @pytest.mark.parametrize("xi,d", [(0.4, 2), (-0.5, 3)])
    def test_warped_total_matches_fd(self, xi, d):
        lambda_f = 0.0  # flat fiber sampler
        sampler = warped_metric_sampler(PHI, F, DIRECTION, EPS, d)
        point = np.concatenate([base_point_for_xi(DIRECTION, xi),
                                np.full(d, 0.3)])

        def fd(step):
            return fd_curvature_oracle(sampler, point, step)[1]

        t = terms_at(xi)
        exact = warped_scalar_curvature(t.s_base, F.value(xi), t.lap_f,
                                        t.grad2_f, lambda_f, d)
        assert abs(richardson(fd, 2e-3) - exact) < 1e-5 * max(1.0, abs(exact))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("xi", [0.4, -0.5])
    def test_hyperbolic_fiber_matches_fd(self, xi, d):
        """An upper-half-space H^d fiber: the FD scalar curvature carries
        lambda_F / f^2 with lambda_F = -d(d-1)."""
        lambda_f = -d * (d - 1)
        sampler = warped_metric_sampler(PHI, F, DIRECTION, EPS, d,
                                        hyperbolic=True)
        point = np.concatenate([base_point_for_xi(DIRECTION, xi),
                                np.full(d, 0.3)])

        def fd(step):
            return fd_curvature_oracle(sampler, point, step)[1]

        t = terms_at(xi)
        exact = warped_scalar_curvature(t.s_base, F.value(xi), t.lap_f,
                                        t.grad2_f, lambda_f, d)
        flat = warped_scalar_curvature(t.s_base, F.value(xi), t.lap_f,
                                       t.grad2_f, 0.0, d)
        bound = 1e-5 * max(1.0, abs(exact))
        assert abs(exact - flat) > 1e4 * bound
        assert abs(richardson(fd, 2e-3) - exact) < bound

    def test_sign_variants_differ_by_gradient_term(self):
        t = terms_at(0.4)
        lap, grad2 = t.lap_f, t.grad2_f
        fv = F.value(0.4)
        minus = warped_scalar_curvature(1.0, fv, lap, grad2, 0.5, 3)
        plus = warped_scalar_curvature(1.0, fv, lap, grad2, 0.5, 3,
                                       sign_variant="plus")
        assert plus - minus == pytest.approx(2.0 * 3 * 2 * grad2 / fv ** 2)

    def test_sign_variant_validated(self):
        with pytest.raises(ValueError):
            warped_scalar_curvature(1.0, 1.0, 0.0, 0.0, 0.0, 2,
                                    sign_variant="both")


class TestHessian:
    @pytest.mark.parametrize("xi", [-0.6, 0.5])
    def test_matrix_matches_fd(self, xi):
        sampler = conformal_metric_sampler(PHI, DIRECTION, EPS)
        point = base_point_for_xi(DIRECTION, xi)
        field = profile_field(H, DIRECTION)

        def fd(step):
            return fd_hessian_oracle(field, sampler, point, step)

        exact = terms_at(xi).hessian()
        assert np.max(np.abs(richardson(fd, 2e-3) - exact)) < 1e-6

    def test_lightlike_keeps_rank_one_part(self):
        xi = 0.3
        a = np.asarray(LIGHT.alpha)
        ratio = PHI.d1(xi) / PHI.value(xi)
        expected = np.outer(a, a) * (H.d2(xi) + 2.0 * ratio * H.d1(xi))
        got = terms_at(xi, LIGHT, LIGHT_SIG).hessian()
        assert np.allclose(got, expected, atol=1e-14)
        sampler = conformal_metric_sampler(PHI, LIGHT, LIGHT_SIG)
        point = base_point_for_xi(LIGHT, xi)
        fd = fd_hessian_oracle(profile_field(H, LIGHT), sampler, point,
                               step=1e-3)
        assert np.max(np.abs(fd - expected)) < 1e-6


class TestLaplacianAndPairings:
    @pytest.mark.parametrize("xi", [-0.8, 0.45])
    def test_laplacian_matches_fd(self, xi):
        self._check_laplacian(F, terms_at(xi).lap_f, xi)

    @pytest.mark.parametrize("xi", [-0.8, 0.45])
    def test_laplacian_of_h_matches_fd(self, xi):
        self._check_laplacian(H, terms_at(xi).lap_h, xi)

    @staticmethod
    def _check_laplacian(profile, lap, xi):
        sampler = conformal_metric_sampler(PHI, DIRECTION, EPS)
        point = base_point_for_xi(DIRECTION, xi)
        field = profile_field(profile, DIRECTION)

        def fd(step):
            return fd_laplacian_oracle(field, sampler, point, step)

        assert abs(richardson(fd, 2e-3) - lap) < 1e-6 * max(1.0, abs(lap))

    def test_pairings_match_inverse_metric_contraction(self):
        xi = 0.45
        sampler = conformal_metric_sampler(PHI, DIRECTION, EPS)
        point = base_point_for_xi(DIRECTION, xi)
        ginv = np.linalg.inv(sampler(point))
        step = 1e-5

        def grad(profile):
            field = profile_field(profile, DIRECTION)
            g = np.empty(4)
            for i in range(4):
                e = np.zeros(4)
                e[i] = step
                g[i] = (field(point + e) - field(point - e)) / (2.0 * step)
            return g

        gf, gh = grad(F), grad(H)
        t = terms_at(xi)
        assert float(gf @ ginv @ gh) == pytest.approx(t.pair, rel=1e-8)
        assert float(gf @ ginv @ gf) == pytest.approx(t.grad2_f, rel=1e-8)
        assert float(gf @ ginv @ gh) / F.value(xi) == pytest.approx(
            t.pair_ln, rel=1e-8)

    def test_lightlike_annihilates(self):
        t = terms_at(0.2, LIGHT, LIGHT_SIG)
        assert (t.lap_f, t.pair, t.grad2_f, t.lap_h, t.pair_ln) == (0.0,) * 5


def test_degenerate_metric_raises():
    def sampler(x):
        return np.broadcast_to(np.diag([1.0, 1.0, 1.0, 0.0]),
                               np.shape(x)[:-1] + (4, 4))

    with pytest.raises(np.linalg.LinAlgError):
        fd_curvature_oracle(sampler, np.zeros(4))


def test_oracles_import_neither_soliton_nor_geodesics():
    """The FD route stays independent of the closed forms it checks."""
    tree = ast.parse(
        (pathlib.Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    banned = ("yamabe.soliton", "yamabe.geodesics")
    assert [name for name in imported
            if name.startswith(banned)] == []
