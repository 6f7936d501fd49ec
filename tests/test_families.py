import math
import re

import numpy as np
import pytest

from yamabe.errors import DomainError, FamilyConstructionError
from yamabe.families import (almost_soliton_lightlike, default_lightlike_frame,
                             default_spacelike_frame, family_thm15,
                             family_thm16, family_thm17, family_thm18,
                             phase_portrait, riccati_general_solution,
                             riccati_residual)
from yamabe.geodesics import integrate_geodesic
from yamabe.lambertw import lambert_w
from yamabe.numerics import CachedAntiderivative, invert_monotone
from yamabe.profiles import Interval, Profile, grid_points
from yamabe.soliton import certify, classify

from conftest import THM15_COMMON, THM15_QUADRATURE_CASES, central_d2

HALF_PI = 0.5 * math.pi


class TestFrames:
    def test_spacelike_default(self):
        sig, direction = default_spacelike_frame(5)
        assert sig.epsilon == (1,) * 5
        assert direction.alpha == (1.0, 0.0, 0.0, 0.0, 0.0)
        assert direction.norm == 1.0

    def test_lightlike_default(self):
        sig, direction = default_lightlike_frame(4)
        assert sig.epsilon == (-1, 1, 1, 1)
        assert direction.norm == 0.0
        assert direction.causal == "lightlike"


class TestElementaryFamily:
    def test_reproduces_linear_branch_catalog_profiles(self):
        spec = family_thm16(1.0, 1.0, xi_range=(1.0, 100.0))
        phi_ref = Profile.from_expression("sqrt(xi/20)", (0.0, math.inf))
        f_ref = Profile.from_expression("sqrt(20/xi)", (0.0, math.inf))
        h_ref = Profile.from_expression("20*ln(xi)", (0.0, math.inf))
        worst = 0.0
        for xi in np.linspace(1.0, 100.0, 120):
            xi = float(xi)
            worst = max(worst,
                        abs(spec.phi.value(xi) - phi_ref.value(xi)),
                        abs(spec.f.value(xi) - f_ref.value(xi)),
                        abs(spec.h.value(xi) - h_ref.value(xi)))
        assert worst < 1e-9

    def test_arctan_branch(self):
        spec = family_thm16(1.0, 2.0, k3=-0.05, xi_range=(1.0, 25.0))
        assert spec.label == "elementary-family"
        # phi^2 = sqrt(-k1/(20 k3)) tan(w xi)
        r = math.sqrt(1.0 / 1.0)
        w = math.sqrt(1.0 * 1.0) / 20.0
        for xi in (2.0, 9.0, 20.0):
            assert spec.phi.value(xi) ** 2 == pytest.approx(
                r * math.tan(w * xi), rel=1e-12)
            assert spec.f.value(xi) == pytest.approx(2.0 / spec.phi.value(xi))

    def test_arctan_branch_validity_window(self):
        # the tangent blows up at w*sigma = pi/2, i.e. xi = 10 pi here
        with pytest.raises(FamilyConstructionError,
                           match="does not cover xi_range"):
            family_thm16(1.0, 1.0, k3=-0.05, xi_range=(1.0, 40.0))

    @pytest.mark.parametrize("branch", ["inner", "outer"])
    def test_hyperbolic_branches_certify(self, branch):
        spec = family_thm16(1.0, 1.0, k3=0.05, xi_range=(0.5, 30.0),
                            branch=branch)
        b = math.sqrt(1.0 / 1.0)
        w = 1.0 / 20.0
        xi = 7.0
        expected = b * math.tanh(w * xi) if branch == "inner" \
            else b / math.tanh(w * xi)
        assert spec.phi.value(xi) ** 2 == pytest.approx(expected, rel=1e-12)

    def test_inner_branch_stays_below_turning_value(self):
        spec = family_thm16(1.0, 1.0, k3=0.05, xi_range=(0.5, 30.0))
        cap = 1.0 / (20.0 * 0.05)
        assert all(spec.phi.value(float(x)) ** 4 < cap
                   for x in np.linspace(0.6, 29.0, 50))

    def test_negative_k1_reflection(self):
        neg = family_thm16(-1.0, 1.0, xi_range=(-50.0, -1.0))
        pos = family_thm16(1.0, 1.0, xi_range=(1.0, 50.0))
        for xi in (2.0, 11.0, 40.0):
            assert neg.phi.value(-xi) == pytest.approx(pos.phi.value(xi),
                                                       rel=1e-12)
            assert neg.h.value(-xi) == pytest.approx(pos.h.value(xi),
                                                     rel=1e-12)
            assert neg.h.d1(-xi) == pytest.approx(-pos.h.d1(xi), rel=1e-12)

    def test_h_matches_independent_quadrature_of_its_slope(self):
        spec = family_thm16(1.0, 1.0, k3=-0.05, xi_range=(1.0, 25.0))
        integral = CachedAntiderivative(
            lambda x: 1.0 / spec.phi.value(x) ** 2, 5.0)
        for xi in (2.0, 12.0, 24.0):
            assert spec.h.value(xi) - spec.h.value(5.0) == pytest.approx(
                integral(xi), abs=1e-8)

    def test_dimension_sum_enforced(self):
        with pytest.raises(FamilyConstructionError,
                           match=r"n \+ d = 6"):
            family_thm16(1.0, 1.0, xi_range=(1.0, 5.0), n=4, d=3)

    def test_base_dimension_enforced(self):
        with pytest.raises(FamilyConstructionError, match="n >= 3"):
            family_thm16(1.0, 1.0, xi_range=(1.0, 5.0), n=2, d=4)

    def test_nonzero_constants_enforced(self):
        with pytest.raises(FamilyConstructionError, match="nonzero"):
            family_thm16(0.0, 1.0, xi_range=(1.0, 5.0))

    def test_negative_k1_arctan_branch_certifies(self):
        # the reflection of k1 = 1, k3 = -0.05, valid on (-10 pi, 0)
        spec = family_thm16(-1.0, 1.0, k3=0.05, xi_range=(-25.0, -1.0))
        assert certify(spec).verdict == "certified"
        for xi in (-20.0, -2.0):
            phi = spec.phi.value(xi)
            assert spec.h.d1(xi) == pytest.approx(-1.0 / phi ** 2, rel=1e-14)

    def test_branch_name_validated(self):
        with pytest.raises(FamilyConstructionError, match="branch"):
            family_thm16(1.0, 1.0, k3=0.05, xi_range=(1.0, 5.0),
                         branch="middle")

    def test_lightlike_alpha_rejected(self):
        sig, direction = default_lightlike_frame(5)
        with pytest.raises(FamilyConstructionError, match="lightlike"):
            family_thm16(1.0, 1.0, xi_range=(1.0, 5.0), sig=sig,
                         alpha=direction.alpha)


class TestLambertFamily:
    KW = dict(lambda_f=-0.5, xi_range=(-0.5, 1.0))

    def test_constructs_and_certifies(self):
        spec = family_thm15(1.0, 1.0, -0.2, **self.KW)
        assert spec.label == "lambert-family(q=statement)"
        report = certify(spec)
        assert report.verdict == "certified"

    def test_anchor_value(self):
        spec = family_thm15(1.0, 1.0, -0.2, k4=0.3, lambda_f=-0.5,
                            xi_range=(-0.45, 0.6), phi0=1.1)
        assert spec.phi.value(-0.3) == pytest.approx(1.1, abs=1e-12)

    def test_slope_satisfies_lambert_relation(self):
        # phi' = -(q/p)(1 + W(k3 e^{-p^2/(4 q phi^4)})) phi^3, rebuilt here
        # from scratch
        k1, k2, k3 = 1.0, 1.0, -0.2
        spec = family_thm15(k1, k2, k3, **self.KW)
        p, q = k1 / 10.0, -0.5 / (10.0 * k2 ** 2)
        for xi in (-0.4, 0.0, 0.5, 0.9):
            phi = spec.phi.value(xi)
            w = lambert_w(k3 * math.exp(-p * p / (4.0 * q * phi ** 4)))
            expected = -(q / p) * (1.0 + w) * phi ** 3
            assert spec.phi.d1(xi) == pytest.approx(expected, rel=1e-9)

    def test_quadrature_and_ode_paths_agree(self):
        qd = family_thm15(1.0, 1.0, -0.2, **self.KW)
        od = family_thm15(1.0, 1.0, -0.2, construction="ode", **self.KW)
        for xi in np.linspace(-0.45, 0.95, 29):
            xi = float(xi)
            assert abs(qd.phi.value(xi) - od.phi.value(xi)) < 1e-10
            assert abs(qd.phi.d1(xi) - od.phi.d1(xi)) < 1e-9
            assert abs(qd.phi.d2(xi) - od.phi.d2(xi)) < 1e-8
        xs = np.linspace(-0.45, 0.95, 29)
        h_qd, h_od = (spec.h.jet(xs, d2=False)[0] for spec in (qd, od))
        assert np.max(np.abs((h_qd - h_qd[0]) - (h_od - h_od[0]))) < 1e-9

    def test_k3_zero_closed_form(self):
        # s = phi^-2 = 1 + (2q/p) xi, and h = (k1 p/(4q)) s^2 + k1/p
        spec = family_thm15(1.0, 1.0, 0.0, lambda_f=-0.5,
                            xi_range=(-0.2, 0.5))
        p, q = 0.1, -0.05
        for xi in (-0.15, 0.0, 0.45):
            s = 1.0 + (2.0 * q / p) * xi
            assert spec.phi.value(xi) == pytest.approx(s ** -0.5, rel=1e-12)
            assert spec.h.value(xi) == pytest.approx(
                (p / (4.0 * q)) * s * s + 1.0 / p, rel=1e-13)

    def test_k3_zero_sign_consistency_window(self):
        # 1/phi^2 = 1 - (xi + k4) crosses zero at xi = 1
        with pytest.raises(FamilyConstructionError,
                           match="leaves the positive axis"):
            family_thm15(1.0, 1.0, 0.0, lambda_f=-0.5, xi_range=(-0.2, 1.5))

    @pytest.mark.parametrize("params,named", [
        ({"k2": 1e200}, "q = lambda_F/(10 k2^2 ||alpha||^2) at k2=1e+200"),
        ({"k2": 1e-200}, "q = lambda_F/(10 k2^2 ||alpha||^2) at k2=1e-200"),
        ({"phi0": 1e-200}, "s0 = phi0^-2 at phi0=1e-200"),
        ({"phi0": 1e200}, "s0 = phi0^-2 at phi0=1e+200"),
        ({"k1": 1e-320}, "c = -p^2/(4q) at k1=1e-320"),
        ({"k1": 5e-324}, "p = k1/10 at k1=5e-324"),
    ])
    @pytest.mark.parametrize("construction", ["quadrature", "ode"])
    def test_parameters_past_double_range_rejected(self, params, named,
                                                   construction):
        # each of q, p, c and s0 under- or overflows to zero or infinity
        with pytest.raises(FamilyConstructionError,
                           match=re.escape(named) + ".* comes out zero or "
                                                    "not finite"):
            family_thm15(**{**THM15_COMMON, "k3": -0.2, **params},
                         construction=construction)

    def test_second_derivative_against_stencil(self):
        # d2 comes through the Lambert chain rule; the stencil only sees
        # values
        spec = family_thm15(1.0, 1.0, -0.2, **self.KW)
        for xi in (-0.3, 0.2, 0.8):
            fd = central_d2(spec.phi.value, xi, step=1e-4)
            assert spec.phi.d2(xi) == pytest.approx(fd, abs=1e-6)

    def test_lower_branch_accepted(self):
        spec = family_thm15(1.0, 1.0, -0.2, lambda_f=-0.5,
                            xi_range=(-0.1, 0.1), w_branch="lower")
        assert spec.phi.value(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_proof_variant_fails_certification(self):
        with pytest.raises(FamilyConstructionError, match="residual"):
            family_thm15(1.0, 1.0, 0.0, lambda_f=-0.5,
                         xi_range=(-0.2, 0.05), q_variant="proof")

    def test_range_beyond_maximal_interval(self):
        with pytest.raises(FamilyConstructionError,
                           match="maximal interval"):
            family_thm15(1.0, 1.0, -0.2, lambda_f=-0.5, xi_range=(-0.5, 8.0))

    def test_declared_end_inside_the_grid_margin(self):
        # phi -> inf at xi = 1.3609272635, past the 1%-clipped grid's top
        # end but before the declared end
        with pytest.raises(FamilyConstructionError, match=r"xi target 1\.37 "
                           "lies outside the maximal interval"):
            family_thm15(1.0, 1.0, -0.2, lambda_f=-0.5, xi_range=(-0.3, 1.37))

    @pytest.mark.parametrize("k3,phi0,end", [
        # a double root of F at z = 1, where xi diverges logarithmically
        (-math.exp(-1.0), 1.0, r"\(z -> 1\.0\)"),
        # the anchor z0 = -5e6 leaves x = z - z0 no resolution near z = 0
        (-0.5, 0.01, r"\(z -> inf\)")])
    def test_travel_that_does_not_converge(self, k3, phi0, end):
        with pytest.raises(FamilyConstructionError,
                           match="travel integral toward the lower end of the"
                           " maximal interval " + end + " does not converge"):
            family_thm15(1.0, 1.0, k3, lambda_f=0.5, xi_range=(-0.1, 0.1),
                         phi0=phi0)

    def test_range_reaching_where_the_w_argument_overflows(self):
        """k3 exp(c s^2) overflows past s = 119.1 (xi = -7.8225), but in the
        chart z = ln(W/k3) nothing does: the maximal interval of k3 = 0.2
        ends at xi = -7.9911, where z -> +inf and phi -> 0."""
        spec = family_thm15(1.0, 1.0, 0.2, lambda_f=-0.5,
                            xi_range=(-7.9, 0.3))
        assert spec.phi.value(-7.8) < 0.1

    def test_parameter_validation(self):
        with pytest.raises(FamilyConstructionError, match=r"n \+ d = 6"):
            family_thm15(1.0, 1.0, 0.1, lambda_f=-0.5, xi_range=(0.0, 1.0),
                         n=4, d=3)
        with pytest.raises(FamilyConstructionError, match="nonzero"):
            family_thm15(0.0, 1.0, 0.1, lambda_f=-0.5, xi_range=(0.0, 1.0))
        with pytest.raises(FamilyConstructionError, match="own family"):
            family_thm15(1.0, 1.0, 0.1, lambda_f=0.0, xi_range=(0.0, 1.0))
        with pytest.raises(FamilyConstructionError, match="q_variant"):
            family_thm15(1.0, 1.0, 0.1, lambda_f=-0.5, xi_range=(0.0, 1.0),
                         q_variant="paper")
        # s = 4 lies past the wall s_w = 3.49 of k3 = -0.2
        with pytest.raises(FamilyConstructionError,
                           match="not defined at the anchor"):
            family_thm15(1.0, 1.0, -0.2, lambda_f=-0.5, xi_range=(-0.1, 0.1),
                         phi0=0.5)

    @pytest.mark.parametrize("construction", ["quadrature", "ode"])
    def test_anchor_past_the_wall_same_error_in_both_constructions(
            self, construction):
        # s = 1/phi0^2 = 4 lies past the wall s_w = 3.49 of k3 = -0.2: the
        # anchor is checked before either construction runs
        with pytest.raises(FamilyConstructionError,
                           match=r"not defined at the anchor phi0=0\.5"):
            family_thm15(1, 1, -0.2, lambda_f=-0.5, xi_range=(-0.3, 0.4),
                         construction=construction, phi0=0.5)

    def test_maximal_interval_in_closed_form(self):
        """The chart's ends in z = ln(W/k3) are the roots -W(k3) of
        F(z) = z + k3 e^z nearest the anchor, or -inf (c < 0) and +inf
        (k3/c > 0); F/c > 0 between them."""
        from yamabe.families import _chart_ends
        p, inf = 0.1, math.inf
        for q, k3, s0, branch, ends in (
                (-0.05, -0.2, 1.0, "principal", "rr"),
                (-0.05, -0.2, 1.0, "lower", "rr"),
                (-0.05, 0.2, 1.0, "principal", "r+"),
                (0.05, -0.2, 1.0, "principal", "-r"),
                (0.05, -0.2, 1.0, "lower", "r+"),
                (0.05, 0.2, 1.0, "principal", "-r"),
                (0.05, -0.5, 4.0, "principal", "-+")):
            c = -p * p / (4.0 * q)
            z0 = c * s0 * s0 - lambert_w(k3 * math.exp(c * s0 * s0), branch)
            lo, hi = _chart_ends(k3, z0)
            for end, kind in zip((lo, hi), ends):
                if kind == "r":
                    assert abs(end + k3 * math.exp(end)) <= 1e-15
                else:
                    assert end == (inf if kind == "+" else -inf)
            zs = np.linspace(max(lo, z0 - 30.0), min(hi, z0 + 30.0), 203)
            assert np.all((zs + k3 * np.exp(zs))[1:-1] / c > 0.0)

    def test_whole_maximal_interval_against_scipy_ode(self):
        """The README case: the maximal interval runs from the blow-up at
        xi = -9.0835973218 through the wall at -5.066 to the blow-up at
        1.3609272635. With 1% margins, phi and phi' agree with scipy's
        solve_ivp of the profile ODE from the anchor within 1e-9."""
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        p, q = 0.1, -0.05
        spec = family_thm15(1.0, 1.0, -0.2, lambda_f=-0.5,
                            xi_range=(-9.08359732179, 1.3609272635),
                            run_certify=False)
        xs = grid_points(spec.domain, 200)
        phi, dphi, _ = spec.phi.jet(xs)
        y0 = [1.0, -(q / p) * (1.0 + lambert_w(-0.2 * math.exp(0.05)))]

        def rhs(xi, y):
            return [y[1], (3.0 * y[0] * y[1] ** 2 - p * y[1]
                           - q * y[0] ** 3) / y[0] ** 2]

        for side in (xs < 0.0, xs >= 0.0):
            t = xs[side] if xs[side][0] >= 0.0 else xs[side][::-1]
            run = solve_ivp(rhs, (0.0, t[-1]), y0, method="DOP853",
                            t_eval=t, rtol=1e-12, atol=1e-14)
            ref = run.y[:, np.argsort(t)]
            assert np.max(np.abs(phi[side] - ref[0]) / ref[0]) <= 1e-9
            assert np.max(np.abs(dphi[side] - ref[1])
                          / np.abs(ref[1])) <= 1e-9

    def test_lower_branch_is_a_translate_or_another_component(self):
        """With c > 0 and k3 < 0 both W branches lie on one maximal
        solution, and 'lower' at phi0 = 1 is the principal solution
        translated by 8.4233490036; with c < 0 it is another solution,
        with a bounded maximal interval where the principal one is not."""
        def interval(**kw):
            with pytest.raises(FamilyConstructionError) as err:
                family_thm15(1.0, 1.0, -0.2, xi_range=(-1e4, 1e4), **kw)
            inside = str(err.value).split("maximal interval (")[1]
            return [float(v) for v in inside.split(")")[0].split(",")]

        shift = 8.4233490036
        lower = interval(lambda_f=-0.5, w_branch="lower")
        assert np.allclose(np.array(lower) - shift,
                           [-9.0835973218, 1.3609272635], atol=1e-10)
        principal = family_thm15(1.0, 1.0, -0.2, lambda_f=-0.5,
                                 xi_range=(-0.3, 0.4))
        translate = family_thm15(1.0, 1.0, -0.2, lambda_f=-0.5,
                                 xi_range=(-0.3 + shift, 0.4 + shift),
                                 w_branch="lower")
        xs = grid_points(principal.domain, 50)
        assert np.allclose(principal.phi.jet(xs),
                           translate.phi.jet(xs + shift), rtol=0.0,
                           atol=1e-9)
        assert interval(lambda_f=0.5)[1] == math.inf
        assert max(map(abs, interval(lambda_f=0.5, w_branch="lower"))) < 5.0


class TestLambertFamilyArrays:
    @pytest.mark.parametrize("case", THM15_QUADRATURE_CASES + [
        {"k3": 0.0, "construction": "ode"}])
    def test_quadrature_profile_against_scipy_quad(self, case):
        """phi solves xi = int_1^phi dt/(u t^3), and h differences are the
        integrals of k1/phi^2: both rebuilt with scipy's quad and scipy's
        Lambert W, within 1e-10. The last case is the ode construction."""
        quad = pytest.importorskip("scipy.integrate").quad
        scipy_w = pytest.importorskip("scipy.special").lambertw
        params = {**THM15_COMMON, **case}
        spec = family_thm15(params["k1"], params["k2"], params["k3"],
                            **{k: v for k, v in params.items()
                               if k not in ("k1", "k2", "k3")})
        p, q = 0.1, params["lambda_f"] / 10.0
        branch = -1 if case.get("w_branch") == "lower" else 0

        def u(t):
            arg = params["k3"] * math.exp(-p * p / (4.0 * q * t ** 4))
            return -(q / p) * (1.0 + scipy_w(arg, branch).real)

        xs = grid_points(Interval(*params["xi_range"]), 15)
        for xi in xs:
            travel, _ = quad(lambda t: 1.0 / (u(t) * t ** 3), 1.0,
                             spec.phi.value(xi), epsabs=1e-13, epsrel=1e-13)
            assert abs(travel - xi) <= 1e-10
        for left, right in zip(xs, xs[1:]):
            rise, _ = quad(lambda x: 1.0 / spec.phi.value(x) ** 2, left,
                           right, epsabs=1e-13, epsrel=1e-13)
            step = spec.h.value(right) - spec.h.value(left)
            assert abs(step - rise) <= 1e-10

    @pytest.mark.parametrize("construction", ["quadrature", "ode"])
    def test_h_reads_phi_jet_without_quadrature(self, monkeypatch,
                                                construction):
        """Once phi is solved on an array, h's jet there is a closed form
        over phi's jet: no Gauss-Kronrod panel and no inversion."""
        import yamabe.families as families_module
        spec = family_thm15(**{**THM15_COMMON, "k3": -0.2,
                               "construction": construction},
                            run_certify=False)
        xs = grid_points(spec.domain, 40)
        spec.phi.jet(xs)
        calls = []
        for name in ("gauss_kronrod", "invert_monotone"):
            monkeypatch.setattr(families_module, name,
                                lambda *a, name=name, **k: calls.append(name))
        h = np.array(spec.h.jet(xs))
        assert calls == [] and np.isfinite(h).all()

    def test_travel_integrand_work(self, monkeypatch):
        """The travel integral is thm15's only integrand, and it is read on
        whole 21-node Kronrod panels: one build plus a grid-200 certify
        feeds it under 30,000 nodes."""
        import yamabe.families as families_module
        from yamabe.numerics import gauss_kronrod
        shapes = []

        def counted(f, a, b):
            def integrand(x):
                shapes.append(x.shape)
                return f(x)
            return gauss_kronrod(integrand, a, b)

        monkeypatch.setattr(families_module, "gauss_kronrod", counted)
        spec = family_thm15(**{**THM15_COMMON, "k3": -0.2})
        assert certify(spec, grid_size=200).verdict == "certified"
        assert shapes and all(len(s) == 2 and s[1] == 21 for s in shapes)
        assert sum(rows * cols for rows, cols in shapes) < 30_000

    @pytest.mark.parametrize("gap", [1e-3, 3e-4, 1e-5])
    def test_range_reaching_close_to_the_wall(self, gap):
        """The wall phi = 0.5352 (xi = -5.066027636) of k3 = -0.2, where
        W's argument reaches -1/e and u = 0, is an interior point of the
        chart; the first grid point here sits gap from it in xi. The
        reference integrates in w = W itself, where the integrand of the
        travel integral, p / (4 c q s w) with s = sqrt((ln(w/k3) + w)/c) and
        c = -p^2/(4q), stays smooth at the wall."""
        quad = pytest.importorskip("scipy.integrate").quad
        scipy_w = pytest.importorskip("scipy.special").lambertw
        # the grid's 1% margin puts its first point at wall + gap
        lo = (-5.066027636174845 + gap - 0.01 * 0.3) / 0.99
        spec = family_thm15(1.0, 1.0, -0.2, lambda_f=-0.5,
                            xi_range=(lo, 0.3))
        k3, p, q = -0.2, 0.1, -0.05
        c = -p * p / (4.0 * q)

        def w_at(phi):
            return scipy_w(k3 * math.exp(c / phi ** 4)).real

        def integrand(w):
            s = math.sqrt((math.log(w / k3) + w) / c)
            return p / (4.0 * c * q * s * w)

        for xi in grid_points(spec.domain, 200)[:3]:
            phi = spec.phi.value(xi)
            assert 0.5351 < phi < 0.5353
            travel, _ = quad(integrand, w_at(1.0), w_at(phi), epsabs=1e-13,
                             epsrel=1e-13)
            assert abs(travel - xi) <= 1e-10
        assert certify(spec).verdict == "certified"

    @pytest.mark.parametrize("case", THM15_QUADRATURE_CASES + [
        {"k3": -0.2, "construction": "ode"}, {"k3": 0.0}])
    def test_jets_equal_scalar_calls_bitwise(self, case):
        spec = family_thm15(**{**THM15_COMMON, **case})
        xs = grid_points(spec.domain, 25)
        for name in ("phi", "f", "h"):
            profile = getattr(spec, name)
            jet = profile.jet(xs)
            scalar = np.array([[fn(x) for x in xs] for fn in
                               (profile.value, profile.d1, profile.d2)])
            assert np.array(jet).tobytes() == scalar.tobytes(), name

    def test_points_come_out_the_same_in_any_array(self):
        """The range passes through the wall at -5.066; every solve shares
        one bracket and one start, so a point's jet does not depend on the
        array."""
        spec = family_thm15(1.0, 1.0, -0.2, lambda_f=-0.5,
                            xi_range=(-5.1, 0.3), run_certify=False)
        xs = grid_points(spec.domain, 200)
        whole = np.array(spec.phi.jet(xs))
        for i in range(0, 200, 8):
            x = float(xs[i])
            alone = [spec.phi.value(x), spec.phi.d1(x), spec.phi.d2(x)]
            assert np.array(alone).tobytes() == whole[:, i].tobytes()
            for part, j in ((xs[i:i + 2], 0), (xs[:i + 1], i), (xs[i:], 0)):
                got = np.array(spec.phi.jet(part))[:, j]
                assert got.tobytes() == whole[:, i].tobytes()

    def test_root_end_points_come_out_the_same_in_any_array(self,
                                                            monkeypatch):
        """The README member over its maximal interval, whose two ends are
        roots of F: the chart takes its root-end form only for an array
        holding a point with e < 0.5 at a root end, and every such point
        keeps it, so a point read alone equals its entry in an array that
        holds interior points and points of both root-end zones."""
        import yamabe.families as families_module
        solved = []

        def recorded(g, targets, bracket, *args, **kwargs):
            y = invert_monotone(g, targets, bracket, *args, **kwargs)
            solved.append((bracket, y))
            return y

        monkeypatch.setattr(families_module, "invert_monotone", recorded)
        spec = family_thm15(1.0, 1.0, -0.2, lambda_f=-0.5,
                            xi_range=(-9.08359732179, 1.3609272635),
                            run_certify=False)
        xs = grid_points(spec.domain, 200)
        whole = [np.array(getattr(spec, name).jet(xs))
                 for name in ("phi", "f", "h")]
        (lower, upper), y = solved[-1]
        e = 1.0 - y / np.where(y >= 0.0, upper, lower)
        zones = [(e < 0.5) & (y < 0.0), (e < 0.5) & (y >= 0.0), e >= 0.5]
        assert all(zone.any() for zone in zones)
        for i in range(len(xs)):
            for name, jets in zip(("phi", "f", "h"), whole):
                alone = np.array(getattr(spec, name).jet(xs[i:i + 1]))
                assert alone[:, 0].tobytes() == jets[:, i].tobytes(), (name, i)

    def test_saturating_range_fails_before_any_inversion(self, monkeypatch):
        """The benchmark's q = proof case: phi blows up at xi = 0.135, below
        the top of the range, and the construction says so without
        inverting."""
        import yamabe.families as families_module
        calls = []
        monkeypatch.setattr(families_module, "invert_monotone",
                            lambda *a, **k: calls.append(a))
        with pytest.raises(FamilyConstructionError,
                           match="maximal interval"):
            family_thm15(**{**THM15_COMMON, "k3": -0.2,
                            "q_variant": "proof"})
        assert calls == []

    def test_error_names_the_blow_up_as_the_lower_end(self):
        with pytest.raises(FamilyConstructionError,
                           match=r"maximal interval \(") as err:
            family_thm15(1.0, 1.0, -0.2, lambda_f=-0.5, xi_range=(-9.2, 0.3))
        lower = float(str(err.value).split("maximal interval (")[1]
                      .split(",")[0])
        assert abs(lower - -9.0835973218) <= 1e-9

    def test_a_geodesic_runs_through_the_wall(self):
        """The range reaches past the wall at -5.066, an ordinary point of
        the chart: phi is defined there, and a geodesic that crosses it
        runs on to the end of the domain and stops with a reason."""
        spec = family_thm15(1.0, 1.0, -0.2, lambda_f=-0.5,
                            xi_range=(-5.07, 0.3))
        assert np.isfinite(spec.phi.jet([-5.068])).all()
        run = integrate_geodesic(spec, [-5.03, 0, 0], [-1, 0, 0], [0, 0, 0],
                                 [0, 0, 0], s_span=(0, 1))
        assert run.stop_reason == "domain-exit"
        assert run.rows[-1, 1] < -5.066

    def test_certify_runs_no_scalar_closure(self, monkeypatch):
        spec = family_thm15(**{**THM15_COMMON, "k3": -0.2})
        for name in ("value", "d1", "d2"):
            monkeypatch.setattr(Profile, name, None)
        spec.phi.require_positive(spec.domain, name="phi")
        spec.f.require_positive(spec.domain, name="f")
        assert certify(spec, grid_size=200).verdict == "certified"

    def test_one_inversion_per_grid(self, monkeypatch):
        import yamabe.families as families_module
        calls = []
        invert = families_module.invert_monotone
        monkeypatch.setattr(families_module, "invert_monotone",
                            lambda g, t, *a, **k: calls.append(len(t))
                            or invert(g, t, *a, **k))
        spec = family_thm15(**{**THM15_COMMON, "k3": -0.2},
                            run_certify=False)
        # phi = s^(-1/2) is positive by construction: no positivity check
        assert calls == []
        certify(spec, grid_size=200)
        # the grid and classify's 16 h' points in one call
        assert calls == [216]
        calls.clear()
        certify(family_thm15(**{**THM15_COMMON, "k3": -0.2},
                             run_certify=True), grid_size=200)
        # the build's 120-point certify, the 200-point one
        assert calls == [136, 216]


SEC_DOMAIN = (-HALF_PI, HALF_PI)


def sec_profile():
    return Profile.from_expression("sec(xi)", SEC_DOMAIN)


class TestRiccati:
    def test_constant_solution_for_secant(self):
        z = Profile.constant(-0.5, SEC_DOMAIN)
        worst = max(abs(riccati_residual(z, sec_profile(), 4, 3, x))
                    for x in grid_points(Interval(-1.4, 1.4), 64))
        assert worst < 1e-14

    def test_residual_spot_value(self):
        z = Profile.constant(0.3, SEC_DOMAIN)
        assert riccati_residual(z, sec_profile(), 4, 3, 0.0) == pytest.approx(
            -0.16, abs=1e-12)

    def test_general_solution_still_solves(self):
        z0 = Profile.constant(-0.5, SEC_DOMAIN)
        phi = sec_profile()
        z = riccati_general_solution(z0, 3, 2.5, (-1.4, 1.4))
        worst = max(abs(riccati_residual(z, phi, 4, 3, x))
                    for x in grid_points(Interval(-1.3, 1.3), 48))
        assert worst < 1e-10
        assert z.value(0.0) != z0.value(0.0)

    def test_z0_defined_on_xi_range_alone(self):
        # the potentials are solved up to one ulp inside each end, 5e-324
        # here, and a stage time of the last step rounds onto the end 0.0
        z0 = Profile.constant(-0.5, (0.0, 1.0))
        phi = sec_profile()
        z = riccati_general_solution(z0, 3, 2.5, (0.0, 1.0))
        worst = max(abs(riccati_residual(z, phi, 4, 3, x))
                    for x in [1e-300, *grid_points(Interval(0.0, 1.0), 32)])
        assert worst < 1e-10

    def test_z0_not_covering_xi_range_rejected_at_build(self):
        with pytest.raises(FamilyConstructionError,
                           match=r"z0 is defined on \(-0\.5, 0\.5\), which "
                                 r"does not cover xi_range \(-1\.0, 1\.0\)"):
            riccati_general_solution(Profile.constant(-0.5, (-0.5, 0.5)), 3,
                                     2.5, (-1.0, 1.0))

    def test_none_or_infinite_c_returns_z0(self):
        z0 = Profile.constant(-0.5, SEC_DOMAIN)
        assert riccati_general_solution(z0, 3, None, (-1.0, 1.0)) is z0
        assert riccati_general_solution(z0, 3, math.inf, (-1.0, 1.0)) is z0

    def test_denominator_crossing_reported(self):
        z0 = Profile.constant(-0.5, SEC_DOMAIN)
        with pytest.raises(FamilyConstructionError, match="denominator"):
            riccati_general_solution(z0, 3, -0.1, (-1.4, 1.4))

    def test_update_is_defined_on_xi_range_only(self):
        # the denominator is scanned on xi_range alone; past it, near
        # xi = -0.40, the update has a pole
        z0 = Profile.constant(-0.5, SEC_DOMAIN)
        z = riccati_general_solution(z0, 3, -2.0, (-1.4, -0.5))
        assert z.domain.as_tuple() == (-1.4, -0.5)
        assert math.isfinite(z.value(-0.51))
        with pytest.raises(DomainError):
            z.value(-0.399)

    def test_denominator_crossing_found_when_values_underflow(self):
        # den(xi) = xi here, and the product of two neighbouring values
        # rounds to -0.0; a product sign test let this range through
        with pytest.raises(FamilyConstructionError, match="denominator"):
            riccati_general_solution(Profile.constant(0.0), 1, 0.0,
                                     (-1e-162, 1e-162))


class TestConstantPotentialFamily:
    def test_reproduces_secant_catalog_warping_up_to_scale(self):
        spec = family_thm17(sec_profile(), Profile.constant(-0.5, SEC_DOMAIN),
                            1.0, xi_range=(-1.45, 1.45), n=4, d=3)
        assert spec.label == "constant-potential-family"
        reference = Profile.from_expression("sqrt(2*sec(xi)*exp(xi))")
        # C = 1 lands on the same solution in a different global gauge;
        # lambda_F = 0 makes the residuals invariant under constant
        # rescalings of f, so the family fixes only the shape
        for xi in (-1.3, -0.4, 0.0, 0.7, 1.4):
            assert 2.0 * spec.f.value(xi) == pytest.approx(
                reference.value(xi), rel=1e-12)

    def test_h_is_constant_and_class_trivial(self):
        spec = family_thm17(sec_profile(), Profile.constant(-0.5, SEC_DOMAIN),
                            1.0, xi_range=(-1.0, 1.0), n=4, d=3)
        assert spec.h.d1(0.3) == 0.0
        assert classify(spec).soliton_class == "trivial"

    def test_riccati_derived_input_certifies(self):
        z0 = Profile.constant(-0.5, SEC_DOMAIN)
        phi = sec_profile()
        z = riccati_general_solution(z0, 3, 3.0, (-1.2, 1.2))
        spec = family_thm17(phi, z, 2.0, xi_range=(-1.1, 1.1), n=4, d=3)
        assert certify(spec).verdict == "certified"

    def test_certify_runs_no_scalar_closure(self, monkeypatch):
        z0 = Profile.constant(-0.5, SEC_DOMAIN)
        phi = sec_profile()
        z = riccati_general_solution(z0, 3, 3.0, (-1.2, 1.2))
        spec = family_thm17(phi, z, 2.0, xi_range=(-1.1, 1.1), n=4, d=3,
                            run_certify=False)
        for name in ("value", "d1", "d2"):
            monkeypatch.setattr(Profile, name, None)
        spec.phi.require_positive(spec.domain, name="phi")
        spec.f.require_positive(spec.domain, name="f")
        assert certify(spec, grid_size=200).verdict == "certified"

    def test_non_solution_zp_rejected(self):
        with pytest.raises(FamilyConstructionError,
                           match="Riccati equation"):
            family_thm17(sec_profile(), Profile.constant(0.3, SEC_DOMAIN),
                         1.0, xi_range=(-1.0, 1.0), n=4, d=3)

    def test_zp_not_covering_xi_range_rejected_at_build(self):
        with pytest.raises(FamilyConstructionError,
                           match=r"z_p is defined on \(-0\.5, 0\.5\), which "
                                 r"does not cover xi_range \(-1\.0, 1\.0\)"):
            family_thm17(sec_profile(), Profile.constant(0.0, (-0.5, 0.5)),
                         1.0, xi_range=(-1.0, 1.0), n=4, d=3)

    def test_phi_not_covering_xi_range_rejected_at_build(self):
        # before the check this certified, with h not finite near the ends
        phi = Profile.from_expression("1/cos(xi)", (-0.995, 0.995))
        with pytest.raises(FamilyConstructionError,
                           match=r"phi is defined on \(-0\.995, 0\.995\), "
                                 r"which does not cover xi_range "
                                 r"\(-1\.0, 1\.0\)"):
            family_thm17(phi, Profile.constant(-0.5, SEC_DOMAIN), 1.0,
                         xi_range=(-1.0, 1.0), n=4, d=3)

    def test_nonpositive_inner_term_rejected(self):
        with pytest.raises(FamilyConstructionError, match="nonpositive"):
            family_thm17(sec_profile(), Profile.constant(-0.5, SEC_DOMAIN),
                         -50.0, xi_range=(-1.0, 1.0), n=4, d=3)

    def test_dimensions_free_of_sum_constraint(self):
        # unlike the n + d = 6 families this one accepts any n >= 3, d >= 1;
        # phi = const is a Riccati solution with z_p = 0
        flat = Profile.constant(1.0, (-2.0, 2.0))
        spec = family_thm17(flat, Profile.constant(0.0, (-2.0, 2.0)), 3.0,
                            xi_range=(-1.5, 1.5), n=5, d=2)
        assert certify(spec).verdict == "certified"


class TestLightlikeFamilies:
    GROW = "exp(0.2*xi)"

    def test_thm18_certifies_any_positive_profiles(self):
        phi = Profile.from_expression(self.GROW)
        f = Profile.from_expression("2 + sin(xi)")
        spec = family_thm18(phi, f, 1.0, xi_range=(-3.0, 3.0))
        assert spec.label == "lightlike-family"
        assert spec.direction.causal == "lightlike"
        assert certify(spec).verdict == "certified"

    def test_thm18_h_slope(self):
        phi = Profile.from_expression(self.GROW)
        spec = family_thm18(phi, phi, 1.0, xi_range=(-3.0, 3.0))
        for xi in (-2.0, 0.0, 2.5):
            assert spec.h.d1(xi) == pytest.approx(
                1.0 / phi.value(xi) ** 2, rel=1e-12)

    def test_thm18_requires_lightlike_alpha(self):
        phi = Profile.from_expression(self.GROW)
        sig, _ = default_lightlike_frame(4)
        with pytest.raises(FamilyConstructionError, match="lightlike"):
            family_thm18(phi, phi, 1.0, xi_range=(-1.0, 1.0), sig=sig,
                         alpha=(0.0, 1.0, 0.0, 0.0))

    def test_thm18_phi_not_covering_xi_range_rejected_at_build(self):
        phi = Profile.from_expression(self.GROW, (-0.995, 0.995))
        with pytest.raises(FamilyConstructionError,
                           match=r"phi is defined on \(-0\.995, 0\.995\), "
                                 r"which does not cover xi_range "
                                 r"\(-1\.0, 1\.0\)"):
            family_thm18(phi, Profile.from_expression("2 + sin(xi)"), 0.7,
                         xi_range=(-1.0, 1.0))

    def test_almost_soliton_f_not_covering_xi_range_rejected_at_build(self):
        f = Profile.from_expression("2 + sin(xi)", (-0.995, 0.995))
        with pytest.raises(FamilyConstructionError,
                           match=r"f is defined on \(-0\.995, 0\.995\), "
                                 r"which does not cover xi_range "
                                 r"\(-1\.0, 1\.0\)"):
            almost_soliton_lightlike(Profile.from_expression(self.GROW), f,
                                     0.7, -2.0, xi_range=(-1.0, 1.0))

    def test_almost_soliton_rho_profile(self):
        phi = Profile.from_expression(self.GROW)
        f = Profile.from_expression("exp(-0.1*xi)")
        spec = almost_soliton_lightlike(phi, f, 1.0, -2.0,
                                        xi_range=(-2.0, 2.0))
        assert spec.label == "almost-lightlike-family"
        assert spec.is_almost
        assert classify(spec).soliton_class == "almost"
        for xi in (-1.5, 0.0, 1.2):
            assert spec.rho.value(xi) == pytest.approx(
                -2.0 / f.value(xi) ** 2, rel=1e-14)
            fd = central_d2(spec.rho.value, xi, step=1e-4)
            assert spec.rho.d2(xi) == pytest.approx(fd, abs=1e-6)
        assert certify(spec).verdict == "certified"


class TestPhasePortrait:
    def test_statuses_and_row_shape(self):
        trajs = phase_portrait([(1.0, 0.5)], (-0.3, 0.3), lambda_f=-6.0)
        (traj,) = trajs
        assert traj.status == "ok"
        assert traj.rows.shape[1] == 3
        assert np.all(np.diff(traj.rows[:, 0]) >= 0.0)
        assert traj.rows[0, 0] == -0.3 and traj.rows[-1, 0] == 0.3

    def test_stationary_point(self):
        trajs = phase_portrait([(1.5, 0.0)], (-1.0, 1.0), lambda_f=0.0)
        assert trajs[0].status == "stationary"
        assert np.allclose(trajs[0].rows[:, 1], 1.5)
        assert np.all(trajs[0].rows[:, 2] == 0.0)

    def test_positivity_loss(self):
        # phi -> 0 is s = phi^-2 -> inf, where the step size collapses
        trajs = phase_portrait([(0.5, -3.0)], (0.0, 2.0), k1=-1.0,
                               lambda_f=0.0, start_xi=0.0)
        assert trajs[0].status == "positivity-loss"

    def test_either_side_reaching_s_zero_is_blowup(self):
        # phi -> 0 (s -> inf) near xi = -0.810 below the start, phi -> inf
        # (s = 0) near xi = 0.280 above it: blowup, whichever side stops
        # first
        (traj,) = phase_portrait(
            [(0.2708592171614569, 0.5317794458275387)], (-1.0, 1.0))
        assert traj.status == "blowup"
        spacing = 1.0 / 119.0
        (lo, phi_lo, _), (hi, phi_hi, _) = traj.rows[0], traj.rows[-1]
        assert -0.810 < lo < -0.810 + spacing and phi_lo < 0.05
        assert 0.280 - spacing < hi < 0.280 and phi_hi > 2.0

    def test_f6_scan_reaches_positivity_loss(self):
        """60 seeded samples over k1 in +-{0.1, 1, 10}, lambda_F in
        {-6, 0, 6, 60}, phi0 in (0.01, 2), phi0' in (-10, 10) and the span
        (-5, 5), one call per (k1, lambda_F): some lose positivity, and no
        row is non-finite."""
        rng = np.random.default_rng(6)
        k1s = rng.choice([-10.0, -1.0, -0.1, 0.1, 1.0, 10.0], 60)
        lambda_fs = rng.choice([-6.0, 0.0, 6.0, 60.0], 60)
        initials = np.column_stack([rng.uniform(0.01, 2.0, 60),
                                    rng.uniform(-10.0, 10.0, 60)])
        trajs = []
        for k1, lambda_f in sorted(set(zip(k1s, lambda_fs))):
            pick = (k1s == k1) & (lambda_fs == lambda_f)
            trajs += phase_portrait(initials[pick].tolist(), (-5.0, 5.0),
                                    k1=k1, lambda_f=lambda_f)
        assert len(trajs) == 60
        assert "positivity-loss" in {t.status for t in trajs}
        assert all(np.isfinite(t.rows).all() for t in trajs)

    @pytest.mark.parametrize("initial", [
        (math.inf, 0.0), (-math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf),
        (1e-9, math.nan)])
    def test_nonfinite_initial_rejected(self, initial):
        with pytest.raises(FamilyConstructionError,
                           match=re.escape(f"initial {initial!r}")):
            phase_portrait([(1.0, 0.5), initial], (-1.0, 1.0))

    def test_initial_whose_s_slope_overflows_rejected(self):
        # s' = -2 phi'/phi^3 = -2e309 is past double range
        with pytest.raises(FamilyConstructionError, match="s' overflows"):
            phase_portrait([(1e-3, 1e300)], (-1.0, 1.0))

    def test_nonpositive_start_short_circuits(self):
        # a start on the floor is not integrated either; its one row is
        # the start
        for initial in ((-1.0, 0.0), (1e-9, 0.0)):
            trajs = phase_portrait([initial], (-1.0, 1.0), start_xi=0.25)
            assert trajs[0].status == "positivity-loss"
            assert trajs[0].rows.tolist() == [[0.25, *initial]]

    def test_blowup(self):
        trajs = phase_portrait([(2.0, 5.0)], (0.0, 20.0), lambda_f=-6.0)
        assert trajs[0].status == "blowup"

    @pytest.mark.parametrize("k2", [1e200, 1e-200])
    def test_q_past_double_range_rejected(self, k2):
        with pytest.raises(FamilyConstructionError,
                           match=re.escape(f"at k2={k2!r}, lambda_F=-6.0")):
            phase_portrait([(1.0, 0.5)], (-1.0, 1.0), k2=k2)
        # a scalar-flat fiber has q = 0 whatever k2 is
        assert phase_portrait([(1.0, 0.0)], (-1.0, 1.0), k2=k2,
                              lambda_f=0.0)[0].status == "stationary"

    def test_start_xi_validated(self):
        with pytest.raises(FamilyConstructionError, match="start_xi"):
            phase_portrait([(1.0, 0.0)], (0.0, 1.0), start_xi=5.0)

    def test_q_variant_validated_on_a_scalar_flat_fiber(self):
        # lambda_F = 0 makes q = 0 under either variant, but not under an
        # unknown one
        with pytest.raises(FamilyConstructionError, match="q_variant"):
            phase_portrait([(1.0, 0.5)], (-1.0, 1.0), lambda_f=0.0,
                           q_variant="bogus")

    @pytest.mark.parametrize("span", [(1.0, -1.0), (0.0, 0.0)])
    def test_span_validated(self, span):
        # named before start_xi, which the default start would wrongly blame
        with pytest.raises(FamilyConstructionError,
                           match=re.escape(f"xi_span {span!r}")):
            phase_portrait([(1.0, 0.5)], span)

    def test_multiple_initials_keep_order(self):
        inits = [(0.5, 0.0), (1.0, 0.5), (2.0, 0.0)]
        trajs = phase_portrait(inits, (-0.5, 0.5), lambda_f=-6.0)
        assert [t.initial for t in trajs] == inits

    @pytest.mark.parametrize("initial, status", [
        ((0.6, 0.1), "ok"), ((1.5, -0.2), "ok"),
        ((0.2708592171614569, 0.5317794458275387), "blowup")],
        ids=["initial0", "initial1", "blowup"])
    def test_rows_match_scipy_radau(self, initial, status):
        """Each side of a trajectory, from the start to its last row, against
        scipy's implicit Radau IIA on the phi form of the ODE, written out
        again here (p = k1/10 = 0.1, q = lambda_f/10 = -0.6), independent of
        the s = phi^-2 form the portrait integrates."""
        radau = pytest.importorskip("scipy.integrate").solve_ivp
        p, q = 0.1, -0.6

        def profile_ode(xi, y):
            phi, dphi = y
            return [dphi, (3.0 * phi * dphi ** 2 - p * dphi - q * phi ** 3)
                    / phi ** 2]

        (traj,) = phase_portrait([initial], (-1.0, 1.0))
        assert traj.status == status
        xi = traj.rows[:, 0]
        for side in (traj.rows[xi < 0.0][::-1], traj.rows[xi > 0.0]):
            ref = radau(profile_ode, (0.0, side[-1, 0]), initial,
                        method="Radau", rtol=1e-13, atol=1e-13,
                        t_eval=side[:, 0])
            assert ref.status == 0
            assert np.all(np.abs(side[:, 1:] - ref.y.T)
                          <= 1e-7 * np.abs(ref.y.T))

    def test_readme_thm15_member_blows_up_at_both_ends(self):
        """From the README member's (phi(0), phi'(0)) the portrait runs to
        phi -> inf at both ends of its maximal interval (-9.0835973218,
        1.3609272635), its last rows within one row spacing of them, and
        agrees with the thm15 chart within 1e-7 relative."""
        (traj,) = phase_portrait([(1.0, 0.36125068494033863)], (-10.0, 2.0),
                                 lambda_f=-0.5)
        assert traj.status == "blowup"
        xi = traj.rows[:, 0]
        assert -9.0835973218 < xi[0] < -9.0835973218 + 10.0 / 119.0
        assert 1.3609272635 - 2.0 / 119.0 < xi[-1] < 1.3609272635
        spec = family_thm15(1.0, 1.0, -0.2, lambda_f=-0.5,
                            xi_range=(-9.08359732179, 1.3609272635),
                            run_certify=False)
        phi, dphi, _ = spec.phi.jet(xi)
        assert np.max(np.abs(traj.rows[:, 1] - phi) / phi) <= 1e-7
        assert np.max(np.abs(traj.rows[:, 2] - dphi) / np.abs(dphi)) <= 1e-7

    def test_batch_rows_equal_each_initial_alone_bitwise(self):
        # ok, blowup and positivity-loss trajectories and a short-circuited
        # start share one solver call; none depends on the others
        inits = [(0.5, 0.0), (1.0, 0.5), (0.6, 0.1), (-1.0, 0.0),
                 (2.0, 5.0), (1.5, -0.2)]
        batch = phase_portrait(inits, (-1.0, 1.0))
        assert {t.status for t in batch} == {"ok", "blowup",
                                              "positivity-loss"}
        for initial, traj in zip(inits, batch):
            (alone,) = phase_portrait([initial], (-1.0, 1.0))
            assert alone.status == traj.status
            assert alone.rows.shape == traj.rows.shape
            assert alone.rows.tobytes() == traj.rows.tobytes()


def _every_constructor():
    """(id, build) pairs; build() returns one profile the package builds."""
    sec, half = sec_profile, Profile.constant(-0.5, SEC_DOMAIN)
    grow = Profile.from_expression("exp(0.2*xi)")
    cases = []
    for construction in ("quadrature", "ode"):
        for name in ("phi", "f", "h"):
            cases.append((f"thm15-{construction}-{name}",
                          lambda c=construction, n=name: getattr(
                              family_thm15(**THM15_COMMON, k3=-0.2,
                                           construction=c,
                                           run_certify=False), n)))
    thm16 = {"k3-zero": dict(k1=1.0, xi_range=(1.0, 100.0)),
             "k3-negative": dict(k1=1.0, k3=-0.05, xi_range=(1.0, 25.0)),
             "k3-positive-inner": dict(k1=1.0, k3=0.05, xi_range=(0.5, 30.0)),
             "k3-positive-outer": dict(k1=1.0, k3=0.05, xi_range=(0.5, 30.0),
                                       branch="outer"),
             "k1-negative": dict(k1=-1.0, k3=0.05, xi_range=(-25.0, -1.0))}
    for key, kw in thm16.items():
        for name in ("phi", "f", "h"):
            cases.append((f"thm16-{key}-{name}",
                          lambda kw=kw, n=name: getattr(family_thm16(
                              k2=1.0, run_certify=False, **kw), n)))
    cases += [
        ("riccati", lambda: riccati_general_solution(half, 3, 2.5,
                                                     (-1.4, 1.4))),
        ("thm17-f", lambda: family_thm17(sec(), half, 1.0,
                                         xi_range=(-1.0, 1.0), n=4, d=3,
                                         run_certify=False).f),
        ("thm18-h", lambda: family_thm18(grow, grow, 1.0,
                                         xi_range=(-3.0, 3.0),
                                         run_certify=False).h),
        ("almost-rho", lambda: almost_soliton_lightlike(
            grow, Profile.from_expression("exp(-0.1*xi)"), 1.0, -2.0,
            xi_range=(-2.0, 2.0), run_certify=False).rho),
        ("from-arrays", lambda: Profile(_cosh_arrays, (-1.5, 1.5))),
        ("from-arrays-plus-expression", lambda: Profile(
            _cosh_arrays, (-1.5, 1.5)).plus(Profile.from_expression("2*xi"))),
    ]
    return cases


def _cosh_arrays(xs, value, d1, d2):
    """A numpy form written out by hand: cosh and its derivatives."""
    return (np.cosh(xs) if value else None, np.sinh(xs) if d1 else None,
            np.cosh(xs) if d2 else None)


@pytest.mark.parametrize("build", [pytest.param(build, id=key)
                                   for key, build in _every_constructor()])
def test_every_profile_has_a_numpy_form_equal_to_its_scalars(build):
    profile = build()
    lo, hi = profile.domain.as_tuple()
    xs = grid_points(Interval(max(lo, -30.0), min(hi, 100.0)), 25)
    jet = np.array(profile.jet(xs))
    scalar = np.array([[fn(x) for x in xs] for fn in
                       (profile.value, profile.d1, profile.d2)])
    assert np.isfinite(jet).all()
    assert jet.tobytes() == scalar.tobytes()


@pytest.mark.parametrize("build", [pytest.param(build, id=key)
                                   for key, build in _every_constructor()])
def test_masked_jet_is_nan_outside_and_the_jet_inside(build):
    """Profile.jet masks every point outside the domain, a NaN point
    included, with NaN, and is bitwise the jet of the inside points there."""
    profile = build()
    lo, hi = profile.domain.as_tuple()
    inner = grid_points(Interval(max(lo, -30.0), min(hi, 100.0)), 25)
    outer = [x for x in (lo - 1.0, lo, hi, hi + 1.0) if math.isfinite(x)]
    xs = np.array([*outer[:2], *inner[:12], math.nan, *inner[12:],
                   *outer[2:]])
    inside = np.isin(xs, inner)
    assert np.count_nonzero(~inside) == len(outer) + 1
    for want in ((True, True, True), (False, True, False)):
        with np.errstate(all="ignore"):
            got = profile.jet(xs, *want)
        jet = profile.jet(inner, *want)
        for entry, asked, exact in zip(got, want, jet):
            if not asked:
                assert entry is None and exact is None
                continue
            assert np.isnan(entry[~inside]).all()
            assert entry[inside].tobytes() == exact.tobytes()
