import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from yamabe import families, specio
from yamabe.catalog import build_example, catalog
from yamabe.errors import DimensionMismatchError
from yamabe.geometry import SignatureSpec, warped_scalar_curvature
from yamabe.profiles import Interval, Profile, grid_points
from yamabe.soliton import (ANALYTIC_TOL, PointEval, Terms,
                            WarpedSolitonSpec, certify, classify,
                            full_tensor_residual, point_eval,
                            reduced_residuals)

from conftest import (THM15_COMMON, THM15_QUADRATURE_CASES, make_spec,
                      random_polynomial_spec)
from oracles import base_point_for_xi

SOLITON_KEYS = ["example-2", "example-3", "example-4", "example-5"]


def lemma_at(spec, xi, s=None):
    """``Terms.lemma`` at the one point xi of a spec with constant rho, as
    floats: (soliton function lambda, scalar identity residual, weighted
    harmonicity residual), over a PointEval that each profile's jet fills
    on a one-element array."""
    xs = np.array([xi])
    pv = PointEval(xs, *spec.phi.jet(xs), *spec.f.jet(xs),
                   *spec.h.jet(xs, value=False)[1:], spec.rho)
    return tuple(float(np.squeeze(v)) for v in Terms(spec, pv).lemma(s))


def certify_entry(key):
    entry = catalog()[key]
    spec = entry.build()
    return certify(spec, interval=Interval(*entry.certify_interval))


class TestSpecValidation:
    def test_fiber_dimension_floor(self):
        spec = make_spec("exp(xi)", "exp(xi)", "xi")
        with pytest.raises(DimensionMismatchError):
            dataclasses.replace(spec, d=0)

    def test_alpha_length_checked(self):
        spec = make_spec("exp(xi)", "exp(xi)", "xi")
        other = SignatureSpec.euclidean(5)
        with pytest.raises(DimensionMismatchError):
            dataclasses.replace(spec, sig=other)

    def test_rho_at_constant_and_profile(self):
        spec = make_spec("exp(xi)", "exp(xi)", "xi", rho=3.0)
        assert spec.rho_at(0.7) == 3.0
        almost = dataclasses.replace(spec, rho=Profile.from_expression("xi^2"))
        assert almost.is_almost
        assert almost.rho_at(0.5) == 0.25


class TestCatalogResiduals:
    @pytest.mark.parametrize("key", SOLITON_KEYS)
    def test_reduced_residuals_vanish(self, key):
        entry = catalog()[key]
        spec = entry.build()
        interval = Interval(*entry.certify_interval)
        worst = 0.0
        for xi in grid_points(interval, 80):
            for value in reduced_residuals(spec, xi).values():
                worst = max(worst, abs(value))
        assert worst < 1e-8

    @pytest.mark.parametrize("key", SOLITON_KEYS)
    def test_certified(self, key):
        report = certify_entry(key)
        assert report.verdict == "certified"
        assert all(st.max_abs_residual <= report.tolerance
                   for st in report.equations.values())

    def test_residual_keys(self):
        spacelike = build_example("example-2")
        keys = set(reduced_residuals(spacelike, 5.0))
        assert keys == {"h-ode", "diag-1", "diag-2"}
        lightlike = build_example("example-5")
        assert set(reduced_residuals(lightlike, 0.0)) == {"h-ode", "lightlike"}

    def test_perturbed_rho_rejected(self):
        spec = dataclasses.replace(build_example("example-2"), rho=1e-3)
        report = certify(spec, interval=Interval(1.0, 20.0))
        assert report.verdict == "rejected"

    def test_perturbed_profile_rejected(self):
        spec = build_example("example-2")
        spec = dataclasses.replace(
            spec, f=Profile.from_expression("sqrt(20/xi) + 0.01*xi",
                                            spec.f.domain))
        report = certify(spec, interval=Interval(1.0, 20.0))
        assert report.verdict == "rejected"


class TestTensorReducedEquivalence:
    """The full tensor residual is a pointwise linear image of the reduced
    residuals; the coefficients are checked here on random profiles that are
    nowhere near solving the system."""

    def test_linear_relation_generic(self, rng):
        for _ in range(25):
            spec = random_polynomial_spec(rng, bounded=True)
            xi = float(rng.uniform(-1.5, 1.5))
            self._assert_relation(spec, xi)

    def test_linear_relation_lightlike(self, rng):
        for _ in range(25):
            spec = random_polynomial_spec(rng, lightlike=True, bounded=True)
            xi = float(rng.uniform(-1.5, 1.5))
            self._assert_relation_lightlike(spec, xi)

    @staticmethod
    def _assert_relation(spec, xi):
        reduced = reduced_residuals(spec, xi)
        tensor = full_tensor_residual(spec, base_point_for_xi(spec.direction, xi))
        n = spec.n
        a = np.asarray(spec.direction.alpha)
        eps = np.asarray(spec.sig.epsilon, dtype=float)
        phi2 = spec.phi.value(xi) ** 2
        expected = (np.diag(eps) * reduced["diag-1"] / phi2
                    - np.outer(a, a) * reduced["h-ode"])
        scale = max(1.0, np.max(np.abs(tensor)))
        assert np.max(np.abs(tensor[:n, :n] - expected)) < 1e-10 * scale
        fiber = reduced["diag-2"] * spec.f.value(xi) ** 2
        assert abs(tensor[n, n] - fiber) < 1e-10 * scale

    @staticmethod
    def _assert_relation_lightlike(spec, xi):
        reduced = reduced_residuals(spec, xi)
        tensor = full_tensor_residual(spec, base_point_for_xi(spec.direction, xi))
        n = spec.n
        a = np.asarray(spec.direction.alpha)
        eps = np.asarray(spec.sig.epsilon, dtype=float)
        phi2 = spec.phi.value(xi) ** 2
        expected = (-np.diag(eps) * reduced["lightlike"] / phi2
                    - np.outer(a, a) * reduced["h-ode"])
        scale = max(1.0, np.max(np.abs(tensor)))
        assert np.max(np.abs(tensor[:n, :n] - expected)) < 1e-10 * scale
        fiber = -reduced["lightlike"] * spec.f.value(xi) ** 2
        assert abs(tensor[n, n] + reduced["lightlike"] * spec.f.value(xi) ** 2) \
            < 1e-10 * scale
        assert abs(tensor[n, n] - fiber) < 1e-10 * scale

    def test_verdicts_agree_on_tensor_route(self):
        # certify() records both routes; on a certified spec the tensor
        # residuals pass the same tolerance
        report = certify_entry("example-3")
        assert {"tensor-base", "tensor-fiber"} <= set(report.equations)
        assert report.equations["tensor-base"].max_abs_residual <= report.tolerance


class TestLemmaIdentities:
    def test_identities_hold_on_solution(self):
        spec = build_example("example-2")
        for xi in (2.0, 7.0, 15.0):
            lam, scalar_res, weighted_res = lemma_at(spec, xi)
            assert abs(scalar_res) < 1e-10 * max(1.0, abs(lam))
            assert abs(weighted_res) < 1e-10

    def test_wrong_weight_exponent_fails(self):
        spec = build_example("example-2")
        bad = max(abs(lemma_at(spec, xi, s=spec.n + 1)[2])
                  for xi in (2.0, 7.0, 15.0))
        assert bad > 1e-3

    def test_identities_fail_off_solution(self, rng):
        spec = random_polynomial_spec(rng, bounded=True)
        worst = max(abs(lemma_at(spec, xi)[1]) for xi in (-1.0, 0.5))
        assert worst > 1e-6

    def test_lightlike_lambda_reduces(self):
        spec = build_example("example-5")
        lam, scalar_res, weighted_res = lemma_at(spec, 1.0)
        # every alpha-norm factor vanishes, so lambda collapses to
        # rho - lambda_F / f^2 and both residuals are exact zeros
        assert lam == spec.rho - spec.lambda_f / spec.f.value(1.0) ** 2
        assert scalar_res == -lam
        assert weighted_res == 0.0

    @pytest.mark.parametrize("alpha", [(0.6, -0.3, 0.8, 0.2),
                                       (1.0, 1.0, 0.0, 0.0)],
                             ids=["spacelike", "lightlike"])
    def test_scalar_identity_reads_the_reduced_s_minus_rho(self, alpha):
        """One S - rho behind both: the scalar identity residual is 'diag-2'
        bit for bit, and minus the 'lightlike' residual when every
        ||alpha||^2 term vanishes."""
        spec = make_spec("1 + 0.2*xi^2", "1.5 + 0.1*xi^2", "0.5*xi + xi^2",
                         eps=(-1, 1, 1, 1), alpha=alpha, rho=0.3,
                         lambda_f=-0.7)
        for xi in (-1.0, 0.3, 1.5):
            red = reduced_residuals(spec, xi)
            scalar_res = lemma_at(spec, xi)[1]
            if spec.direction.causal == "lightlike":
                assert scalar_res == -red["lightlike"]
            else:
                assert scalar_res == red["diag-2"]


class TestClassification:
    def test_sign_classes(self):
        base = make_spec("exp(xi)", "exp(xi)", "xi")
        assert classify(base).soliton_class == "steady"
        assert classify(dataclasses.replace(base, rho=2.0)).soliton_class == "shrinking"
        assert classify(dataclasses.replace(base, rho=-2.0)).soliton_class == "expanding"

    def test_trivial_when_h_constant(self):
        spec = make_spec("exp(xi)", "exp(xi)", "4.5", rho=2.0)
        cls = classify(spec)
        assert cls.soliton_class == "trivial"

    def test_almost(self):
        spec = make_spec("exp(xi)", "exp(xi)", "xi")
        almost = dataclasses.replace(spec, rho=Profile.from_expression("xi"))
        assert classify(almost).soliton_class == "almost"

    def test_causal_class_reported(self):
        spec = make_spec("exp(xi)", "exp(xi)", "xi",
                         eps=(-1, 1, 1, 1), alpha=(1.0, 0.0, 0.0, 0.0))
        assert classify(spec).causal == "timelike"

    def test_lightlike_positive_lambda_f_guard(self):
        spec = make_spec("exp(xi)", "exp(xi)", "xi",
                         eps=(-1, 1, 1, 1), alpha=(1.0, 1.0, 0.0, 0.0),
                         rho=0.0, lambda_f=1.0)
        cls = classify(spec)
        assert cls.rejected
        assert any("no steady or expanding soliton exists for a lightlike "
                   "direction with positive fiber scalar curvature" in g
                   for g in cls.guards)

    def test_lightlike_negative_lambda_f_guard(self):
        spec = make_spec("exp(xi)", "exp(xi)", "xi",
                         eps=(-1, 1, 1, 1), alpha=(1.0, 1.0, 0.0, 0.0),
                         rho=1.0, lambda_f=-1.0)
        cls = classify(spec)
        assert cls.rejected
        assert any("no steady or shrinking" in g for g in cls.guards)

    def test_lightlike_consistent_signs_force_f(self):
        spec = make_spec("exp(xi)", "exp(xi)", "xi",
                         eps=(-1, 1, 1, 1), alpha=(1.0, 1.0, 0.0, 0.0),
                         rho=4.0, lambda_f=1.0)
        cls = classify(spec)
        assert not cls.rejected
        assert cls.forced_f == 0.5
        assert any("forces the constant warping" in g for g in cls.guards)

    def test_spacelike_direction_has_no_guards(self):
        spec = make_spec("exp(xi)", "exp(xi)", "xi", rho=0.0, lambda_f=1.0)
        cls = classify(spec)
        assert not cls.rejected and cls.guards == ()

    def test_rejection_propagates_to_verdict(self):
        spec = make_spec("exp(xi)", "exp(xi)", "xi",
                         eps=(-1, 1, 1, 1), alpha=(1.0, 1.0, 0.0, 0.0),
                         rho=0.0, lambda_f=1.0)
        report = certify(spec)
        assert report.verdict == "rejected"
        assert any("lightlike" in note for note in report.notes)


class TestCertify:
    def test_tolerance_override(self):
        spec = make_spec("exp(xi)", "exp(xi)", "xi")
        assert certify(spec).tolerance == ANALYTIC_TOL
        assert certify(spec, tolerance=0.5).tolerance == 0.5

    def test_inconclusive_on_singularity(self):
        # sqrt leaves its domain on the negative half of the grid, so the
        # residuals cannot be evaluated there at all
        spec = make_spec("sqrt(xi)", "exp(xi)", "xi", domain=(-2.0, 2.0))
        report = certify(spec)
        assert report.verdict == "inconclusive"
        assert any("evaluation failed" in note for note in report.notes)

    def test_interval_clipped_to_domain(self):
        spec = build_example("example-3")
        report = certify(spec, interval=Interval(-5.0, 10.0))
        assert report.interval == (0.0, 10.0)

    def test_h_shift_is_bitwise_invariant(self):
        spec = build_example("example-2")
        shifted = dataclasses.replace(spec, h=spec.h.shifted(123.456))
        for xi in (1.5, 8.0, 22.0):
            assert reduced_residuals(spec, xi) == reduced_residuals(shifted, xi)

    def test_sign_variant_changes_tensor_verdict(self):
        spec = build_example("example-3")
        minus = certify(spec, interval=Interval(1.0, 25.0))
        plus = certify(spec, interval=Interval(1.0, 25.0), sign_variant="plus")
        assert minus.verdict == "certified"
        assert plus.verdict == "rejected"
        assert plus.equations["tensor-base"].max_abs_residual > 1e-3

    def test_inequality_note_present(self):
        report = certify_entry("example-2")
        assert any("base-scalar inequality" in note for note in report.notes)

    def test_report_to_dict_round_trips_fields(self):
        report = certify_entry("example-4")
        d = report.to_dict()
        assert d["verdict"] == "certified"
        assert d["classification"]["soliton"] == "trivial"
        assert set(d["equations"]) == set(report.equations)
        assert d["tolerance"] == report.tolerance

    @pytest.mark.parametrize("grid_size", [0, -5, 1, True, 200.0])
    def test_grid_size_must_be_an_int_of_at_least_2(self, grid_size):
        spec = make_spec("exp(xi)", "exp(xi)", "xi")
        with pytest.raises(ValueError, match="grid_size"):
            certify(spec, grid_size=grid_size)

    @pytest.mark.parametrize("tolerance", [math.inf, math.nan, 0.0, -1e-8])
    def test_tolerance_must_be_positive_and_finite(self, tolerance):
        # the example-2 rho + 1e-3 twin is no soliton; an infinite
        # tolerance would certify it
        spec = build_example("example-2")
        twin = dataclasses.replace(spec, rho=spec.rho + 1e-3)
        with pytest.raises(ValueError, match="tolerance"):
            certify(twin, tolerance=tolerance)

    def test_report_names_the_sampled_interval(self):
        # the grid is clipped 1 % inside each end of the named interval
        report = certify_entry("example-2")
        pts = grid_points(Interval(*report.interval), report.grid)
        assert report.sampled_interval == (pts[0], pts[-1])
        assert report.interval[0] < pts[0] < pts[-1] < report.interval[1]
        d = report.to_dict()
        assert d["sampled_interval"] == [pts[0], pts[-1]]
        assert d["interval"] == list(report.interval)


# --- array certify against the scalar functions ------------------------------

def reference_certify(spec, grid_size=200, interval=None):
    """(verdict, {key: (max |residual|, argmax xi)}) from the public scalar
    functions, one grid point at a time, with certify's failure rule: the
    first point that raises or gives a non-finite residual makes the verdict
    inconclusive and ends the maxima."""
    interval = (interval or spec.domain).clipped(spec.domain)
    tolerance = ANALYTIC_TOL
    n = spec.n
    maxima = {}
    for xi in grid_points(interval, grid_size):
        try:
            with np.errstate(all="ignore"):
                values = dict(reduced_residuals(spec, xi))
                tensor = full_tensor_residual(
                    spec, base_point_for_xi(spec.direction, xi))
        except Exception:
            return "inconclusive", maxima
        values["tensor-base"] = np.max(np.abs(tensor[:n, :n]))
        values["tensor-fiber"] = tensor[n, n]
        if not all(math.isfinite(v) for v in values.values()):
            return "inconclusive", maxima
        for key, value in values.items():
            if key not in maxima or abs(value) > maxima[key][0]:
                maxima[key] = (abs(value), xi)
    if classify(spec).rejected:
        return "rejected", maxima
    ok = all(v <= tolerance for v, _ in maxima.values())
    return ("certified" if ok else "rejected"), maxima


def _hostile(phi, f, h, *, lightlike):
    doc = {"n": 4 if lightlike else 5, "d": 2 if lightlike else 1,
           "alpha": [1, 1, 0, 0] if lightlike else [1, 0, 0, 0, 0],
           "domain": [-1, 1], "profiles": {"phi": phi, "f": f, "h": h}}
    if lightlike:
        doc["signature"] = [-1, 1, 1, 1]
    return specio.load_document(doc)[0]


def _catalog_cases():
    """Each soliton of the catalog on its certify interval, and its
    rho + 1e-3 twin."""
    cases = []
    for key in SOLITON_KEYS:
        entry = catalog()[key]
        spec = entry.build()
        interval = Interval(*entry.certify_interval)
        cases.append(pytest.param(spec, interval, id=key))
        twin = dataclasses.replace(spec, rho=spec.rho + 1e-3)
        cases.append(pytest.param(twin, interval, id=f"{key}+rho"))
    return cases


def _equivalence_cases():
    cases = _catalog_cases()
    cases += [
        pytest.param(_hostile("1", "1/xi", "xi", lightlike=True), None,
                     id="lightlike-pole-f"),
        pytest.param(_hostile("xi", "1", "-1/xi", lightlike=True), None,
                     id="lightlike-zero-phi"),
        pytest.param(_hostile("1", "1/xi^2", "0", lightlike=False), None,
                     id="spacelike-pole-f2"),
        pytest.param(make_spec(Profile(_exp_arrays, (-2.0, 2.0)), "exp(xi)",
                               "xi"), None, id="numpy-form"),
        pytest.param(make_spec("sqrt(xi)", "exp(xi)", "xi",
                               domain=(-2.0, 2.0)), None, id="sqrt-negative"),
    ]
    return cases


def _exp_arrays(xs, value, d1, d2):
    """A numpy form written out by hand: exp, which is its own derivatives."""
    e = np.exp(xs)
    return e if value else None, e if d1 else None, e if d2 else None


class TestArrayCertifyEquivalence:
    """certify evaluates the grid as arrays; the per-point reference above
    uses only the scalar public functions."""

    @staticmethod
    def _assert_same(spec, interval, grid_size=200):
        report = certify(spec, grid_size=grid_size, interval=interval)
        verdict, maxima = reference_certify(spec, grid_size, interval)
        assert report.verdict == verdict
        assert set(report.equations) == set(maxima)
        for key, (value, xi) in maxima.items():
            stat = report.equations[key]
            assert stat.max_abs_residual == value, key
            assert stat.argmax_xi == xi, key
            assert stat.samples == grid_size

    @pytest.mark.parametrize("spec,interval", _equivalence_cases())
    def test_matches_scalar_reference(self, spec, interval):
        self._assert_same(spec, interval)

    def test_matches_scalar_reference_on_thm15(self):
        spec = families.family_thm15(1.0, 1.0, -0.2, lambda_f=-0.5,
                                     xi_range=(-0.3, 0.4), run_certify=False)
        self._assert_same(spec, None, grid_size=60)

    def test_failure_ends_maxima_at_first_bad_point(self):
        def arrays(xs, value, d1, d2):
            # no value beyond 0.5
            v, e1, e2 = _exp_arrays(xs, value, d1, d2)
            return np.where(xs > 0.5, np.nan, v) if value else None, e1, e2
        spec = make_spec(Profile(arrays, (-2.0, 2.0)), "exp(xi)", "xi")
        report = certify(spec, grid_size=50)
        pts = grid_points(spec.domain, 50)
        first_bad = float(pts[pts > 0.5][0])
        assert report.verdict == "inconclusive"
        assert report.notes[0] == (f"evaluation failed at xi={first_bad!r}: "
                                   "non-finite phi")
        assert all(st.argmax_xi < first_bad
                   for st in report.equations.values())
        self._assert_same(spec, None, grid_size=50)

    def test_non_finite_residual_is_inconclusive_and_strict_json(self):
        doc = {"n": 3, "d": 1, "alpha": [1, 0, 0], "domain": [0.5, 1.0],
               "lambda_f": 1.0, "rho": 0.0,
               "profiles": {"phi": "1", "f": "1e-160", "h": "0"}}
        spec, _ = specio.load_document(doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = certify(spec)
        first = float(grid_points(spec.domain, 200)[0])
        assert report.verdict == "inconclusive"
        assert any(note.startswith(f"evaluation failed at xi={first!r}")
                   for note in report.notes)
        json.dumps(report.to_dict(), allow_nan=False)

    def test_ties_keep_the_first_grid_point(self):
        report = certify(make_spec("1", "1", "0"), grid_size=20)
        first = grid_points(Interval(-2.0, 2.0), 20)[0]
        assert report.verdict == "certified"
        assert all(st.argmax_xi == first and st.max_abs_residual == 0.0
                   for st in report.equations.values())


def grid_eval(spec, xs):
    """The PointEval of arrays that certify fills over the points xs."""
    with np.errstate(all="ignore"):
        return PointEval(xs, *spec.phi.jet(xs), *spec.f.jet(xs),
                         *spec.h.jet(xs, value=False)[1:],
                         spec.rho.jet(xs, True, False, False)[0]
                         if spec.is_almost else spec.rho)


def full_block_reference(spec, pv, sign_variant="minus"):
    """(Hess h, base block of the tensor residual), each n x n in full over
    the PointEval pv of floats or arrays:
    -(outer h'' + (2 outer - diag(eps) ||alpha||^2) (phi'/phi) h'), plus
    (S - rho) eps_i / phi^2 on the diagonal."""
    def cell(x):
        return np.asarray(x)[..., None, None]

    terms = Terms(spec, pv, sign_variant)
    factor = warped_scalar_curvature(
        terms.s_base, pv.f, terms.lap_f, terms.grad2_f, spec.lambda_f,
        spec.d, sign_variant) - pv.rho
    n = spec.n
    eps = np.asarray(spec.sig.epsilon, dtype=float)
    outer = np.outer(spec.direction.alpha, spec.direction.alpha)
    hess = (outer * cell(pv.ddh)
            + (2.0 * outer - np.diag(eps) * spec.direction.norm)
            * cell(pv.dphi / pv.phi) * cell(pv.dh))
    block = -hess
    block[..., range(n), range(n)] += (np.asarray(factor)[..., None]
                                       * (eps / np.asarray(pv.phi * pv.phi)
                                          [..., None]))
    return hess, block


def _random_direction(rng, eps):
    """A direction for the signature eps whose components repeat, vanish
    and change sign: each is drawn from a short list or uniformly."""
    while True:
        alpha = [float(rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]))
                 if rng.random() < 0.6 else float(rng.uniform(-2.0, 2.0))
                 for _ in eps]
        if any(alpha):
            return tuple(alpha)


def _block_cases():
    """(n, eps, alpha) for n = 3..6, Euclidean and Lorentzian, random and
    lightlike directions."""
    rng = np.random.default_rng(27)
    cases = []
    for n in range(3, 7):
        for eps in ((1,) * n, (-1,) + (1,) * (n - 1)):
            cases += [(n, eps, _random_direction(rng, eps)) for _ in range(3)]
        lorentz = (-1,) + (1,) * (n - 1)
        cases.append((n, lorentz, (1.0, 1.0) + (0.0,) * (n - 2)))
        cases.append((n, lorentz, (-2.0,) + (0.0,) * (n - 2) + (2.0,)))
    return cases


class TestBlockEntries:
    """Terms keeps the base block as its distinct entries; expanded, they
    are the full block bit for bit, and certify's tensor-base is their
    maximum."""

    @staticmethod
    def _assert_block(spec, pv, sign_variant):
        want_hess, want = full_block_reference(spec, pv, sign_variant)
        with np.errstate(all="ignore"):
            terms = Terms(spec, pv, sign_variant)
            got, got_hess = terms.tensor()[0], terms.hessian()
        assert got.tobytes() == want.tobytes()
        assert got_hess.tobytes() == want_hess.tobytes()
        return want

    @pytest.mark.parametrize("sign_variant", ["minus", "plus"])
    @pytest.mark.parametrize("spec,interval", _catalog_cases())
    def test_catalog_block_and_tensor_base(self, spec, interval,
                                           sign_variant):
        xs = grid_points(interval.clipped(spec.domain), 200)
        with np.errstate(all="ignore"):
            want = self._assert_block(spec, grid_eval(spec, xs),
                                      sign_variant)
        base = np.max(np.abs(want), axis=(-2, -1))
        stat = certify(spec, interval=interval,
                       sign_variant=sign_variant).equations["tensor-base"]
        assert stat.max_abs_residual == base.max()
        assert stat.argmax_xi == xs[base.argmax()]

    @pytest.mark.parametrize("sign_variant", ["minus", "plus"])
    @pytest.mark.parametrize("n,eps,alpha", _block_cases())
    def test_random_directions(self, n, eps, alpha, sign_variant):
        spec = make_spec("0.8 + 0.1*xi^2", "1.1 + 0.2*xi^2",
                         "0.7*xi + 0.3*xi^2", n=n, d=2, eps=eps, alpha=alpha,
                         rho=0.3, lambda_f=-0.4)
        xs = np.linspace(-1.5, 1.5, 31)
        with np.errstate(all="ignore"):
            want = self._assert_block(spec, grid_eval(spec, xs),
                                      sign_variant)
        for xi in xs[::10].tolist():
            point = base_point_for_xi(spec.direction, xi)
            pv = point_eval(spec, spec.direction.xi_at(point))
            want_at = self._assert_block(spec, pv, sign_variant)
            got = full_tensor_residual(spec, point, sign_variant)
            assert got[:n, :n].tobytes() == want_at.tobytes()
        assert np.all(np.isfinite(want))

    def test_infinite_second_derivative_gives_nan_off_the_support(self):
        # h'' is infinite at one grid point; where a_i a_j = 0 the entry is
        # 0 * inf = NaN, elsewhere it is infinite
        pts = grid_points(Interval(-2.0, 2.0), 200)
        bad = float(pts[60])

        def h_arrays(xs, value, d1, d2):
            return (xs.copy() if value else None,
                    np.ones(xs.shape) if d1 else None,
                    np.where(xs == bad, np.inf, 0.0) if d2 else None)

        spec = make_spec("exp(xi)", "exp(xi)", Profile(h_arrays, (-2.0, 2.0)),
                         n=4, eps=(-1, 1, 1, 1), alpha=(0.5, 0.0, -1.0, 0.0))
        for sign_variant in ("minus", "plus"):
            with np.errstate(all="ignore"):
                want = self._assert_block(spec, grid_eval(spec, pts),
                                          sign_variant)
            assert np.isnan(want[60, 0, 1]) and np.isinf(want[60, 0, 2])
            report = certify(spec, sign_variant=sign_variant)
            assert report.verdict == "inconclusive"
            assert report.notes[0] == (f"evaluation failed at xi={bad!r}: "
                                       "non-finite ddh")
            base = np.max(np.abs(want[:60]), axis=(-2, -1))
            stat = report.equations["tensor-base"]
            assert stat.max_abs_residual == base.max()
            assert stat.argmax_xi == pts[int(base.argmax())]


def _jet_profile(value, d1, d2):
    """A profile from three functions of the point array."""
    def arrays(xs, want_value, want_d1, want_d2):
        return (value(xs) if want_value else None,
                d1(xs) if want_d1 else None, d2(xs) if want_d2 else None)
    return Profile(arrays, (-2.0, 2.0))


class TestFailureNote:
    """The note names the earliest grid point where a field is not finite
    and, at that point, the first field in PointEval order, then in residual
    order; the maxima come from the points before it."""

    PTS = grid_points(Interval(-2.0, 2.0), 200)

    def _assert_failure(self, spec, stop, name):
        report = certify(spec)
        assert report.verdict == "inconclusive"
        assert report.notes[0] == (f"evaluation failed at "
                                   f"xi={float(self.PTS[stop])!r}: "
                                   f"non-finite {name}")
        xs = self.PTS[:stop]
        with np.errstate(all="ignore"):
            terms = Terms(spec, grid_eval(spec, xs))
            block, fiber = terms.tensor()
        residuals = {**terms.reduced(),
                     "tensor-base": np.max(np.abs(block), axis=(-2, -1)),
                     "tensor-fiber": fiber}
        assert set(report.equations) == set(residuals)
        for key, values in residuals.items():
            values = np.abs(values)
            stat = report.equations[key]
            assert np.all(np.isfinite(values)), key
            assert stat.max_abs_residual == values.max(), key
            assert stat.argmax_xi == self.PTS[int(values.argmax())], key
            assert stat.argmax_xi < self.PTS[stop]

    def test_the_earliest_point_wins(self):
        # phi is NaN from grid point 40 on; h' is infinite at point 12
        phi = _jet_profile(
            lambda xs: np.where(xs >= self.PTS[40], np.nan, np.exp(xs)),
            np.exp, np.exp)
        h = _jet_profile(
            lambda xs: xs.copy(),
            lambda xs: np.where(xs == self.PTS[12], np.inf, 1.0),
            np.zeros_like)
        self._assert_failure(make_spec(phi, "exp(xi)", h), 12, "dh")

    def test_a_tie_goes_to_the_first_field(self):
        # phi' and f are NaN first at the same point; phi' comes first in
        # PointEval
        phi = _jet_profile(
            np.exp, lambda xs: np.where(xs >= self.PTS[25], np.nan,
                                        np.exp(xs)), np.exp)
        f = _jet_profile(
            lambda xs: np.where(xs >= self.PTS[25], np.nan, np.exp(xs)),
            np.exp, np.exp)
        self._assert_failure(make_spec(phi, f, "xi"), 25, "dphi")

    def test_a_residual_alone(self):
        # f = 1e-160 from grid point 30 on: every profile value is finite,
        # but f^2 underflows to 0 and S - rho carries lambda_F / f^2
        f = _jet_profile(
            lambda xs: np.where(xs >= self.PTS[30], 1e-160, 1.0),
            np.zeros_like, np.zeros_like)
        spec = make_spec("exp(xi)", f, "xi", lambda_f=1.0)
        self._assert_failure(spec, 30, "diag-1")


_BENCH_INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"


def _counting(profile, seen):
    """profile, recording the length of every array its form is called on."""
    def arrays(xs, value, d1, d2):
        seen.append(len(xs))
        return profile._arrays(xs, value, d1, d2)
    return Profile(arrays, profile.domain)


def _h_with_bad_slope_at(xi_bad):
    """h = 4.5 whose h' is NaN at the one point xi_bad."""
    def arrays(xs, value, d1, d2):
        return (np.full(xs.shape, 4.5) if value else None,
                np.where(xs == xi_bad, np.nan, 0.0) if d1 else None,
                np.zeros(xs.shape) if d2 else None)
    return Profile(arrays, (-2.0, 2.0))


def _classification_cases():
    cases = _catalog_cases()
    for path in sorted(_BENCH_INPUTS.glob("*.json")):
        cases.append(pytest.param(specio.load_document(str(path))[0], None,
                                  id=path.stem))
    # the Lambert-family cases of the thm15-build benchmark that build
    for params in THM15_QUADRATURE_CASES + [
            {"k3": -0.2, "construction": "ode"}, {"k3": 0.0}]:
        spec = families.family_thm15(**{**THM15_COMMON, **params},
                                     run_certify=False)
        name = ",".join(f"{key}={value}" for key, value in params.items())
        cases.append(pytest.param(spec, None, id=f"thm15-{name}"))
    return cases


class TestCertifyClassification:
    """certify reads classify's h' points in the same call as its grid; its
    classification must be classify's."""

    @pytest.mark.parametrize("spec,interval", _classification_cases())
    def test_certify_classifies_as_classify(self, spec, interval):
        for grid_size in (200, 2000):
            report = certify(spec, grid_size=grid_size, interval=interval)
            assert report.classification == classify(spec)

    def test_constant_h_on_a_wider_domain_is_trivial(self):
        spec = make_spec("exp(xi)", "exp(xi)", "4.5", rho=2.0)
        report = certify(spec, interval=Interval(-0.5, 0.5))
        assert report.classification == classify(spec)
        assert report.classification.soliton_class == "trivial"

    def test_bad_slope_at_a_classify_point_only(self):
        xi_bad = grid_points(Interval(-2.0, 2.0), 16)[5]
        assert xi_bad not in grid_points(Interval(-2.0, 2.0), 200)
        clean = make_spec("exp(xi)", "exp(xi)", "4.5", rho=2.0)
        spec = dataclasses.replace(clean, h=_h_with_bad_slope_at(xi_bad))
        report, clean_report = certify(spec), certify(clean)
        assert report.verdict == clean_report.verdict
        assert report.notes == clean_report.notes
        assert report.equations == clean_report.equations
        assert clean_report.classification.soliton_class == "trivial"
        assert report.classification == classify(spec)
        assert report.classification.soliton_class == "shrinking"

    def test_almost_soliton_adds_no_points(self):
        base = make_spec("exp(xi)", "exp(xi)", "xi")
        seen = []
        almost = dataclasses.replace(base, h=_counting(base.h, seen),
                                     rho=Profile.from_expression("xi"))
        report = certify(almost, grid_size=50)
        assert seen == [50]
        assert report.classification == classify(almost)
        assert report.classification.soliton_class == "almost"
        assert seen == [50]     # classify reads no h' for an almost soliton


class TestProfileJet:
    XS = np.linspace(-1.4, 1.4, 57)

    @staticmethod
    def _scalar(profile, xs):
        return [np.array([fn(x) for x in xs.tolist()])
                for fn in (profile.value, profile.d1, profile.d2)]

    @pytest.mark.parametrize("text", [
        "sqrt(2*sec(xi)*exp(xi))", "sqrt(tan(xi/20)+1)", "20*ln(xi+2)",
        "W(xi^2) + abs(xi - 3)^1.5", "exp(-0.4*xi)/(2 + sin(xi)*cos(xi))",
        "(xi+3)^-0.5", "pi*e"])
    def test_numpy_path_within_4_ulp(self, text):
        profile = Profile.from_expression(text, (-1.5, 1.5))
        for got, want in zip(profile.jet(self.XS), self._scalar(profile,
                                                                self.XS)):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    def test_wrappers_and_constant_have_numpy_forms(self):
        p = Profile.from_expression("exp(xi)", (-1.5, 1.5))
        q = Profile.from_expression("xi^2", (-1.5, 1.5))
        for profile in (p.shifted(2.5), p.scaled(-3.0), p.plus(q),
                        Profile.constant(4.0, (-1.5, 1.5))):
            for got, want in zip(profile.jet(self.XS),
                                 self._scalar(profile, self.XS)):
                assert np.all(np.abs(got - want)
                              <= 4 * np.spacing(np.abs(want)))

    def test_numpy_failure_is_non_finite_not_raised(self):
        profile = Profile.from_expression("sqrt(xi)", (-2.0, 2.0))
        with np.errstate(all="ignore"):
            value, d1, _ = profile.jet([-1.0, 1.0])
        assert math.isnan(value[0]) and value[1] == 1.0
        assert not math.isfinite(d1[0])
