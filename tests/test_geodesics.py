import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest

from yamabe.catalog import build_example, example5_spec
from yamabe.errors import EvaluationError
from yamabe.geodesics import (MODES, compare_probe_modes, completeness_probe,
                              energy, fiber_momentum, geodesic_rhs,
                              integrate_geodesic)
from yamabe.profiles import Profile
from yamabe.specio import load_document

K = 0.2


@pytest.fixture(scope="module")
def light_spec():
    return example5_spec(k=K)


def initial_data():
    y0 = np.array([0.1, -0.2, 0.3, 0.0])
    v0 = np.array([0.05, 0.05, 0.1, -0.2])   # alpha . v = 0.1
    yf0 = np.array([0.0, 0.4])
    vf0 = np.array([0.3, -0.1])
    return y0, v0, yf0, vf0


def reduced_closed_form(spec, y0, v0, yf0, vf0, s):
    """The reduced system on phi = f = e^(k xi) with lightlike alpha
    integrates elementarily: xi stays linear, the warping force is constant
    along the flow, vf decays exponentially."""
    alpha = np.asarray(spec.direction.alpha)
    eps = np.asarray(spec.sig.epsilon, dtype=float)
    c = float(alpha @ v0)
    xi0 = float(alpha @ y0)
    force = K * float(vf0 @ vf0) * math.exp(4.0 * K * xi0)
    v = v0 + eps * alpha * force * s
    y = y0 + v0 * s + eps * alpha * force * s * s / 2.0
    vf = vf0 * math.exp(-2.0 * K * c * s)
    yf = yf0 + vf0 * (1.0 - math.exp(-2.0 * K * c * s)) / (2.0 * K * c)
    return y, v, yf, vf


class TestReducedClosedForm:
    def test_final_state_matches(self, light_spec):
        y0, v0, yf0, vf0 = initial_data()
        res = integrate_geodesic(light_spec, y0, v0, yf0, vf0,
                                 s_span=(0.0, 10.0), mode="paper-reduced")
        assert res.status == "completed"
        y, v, yf, vf = reduced_closed_form(light_spec, y0, v0, yf0, vf0, 10.0)
        got = res.final_state()
        n, d = 4, 2
        assert np.max(np.abs(got[:n] - y)) < 1e-6
        assert np.max(np.abs(got[n:2 * n] - v)) < 1e-6
        assert np.max(np.abs(got[2 * n:2 * n + d] - yf)) < 1e-6
        assert np.max(np.abs(got[2 * n + d:] - vf)) < 1e-6

    def test_xi_stays_linear(self, light_spec):
        y0, v0, yf0, vf0 = initial_data()
        res = integrate_geodesic(light_spec, y0, v0, yf0, vf0,
                                 s_span=(0.0, 10.0), mode="paper-reduced")
        alpha = np.asarray(light_spec.direction.alpha)
        xi = res.rows[:, 1:5] @ alpha
        s = res.rows[:, 0]
        assert np.max(np.abs(xi - (xi[0] + 0.1 * s))) < 1e-7


class TestFullMode:
    def test_xi_follows_log_law(self, light_spec):
        # alpha . acc reduces to 2k (xi')^2 because every other acceleration
        # term is proportional to eps*alpha, which is alpha-orthogonal for a
        # lightlike direction; hence xi(s) = xi0 - ln(1 - 2k c s)/(2k)
        y0, v0, yf0, vf0 = initial_data()
        res = integrate_geodesic(light_spec, y0, v0, yf0, vf0,
                                 s_span=(0.0, 10.0))
        assert res.status == "completed"
        alpha = np.asarray(light_spec.direction.alpha)
        xi0 = float(alpha @ y0)
        c = float(alpha @ v0)
        s = res.rows[:, 0]
        xi = res.rows[:, 1:5] @ alpha
        expected = xi0 - np.log(1.0 - 2.0 * K * c * s) / (2.0 * K)
        assert np.max(np.abs(xi - expected)) < 1e-8

    def test_finite_parameter_blowup(self, light_spec):
        # c = 1 puts the log-law singularity at s* = 1/(2k) = 2.5
        y0 = np.array([0.0, 0.0, 0.0, 0.0])
        v0 = np.array([0.5, 0.5, 0.0, 0.0])
        res = integrate_geodesic(light_spec, y0, v0, s_span=(0.0, 10.0))
        assert res.status == "blowup"
        assert res.s_reached < 3.5

    def test_energy_conserved(self, light_spec):
        y0, v0, yf0, vf0 = initial_data()
        state0 = np.concatenate([y0, v0, yf0, vf0])
        res = integrate_geodesic(light_spec, y0, v0, yf0, vf0,
                                 s_span=(0.0, 10.0))
        drift = abs(energy(light_spec, res.final_state())
                    - energy(light_spec, state0))
        assert drift < 1e-9

    def test_reduced_mode_violates_energy(self, light_spec):
        y0, v0, yf0, vf0 = initial_data()
        state0 = np.concatenate([y0, v0, yf0, vf0])
        res = integrate_geodesic(light_spec, y0, v0, yf0, vf0,
                                 s_span=(0.0, 10.0), mode="paper-reduced")
        drift = abs(energy(light_spec, res.final_state())
                    - energy(light_spec, state0))
        assert drift > 1e-3

    def test_fiber_momentum_conserved_in_both_modes(self, light_spec):
        y0, v0, yf0, vf0 = initial_data()
        state0 = np.concatenate([y0, v0, yf0, vf0])
        p0 = fiber_momentum(light_spec, state0)
        for mode in ("full", "paper-reduced"):
            res = integrate_geodesic(light_spec, y0, v0, yf0, vf0,
                                     s_span=(0.0, 10.0), mode=mode)
            drift = np.max(np.abs(fiber_momentum(light_spec,
                                                 res.final_state()) - p0))
            assert drift < 1e-9

    def test_convergence_order_of_driver(self, light_spec):
        # force the step size with loose tolerances; halving max_step must
        # shrink the final-state error by at least the theoretical margin
        y0 = np.array([0.2, 0.3, 0.0, 0.0])
        v0 = np.array([0.2, 0.3, 0.1, 0.0])
        yf0 = np.array([0.1, 0.0])
        vf0 = np.array([0.2, -0.1])
        ref = integrate_geodesic(light_spec, y0, v0, yf0, vf0,
                                 s_span=(0.0, 3.0), rtol=1e-12, atol=1e-13)
        errs = []
        for h in (0.3, 0.15):
            r = integrate_geodesic(light_spec, y0, v0, yf0, vf0,
                                   s_span=(0.0, 3.0), rtol=1e10, atol=1e10,
                                   max_step=h)
            errs.append(np.max(np.abs(r.final_state() - ref.final_state())))
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] >= 4.0


class TestDomainsAndStatuses:
    def test_left_domain(self):
        spec = build_example("example-2")   # domain (0, inf)
        y0 = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
        v0 = np.array([-1.0, 0.0, 0.0, 0.0, 0.0])
        res = integrate_geodesic(spec, y0, v0, s_span=(0.0, 10.0))
        assert res.status == "left-domain"
        assert res.s_reached < 10.0
        xi_final = res.final_state()[0]
        assert xi_final == pytest.approx(0.0, abs=1e-2)

    def test_backward_span(self, light_spec):
        y0, v0, yf0, vf0 = initial_data()
        res = integrate_geodesic(light_spec, y0, v0, yf0, vf0,
                                 s_span=(0.0, -10.0))
        assert res.status == "completed"
        assert res.s_reached == -10.0
        assert res.rows[0, 0] == 0.0 and res.rows[-1, 0] == -10.0

    def test_rows_include_final_state(self, light_spec):
        y0, v0, yf0, vf0 = initial_data()
        res = integrate_geodesic(light_spec, y0, v0, yf0, vf0,
                                 s_span=(0.0, 2.0), samples=41)
        assert res.rows.shape == (41, 13)
        assert np.array_equal(res.final_state(), res.rows[-1, 1:])

    def test_shape_validation(self, light_spec):
        with pytest.raises(ValueError, match="length n"):
            integrate_geodesic(light_spec, [0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="length d"):
            integrate_geodesic(light_spec, np.zeros(4), np.ones(4),
                               yf0=[0.0], vf0=[0.0])

    def test_samples_must_be_positive(self, light_spec):
        y0, v0, yf0, vf0 = initial_data()
        for samples in (0, -3):
            with pytest.raises(ValueError, match="samples must be a positive"):
                integrate_geodesic(light_spec, y0, v0, yf0, vf0,
                                   samples=samples)

    def test_mode_validation(self, light_spec):
        with pytest.raises(ValueError, match="mode"):
            geodesic_rhs(light_spec, mode="hybrid")

    def test_rhs_signals_overflow_as_inf(self, light_spec):
        rhs = geodesic_rhs(light_spec)
        state = np.zeros(12)
        state[0] = state[1] = 1e5   # xi = 2e5, exp overflows
        out = rhs(0.0, state)
        assert np.all(np.isinf(out))


class TestProbes:
    def test_probe_is_deterministic(self, light_spec):
        a = completeness_probe(light_spec, count=6, s_max=50.0, seed=7)
        b = completeness_probe(light_spec, count=6, s_max=50.0, seed=7)
        assert a == b

    def test_seed_changes_samples(self, light_spec):
        a = completeness_probe(light_spec, count=6, s_max=50.0, seed=7)
        b = completeness_probe(light_spec, count=6, s_max=50.0, seed=8)
        assert a.failures != b.failures

    def test_modes_disagree_on_slow_exponential(self):
        spec = example5_spec(k=0.005)
        full, reduced, notes = compare_probe_modes(spec, count=10, s_max=1e3,
                                                   seed=3)
        assert reduced.completed == 10
        assert full.completed < 10
        assert notes and "dynamics modes disagree" in notes[0]

    def test_summary_bookkeeping(self, light_spec):
        probe = completeness_probe(light_spec, count=5, s_max=50.0, seed=1)
        assert probe.count == 5
        assert sum(probe.status_counts.values()) == 10  # two directions each
        d = probe.to_dict()
        assert d["completed"] == probe.completed
        assert d["fraction"] == probe.fraction


class TestStopReasons:
    LIGHT_DOC = {"n": 4, "d": 2, "signature": [-1, 1, 1, 1],
                 "alpha": [1.0, 1.0, 0.0, 0.0], "domain": None}

    @pytest.mark.parametrize("f,y,edge", [("(xi+5)^0.5", [-3, 0, 0, 0], 2.0),
                                          ("W(xi) + 2", [0, 0, 0, 0],
                                           math.exp(-1.0))])
    def test_unevaluable_profile_is_a_non_finite_rhs(self, tmp_path, f, y,
                                                     edge):
        # xi = alpha . y runs down into the region where f cannot be
        # evaluated (a negative base under a fractional power, W off its
        # branch) at s = edge, long before the norm escape
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(dict(
            self.LIGHT_DOC, profiles={"phi": "1", "f": f, "h": "xi"})),
            encoding="utf-8")
        spec, _ = load_document(str(path))
        res = integrate_geodesic(spec, y, [-1, 0, 0, 0])
        assert res.status == "blowup"
        assert res.stop_reason == "non-finite-rhs"
        assert res.s_reached == pytest.approx(edge, abs=1e-6)
        assert res.nsteps > 0 and res.nfev > res.nsteps

    def test_statuses_map_from_stop_reasons(self, light_spec):
        y0 = np.zeros(4)
        escape = integrate_geodesic(light_spec, y0, [0.5, 0.5, 0.0, 0.0])
        assert (escape.status, escape.stop_reason) == ("blowup", "norm-escape")
        done = integrate_geodesic(light_spec, *initial_data())
        assert (done.status, done.stop_reason) == ("completed", "completed")
        spec = build_example("example-2")
        left = integrate_geodesic(spec, [2.0, 0, 0, 0, 0], [-1.0, 0, 0, 0, 0])
        assert (left.status, left.stop_reason) == ("left-domain",
                                                   "domain-exit")

    def test_probe_counts_stop_reasons(self, light_spec):
        probe = completeness_probe(light_spec, count=5, s_max=50.0, seed=1)
        reasons = probe.to_dict()["stop_reasons"]
        assert sum(reasons.values()) == 10
        blowups = sum(n for why, n in reasons.items()
                      if why in ("norm-escape", "step-size-collapse",
                                 "non-finite-rhs"))
        assert blowups == probe.status_counts.get("blowup", 0)
        assert reasons.get("completed", 0) == probe.status_counts.get(
            "completed", 0)


def test_full_mode_incompleteness_matches_closed_form():
    """phi = f = e^(k xi) with lightlike alpha: a base geodesic with an
    eta-null velocity v, alpha.v > 0 and no fiber velocity keeps xi' =
    (alpha.v) phi(xi0)^2 / phi(xi)^2 in full mode, so its affine length is
    int_0^inf e^(-2k (alpha.v) t) dt = 1/(2k alpha.v); the reduced system
    has no such term and runs on."""
    k = 0.005
    spec = example5_spec(k)
    alpha = np.asarray(spec.direction.alpha)
    eps = np.asarray(spec.sig.epsilon, dtype=float)
    y0 = np.array([0.1, -0.2, 0.3, 0.0])
    for v in ([0.25, 0.25, 0.0, 0.0], [0.625, 0.375, 0.5, 0.0],
              [1.25, 0.75, 0.0, 1.0]):
        v = np.array(v)
        assert float(eps @ (v * v)) == 0.0 and float(alpha @ v) > 0.0
        length = 1.0 / (2.0 * k * float(alpha @ v))
        full = integrate_geodesic(spec, y0, v, s_span=(0.0, 1e3), samples=2,
                                  rtol=1e-8, atol=1e-10)
        assert full.status == "blowup"
        assert abs(full.s_reached - length) <= 1e-6 * length
        reduced = integrate_geodesic(spec, y0, v, s_span=(0.0, 1e3),
                                     samples=2, mode="paper-reduced",
                                     rtol=1e-8, atol=1e-10)
        assert reduced.status == "completed" and reduced.s_reached == 1e3


class TestBatches:
    def test_rhs_rows_equal_single_states(self, light_spec):
        rng = np.random.default_rng(5)
        states = rng.normal(size=(6, 12))
        states[2, :4] = 1e5                 # xi = 2e5: exp overflows
        for mode in ("full", "paper-reduced"):
            rhs = geodesic_rhs(light_spec, mode)
            batch = rhs(0.0, states)
            assert np.all(np.isinf(batch[2]))
            assert np.isfinite(np.delete(batch, 2, axis=0)).all()
            for row, state in zip(batch, states):
                assert np.array_equal(row, rhs(0.0, state))

    def test_rhs_keeps_failures_of_callable_profiles_in_their_row(self):
        def value(xi):
            if xi > 0.5:
                raise EvaluationError("no value past 0.5")
            return 1.0 + xi * xi
        spec = example5_spec(K)
        spec = dataclasses.replace(spec, f=Profile.from_callable(
            value, (-math.inf, math.inf), d1=lambda xi: 2.0 * xi,
            d2=lambda xi: 2.0))
        states = np.zeros((3, 12))
        states[:, 0] = [0.0, 1.0, 0.2]      # xi = 0, 1, 0.2
        out = geodesic_rhs(spec)(0.0, states)
        assert np.all(np.isinf(out[1]))
        assert np.isfinite(out[[0, 2]]).all()

    @pytest.mark.parametrize("mode", MODES)
    def test_rhs_evaluates_each_distinct_profile_once(self, monkeypatch,
                                                      mode):
        spec = example5_spec(0.005)
        assert spec.phi is spec.f
        apart = dataclasses.replace(
            example5_spec(0.005), f=Profile.from_expression("exp(0.005*xi)"))
        states = np.random.default_rng(3).normal(size=(5, 12))
        for case, distinct in ((spec, [spec.phi]),
                               (apart, [apart.phi, apart.f])):
            calls = []
            for profile in distinct:
                def counted(xs, *want, form=profile._arrays, p=profile):
                    calls.append(p)
                    return form(xs, *want)
                monkeypatch.setattr(profile, "_arrays", counted)
            geodesic_rhs(case, mode)(0.0, states)
            assert calls == distinct

    def test_rhs_rows_outside_a_finite_domain_are_inf_alone(self):
        # the profiles live on (-1, 1) inside a spec on the whole line: xi
        # = 2 is outside their domain and a NaN position is nowhere
        grow = Profile.from_expression("exp(0.2*xi)", (-1.0, 1.0))
        spec = dataclasses.replace(example5_spec(K), phi=grow, f=grow)
        states = np.zeros((4, 12))
        states[:, 0] = [0.0, 2.0, 0.5, np.nan]
        states[:, 4:6] = 0.3
        states[:, 10:] = 0.2
        for mode in MODES:
            rhs = geodesic_rhs(spec, mode)
            out = rhs(0.0, states)
            assert np.all(np.isinf(out[[1, 3]]))
            assert np.isfinite(out[[0, 2]]).all()
            for row, state in zip(out, states):
                assert np.array_equal(row, rhs(0.0, state))

    def test_probe_batch_equals_samples_one_by_one(self):
        spec = example5_spec(0.005)
        rng = np.random.default_rng(11)
        draws = []

        def sampler():
            draws.append((rng.uniform(-1, 1, 4), rng.normal(size=4) / 2,
                          rng.uniform(-1, 1, 2), rng.normal(size=2) / 2))
            return draws[-1]

        batch = completeness_probe(spec, count=8, s_max=1e3, sampler=sampler)
        counts, reasons, failures = Counter(), Counter(), []
        for i, sample in enumerate(draws):
            alone = completeness_probe(spec, count=1, s_max=1e3,
                                       sampler=lambda: sample)
            counts.update(alone.status_counts)
            reasons.update(alone.stop_reasons)
            failures += [(i,) + fail[1:] for fail in alone.failures]
        assert batch.failures == tuple(failures)    # s reached, bitwise
        assert batch.status_counts == dict(counts)
        assert batch.stop_reasons == dict(reasons)
        assert set(batch.status_counts) == {"completed", "blowup"}
