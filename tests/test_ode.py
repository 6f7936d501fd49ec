"""The batched Runge-Kutta kernel ``numerics.solve_ivp`` against scipy.

scipy is a test-only dependency: its ``solve_ivp`` runs the same tableaux,
error norm, controller and event location one trajectory at a time, so
every row of a batch must agree with it to the level of the tolerances.
"""

import math

import numpy as np
import pytest

from yamabe import families
from yamabe.families import family_thm15
from yamabe.numerics import _DOP853, solve_ivp

pytest.importorskip("scipy.integrate")
from scipy.integrate import solve_ivp as scipy_solve_ivp  # noqa: E402


def damped_rows(t, y):
    """A damped, forced oscillator on rows (y, y')."""
    return np.column_stack([y[:, 1], -y[:, 0] - 0.1 * np.sin(t) * y[:, 1]])


def one_row(fun):
    """The scalar form scipy calls: one state (n,) at one time."""
    return lambda t, y: fun(np.array([t]), np.asarray(y)[None, :])[0]


def falling_through(level):
    def event(t, y):
        return y[:, 0] - level
    event.terminal = True
    event.direction = -1
    return event


def rising_speed(level):
    def event(t, y):
        return y[:, 1] - level
    event.terminal = True
    event.direction = 1
    return event


def scipy_event(event):
    scalar = one_row(event)
    scalar.terminal = True
    scalar.direction = getattr(event, "direction", 0)
    return scalar


SPANS = np.array([[0.0, 10.0], [0.0, -7.0], [1.0, 6.0], [2.0, -3.0]])
Y0 = np.array([[1.0, 0.0], [0.5, 0.3], [2.0, -1.0], [-0.4, 0.9]])
RTOL, ATOL = 1e-10, 1e-12


class TestCoefficients:
    def test_dop853_tableau_equals_scipy(self):
        from scipy.integrate._ivp import dop853_coefficients as ref
        assert np.array_equal(_DOP853.C, ref.C)
        assert np.array_equal(_DOP853.A, ref.A)
        assert np.array_equal(_DOP853.B, ref.B)
        assert np.array_equal(_DOP853.E3, ref.E3)
        assert np.array_equal(_DOP853.E5, ref.E5)
        assert np.array_equal(_DOP853.D, ref.D)
        assert _DOP853.n_stages == ref.N_STAGES
        assert _DOP853.n_k == ref.N_STAGES_EXTENDED


# method is scipy's reference method, the kernel's one scheme; the
# one-value parametrization keeps the [DOP853] test ids
@pytest.mark.parametrize("method", ["DOP853"])
class TestAgainstScipy:
    def test_mixed_spans_final_states(self, method):
        run = solve_ivp(damped_rows, SPANS, Y0, rtol=RTOL, atol=ATOL)
        for i, (span, y0) in enumerate(zip(SPANS, Y0)):
            ref = scipy_solve_ivp(one_row(damped_rows), span, y0,
                                  method=method, rtol=RTOL, atol=ATOL)
            assert ref.status == 0 and run.stop[i] == "completed"
            assert run.t[i] == span[1]
            assert np.max(np.abs(run.y[i] - ref.y[:, -1])) < 1e3 * ATOL
            assert run.nsteps[i] == len(ref.t) - 1
            assert run.nfev[i] == ref.nfev

    def test_directional_events_and_t_eval(self, method):
        events = [falling_through(0.2), rising_speed(0.5)]
        t_eval = np.array([np.linspace(a, b, 23) for a, b in SPANS])
        run = solve_ivp(damped_rows, SPANS, Y0, rtol=RTOL, atol=ATOL,
                        t_eval=t_eval, events=events)
        fired = set()
        for i, (span, y0) in enumerate(zip(SPANS, Y0)):
            ref = scipy_solve_ivp(one_row(damped_rows), span, y0,
                                  method=method, rtol=RTOL, atol=ATOL,
                                  t_eval=t_eval[i],
                                  events=[scipy_event(e) for e in events])
            hits = [k for k, te in enumerate(ref.t_events) if len(te)]
            if ref.status == 1:
                assert run.stop[i] == "event" and run.event[i] == hits[0]
                assert run.t[i] == pytest.approx(ref.t_events[hits[0]][0],
                                                 rel=1e-12, abs=1e-12)
                fired.add((hits[0], span[1] > span[0]))
            else:
                assert ref.status == 0 and run.stop[i] == "completed"
            assert np.array_equal(run.t_eval[i], ref.t)
            assert np.max(np.abs(run.y_eval[i] - ref.y.T)) < 1e3 * ATOL
        # each event stops some row, forwards and backwards in time
        assert {e for e, _ in fired} == {0, 1}
        assert {forward for _, forward in fired} == {True, False}

    def test_first_of_two_zeros_in_one_step_stops_the_row(self, method):
        # y' = 1 (or -1 backwards) with steps growing tenfold: one step
        # carries y past both levels, and the earlier zero wins
        def drift(t, y):
            return np.ones_like(y)

        def level(c):
            def event(t, y):
                return y[:, 0] - c
            event.terminal = True
            return event

        events = [level(0.6), level(0.3), level(-0.6), level(-0.3)]
        run = solve_ivp(drift, [(0.0, 10.0), (0.0, -10.0)], [[0.0], [0.0]],
                        events=events)
        for i, span in enumerate(((0.0, 10.0), (0.0, -10.0))):
            ref = scipy_solve_ivp(one_row(drift), span, [0.0], method=method,
                                  events=[scipy_event(e) for e in events])
            hits = [k for k, te in enumerate(ref.t_events) if len(te)]
            assert run.stop[i] == "event" and [run.event[i]] == hits
            assert run.t[i] == pytest.approx(ref.t_events[hits[0]][0],
                                             abs=1e-12)
        assert run.event.tolist() == [1, 3]

    def test_step_size_collapse(self, method):
        # y' = y^2 from 1 reaches infinity at t = 1: both integrators end in
        # a failed step just short of it
        def blowup(t, y):
            return y * y
        run = solve_ivp(blowup, (0.0, 2.0), [[1.0]], rtol=RTOL, atol=ATOL)
        ref = scipy_solve_ivp(one_row(blowup), (0.0, 2.0), [1.0],
                              method=method, rtol=RTOL, atol=ATOL)
        assert ref.status == -1
        assert run.stop[0] == "step-size-collapse"
        assert run.t[0] == pytest.approx(ref.t[-1], rel=1e-9)
        assert run.nsteps[0] == len(ref.t) - 1

    def test_dense_output_matches_ode_solution(self, method):
        run = solve_ivp(damped_rows, SPANS, Y0, rtol=RTOL, atol=ATOL,
                        dense_output=True)
        for i, (span, y0) in enumerate(zip(SPANS, Y0)):
            ref = scipy_solve_ivp(one_row(damped_rows), span, y0,
                                  method=method, rtol=RTOL, atol=ATOL,
                                  dense_output=True)
            for t in np.linspace(span[0], span[1], 41):
                assert np.max(np.abs(run.sol[i](t) - ref.sol(t))) < 1e-13

    def test_dense_output_on_an_array_equals_per_point_calls(self, method):
        # step boundaries, the span ends and points beyond them included
        run = solve_ivp(damped_rows, SPANS, Y0, rtol=RTOL, atol=ATOL,
                        dense_output=True)
        for i, span in enumerate(SPANS):
            sol = run.sol[i]
            ts = np.concatenate([np.linspace(span[0], span[1], 37),
                                 sol._t_old, [span[0] - 0.5, span[1] + 0.5]])
            got = sol(ts)
            assert got.shape == (len(ts), Y0.shape[1])
            for t, row in zip(ts.tolist(), got):
                assert sol(t).tobytes() == row.tobytes()
            assert sol(ts[:36].reshape(4, 9)).shape == (4, 9, 2)


class TestRows:
    def test_rows_are_independent_bitwise(self):
        events = [falling_through(0.2)]
        whole = solve_ivp(damped_rows, SPANS, Y0, rtol=1e-9, atol=1e-12,
                          events=events)
        for i in range(len(Y0)):
            alone = solve_ivp(damped_rows, SPANS[i:i + 1], Y0[i:i + 1],
                              rtol=1e-9, atol=1e-12, events=events)
            assert alone.stop[0] == whole.stop[i]
            assert alone.t[0] == whole.t[i]
            assert np.array_equal(alone.y[0], whole.y[i])
            assert alone.nfev[0] == whole.nfev[i]

    def test_many_t_eval_points_per_step_equal_the_dense_solution(self):
        # at rtol 1e-6 each step passes several of the 2,000 points, all
        # interpolated together; row states are the dense solution's there,
        # up to the event that stops a row between two points
        ts = np.linspace(SPANS[:, 0], SPANS[:, 1], 2000, axis=1)
        run = solve_ivp(damped_rows, SPANS, Y0, rtol=1e-6, atol=1e-9,
                        t_eval=ts, events=[falling_through(0.2)],
                        dense_output=True)
        assert "event" in run.stop and "completed" in run.stop
        for i in range(len(Y0)):
            got = run.t_eval[i]
            assert len(got) > 5 * run.nsteps[i]
            assert np.array_equal(got, ts[i, :len(got)])
            assert run.y_eval[i].tobytes() == run.sol[i](got).tobytes()

    def test_non_finite_rhs_stops_only_its_row(self):
        # row 0 runs into a wall where the RHS is inf; row 1 never does
        def walled(t, y):
            out = np.ones_like(y)
            out[y[:, 0] > 1.5] = np.inf
            return out
        run = solve_ivp(walled, (0.0, 3.0), [[1.0], [-5.0]])
        assert run.stop == ("non-finite-rhs", "completed")
        assert run.t[0] == pytest.approx(0.5, abs=1e-9)
        assert run.t[1] == 3.0 and run.y[1, 0] == pytest.approx(-2.0)

    def test_nan_rhs_at_the_start_stops_instead_of_looping(self):
        # a NaN derivative makes the first step size NaN, which never
        # compares below the failure threshold
        def nan_above_zero(t, y):
            return np.where(y > 0.0, np.nan, 1.0)
        run = solve_ivp(nan_above_zero, (0.0, 1.0), [[1.0], [-5.0]])
        assert run.stop == ("non-finite-rhs", "completed")
        assert run.t[0] == 0.0 and run.nsteps[0] == 0

    def test_zero_length_span_and_empty_batch(self):
        run = solve_ivp(damped_rows, [(1.0, 1.0)], [[0.3, 0.4]],
                        t_eval=[[1.0]], dense_output=True)
        assert run.stop == ("completed",) and run.nsteps[0] == 0
        assert np.array_equal(run.y_eval[0], [[0.3, 0.4]])
        assert np.array_equal(run.sol[0](1.0), [0.3, 0.4])
        assert np.array_equal(run.sol[0](np.array([0.0, 2.0])),
                              [[0.3, 0.4], [0.3, 0.4]])
        empty = solve_ivp(damped_rows, np.empty((0, 2)), np.empty((0, 2)))
        assert empty.stop == () and empty.y.shape == (0, 2)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="terminal"):
            solve_ivp(damped_rows, (0.0, 1.0), Y0, events=[lambda t, y: y[:, 0]])
        with pytest.raises(ValueError, match="rows"):
            solve_ivp(damped_rows, (0.0, 1.0), Y0[0])
        with pytest.raises(ValueError, match="finite"):
            solve_ivp(damped_rows, (0.0, 1.0), [[np.nan, 0.0]])


def test_thm15_ode_profile_matches_scipy_dense_output(monkeypatch):
    """family_thm15(construction="ode") evaluates the kernel's interpolants;
    rebuilt with scipy's OdeSolution from the same initial value problem,
    the profile agrees to the integrator's tolerance."""
    calls = []

    def recording(fun, t_span, y0, **options):
        calls.append((fun, np.asarray(t_span), np.asarray(y0), options))
        return solve_ivp(fun, t_span, y0, **options)

    monkeypatch.setattr(families, "solve_ivp", recording)
    spec = family_thm15(1.0, 1.0, -0.2, lambda_f=-0.5, xi_range=(-0.5, 1.0),
                        construction="ode")
    ((fun, spans, y0, options),) = calls
    assert options["dense_output"] and len(spans) == 2
    for span, start in zip(spans, y0):
        ref = scipy_solve_ivp(one_row(fun), span, start, method="DOP853",
                              rtol=1e-12, atol=1e-14, dense_output=True)
        assert ref.status == 0
        for xi in np.linspace(span[0], span[1], 25)[1:-1]:
            phi, dphi = ref.sol(xi)
            assert spec.phi.value(float(xi)) == pytest.approx(phi, rel=1e-13)
            assert spec.phi.d1(float(xi)) == pytest.approx(dphi, rel=1e-12)
            assert math.isfinite(spec.phi.d2(float(xi)))
