import math

import numpy as np
import pytest

from yamabe.errors import DomainError, EvaluationError, PositivityError
from yamabe.numerics import central_d1, central_d2
from yamabe.profiles import (DEFAULT_GRID_MARGIN, Interval, Profile,
                             grid_points, leading_jets)


class TestInterval:
    def test_open_endpoints(self):
        iv = Interval(-1.0, 2.0)
        assert iv.contains(0.0)
        assert not iv.contains(-1.0)
        assert not iv.contains(2.0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Interval(1.0, 1.0)
        with pytest.raises(DomainError):
            Interval(2.0, -2.0)

    def test_infinite(self):
        iv = Interval(-math.inf, math.inf)
        assert not iv.finite
        assert iv.contains(1e300)

    def test_clipped(self):
        assert Interval(-5.0, 5.0).clipped(Interval(0.0, 9.0)).as_tuple() == (0.0, 5.0)


class TestGridPoints:
    def test_margin_keeps_points_interior(self):
        iv = Interval(0.0, 1.0)
        pts = grid_points(iv, 11)
        assert pts[0] == pytest.approx(DEFAULT_GRID_MARGIN)
        assert pts[-1] == pytest.approx(1.0 - DEFAULT_GRID_MARGIN)
        assert all(iv.contains(p) for p in pts)
        assert len(pts) == 11

    def test_infinite_interval_rejected(self):
        with pytest.raises(DomainError):
            grid_points(Interval(0.0, math.inf), 5)

    def test_single_point(self):
        assert grid_points(Interval(0.0, 2.0), 1) == [1.0]


class TestExpressionProfiles:
    CASES = ["sin(xi) + 2", "exp(xi/4)", "sqrt(xi + 3)", "sec(xi/3)",
             "1/(xi^2 + 1)", "xi^3 - xi + 4"]

    @pytest.mark.parametrize("text", CASES)
    def test_derivatives_match_fd(self, text):
        p = Profile.from_expression(text)
        for xi in (-0.7, 0.0, 0.9, 1.8):
            assert abs(p.d1(xi) - central_d1(p.value, xi)) < 1e-7
            assert abs(p.d2(xi) - central_d2(p.value, xi)) < 1e-5

    def test_analytic_flag(self):
        assert Profile.from_expression("xi^2").analytic_derivatives
        assert Profile.constant(3.0).analytic_derivatives

    def test_source_retained(self):
        assert Profile.from_expression("exp(xi)").source == "exp(xi)"

    def test_call_is_value(self):
        p = Profile.from_expression("xi^2 + 1")
        assert p(2.0) == p.value(2.0) == 5.0


class TestDomains:
    def test_outside_domain_raises(self):
        p = Profile.from_expression("1/xi", domain=(0.0, 10.0))
        with pytest.raises(DomainError):
            p.value(0.0)
        with pytest.raises(DomainError):
            p.value(-1.0)
        with pytest.raises(DomainError):
            p.d1(10.0)
        assert p.value(5.0) == 0.2

    def test_endpoints_excluded(self):
        p = Profile.from_expression("ln(xi)", domain=(0.0, math.inf))
        with pytest.raises(DomainError):
            p.value(0.0)
        assert p.value(1.0) == 0.0


class TestCallableProfiles:
    def test_fd_fallback_flags_numeric(self):
        p = Profile.from_callable(math.cosh, (-3.0, 3.0))
        assert not p.analytic_derivatives
        assert abs(p.d1(0.5) - math.sinh(0.5)) < 1e-8
        assert abs(p.d2(0.5) - math.cosh(0.5)) < 1e-6

    def test_partial_derivatives_still_numeric(self):
        p = Profile.from_callable(math.cosh, (-3.0, 3.0), d1=math.sinh)
        assert not p.analytic_derivatives

    def test_full_derivatives_analytic(self):
        p = Profile.from_callable(math.cosh, (-3.0, 3.0),
                                  d1=math.sinh, d2=math.cosh)
        assert p.analytic_derivatives
        assert p.d2(1.0) == math.cosh(1.0)


class TestWrappers:
    def test_shift_shares_derivative_callables(self):
        p = Profile.from_expression("sin(xi)")
        q = p.shifted(7.0)
        assert q.value(0.3) == p.value(0.3) + 7.0
        # bitwise identical derivatives, not merely close: the shifted form
        # passes its parent's d1 and d2 arrays through
        xs = np.linspace(-2.0, 2.0, 17)
        (_, p1, p2), (_, q1, q2) = p.jet(xs), q.jet(xs)
        assert q1.tobytes() == p1.tobytes() and q2.tobytes() == p2.tobytes()
        for x in xs.tolist():
            assert (q.d1(x), q.d2(x)) == (p.d1(x), p.d2(x))

    def test_scaled(self):
        p = Profile.from_expression("exp(xi)").scaled(-2.0)
        assert p.value(1.0) == -2.0 * math.e
        assert p.d2(1.0) == -2.0 * math.e

    def test_plus_clips_domain(self):
        a = Profile.from_expression("xi", domain=(-5.0, 1.0))
        b = Profile.from_expression("xi^2", domain=(0.0, 9.0))
        s = a.plus(b)
        assert s.domain.as_tuple() == (0.0, 1.0)
        assert s.value(0.5) == 0.75
        assert s.d1(0.5) == 2.0

    def test_plus_propagates_numeric_flag(self):
        a = Profile.from_expression("xi")
        b = Profile.from_callable(math.sin, (-2.0, 2.0))
        assert not a.plus(b).analytic_derivatives


class TestPositivity:
    def test_positive_profile_passes(self):
        Profile.from_expression("xi^2 + 0.1").require_positive(Interval(-1.0, 1.0))

    def test_sign_change_detected(self):
        with pytest.raises(PositivityError) as err:
            Profile.from_expression("xi").require_positive(
                Interval(-1.0, 1.0), name="warp")
        assert "warp" in str(err.value)


class TestExpressionForm:
    def test_computes_only_the_entries_asked_for(self):
        profile = Profile.from_expression("sqrt(xi)", (-1.0, 4.0))
        xs = np.array([0.25, 1.0])
        with np.errstate(all="ignore"):
            value, d1, d2 = profile._arrays(xs, True, False, False)
            assert d1 is None and d2 is None
            assert value.tolist() == [0.5, 1.0]
            assert profile._arrays(xs, False, True, False)[::2] == (None, None)
        # a one-point value asks for the value alone
        assert profile.value(0.0) == 0.0
        assert profile(0.25) == 0.5 and profile.d1(0.25) == 1.0


class TestFromArrays:
    @staticmethod
    def walled(calls=None):
        """xi + 1 and its derivatives, whose numpy form raises for the whole
        array once any point lies past xi = 0.5."""
        def arrays(xs, value, d1, d2):
            if calls is not None:
                calls.append(len(xs))
            if np.any(xs > 0.5):
                raise EvaluationError(f"past the wall at {xs.max()!r}")
            return (xs + 1.0 if value else None,
                    np.ones(len(xs)) if d1 else None,
                    np.zeros(len(xs)) if d2 else None)
        return Profile(arrays, (-2.0, 2.0))

    def test_scalar_calls_are_the_form_at_one_point(self):
        profile = self.walled()
        assert (profile.value(0.25), profile.d1(0.25), profile.d2(0.25)) \
            == (1.25, 1.0, 0.0)
        assert profile.analytic_derivatives
        with pytest.raises(EvaluationError):
            profile.value(0.75)

    def test_raising_form_covers_the_longest_prefix(self):
        calls = []
        profile = self.walled(calls)
        xs = np.linspace(-1.0, 1.0, 41)
        (jet,), stop, error = leading_jets(xs, [(profile, True)])
        assert stop == int(np.argmax(xs > 0.5))
        assert isinstance(error, EvaluationError)
        assert str(error) == f"past the wall at {xs[stop]!r}"
        assert np.array_equal(jet[0], xs[:stop] + 1.0)
        # one call over everything and a bisection on the prefix length; the
        # error is the one the shortest raising prefix, xs[:stop + 1], raised
        assert len(calls) < 10 and stop + 1 in calls

    def test_positivity_through_the_numpy_form(self):
        with pytest.raises(EvaluationError, match="past the wall"):
            self.walled().require_positive(Interval(-0.5, 1.0))
        self.walled().require_positive(Interval(-0.5, 0.5))
        with pytest.raises(PositivityError, match=r"f\(-1.97\) = -0.97"):
            self.walled().require_positive(Interval(-2.0, 1.0), name="f")
