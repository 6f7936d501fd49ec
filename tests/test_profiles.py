import ast
import math
import pathlib

import numpy as np
import pytest

from yamabe import profiles
from yamabe.errors import DomainError, EvaluationError, PositivityError
from yamabe.profiles import (DEFAULT_GRID_MARGIN, Interval, Profile,
                             grid_points)

from conftest import central_d1, central_d2


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

    @pytest.mark.parametrize("count", [1, 0, -5, True, 5.0])
    def test_count_must_be_an_int_of_at_least_2(self, count):
        with pytest.raises(ValueError, match="count"):
            grid_points(Interval(0.0, 2.0), count)

    def test_each_point_is_the_scalar_expression_bit_for_bit(self):
        # the array is a + i * step, element by element the double that
        # scalar arithmetic gives
        rng = np.random.default_rng(32)
        for _ in range(500):
            lo = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3))
            iv = Interval(lo, lo + float(10.0 ** rng.uniform(-6, 4)))
            count = int(rng.integers(2, 3000))
            pad = DEFAULT_GRID_MARGIN * (iv.hi - iv.lo)
            a, b = iv.lo + pad, iv.hi - pad
            step = (b - a) / (count - 1)
            want = np.array([a + i * step for i in range(count)])
            assert grid_points(iv, count).tobytes() == want.tobytes()


class TestExpressionProfiles:
    CASES = ["sin(xi) + 2", "exp(xi/4)", "sqrt(xi + 3)", "sec(xi/3)",
             "1/(xi^2 + 1)", "xi^3 - xi + 4"]

    @pytest.mark.parametrize("text", CASES)
    def test_derivatives_match_fd(self, text):
        p = Profile.from_expression(text)
        for xi in (-0.7, 0.0, 0.9, 1.8):
            assert abs(p.d1(xi) - central_d1(p.value, xi)) < 1e-7
            assert abs(p.d2(xi) - central_d2(p.value, xi)) < 1e-5

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
        """xi + 1 and its derivatives, whose numpy form gives NaN past the
        wall at xi = 0.5 and counts its calls."""
        def arrays(xs, value, d1, d2):
            if calls is not None:
                calls.append(len(xs))
            wall = np.where(xs > 0.5, np.nan, 0.0)
            return (xs + 1.0 + wall if value else None,
                    np.ones(len(xs)) + wall if d1 else None,
                    np.zeros(len(xs)) + wall if d2 else None)
        return Profile(arrays, (-2.0, 2.0))

    def test_scalar_calls_are_the_form_at_one_point(self):
        profile = self.walled()
        assert (profile.value(0.25), profile.d1(0.25), profile.d2(0.25)) \
            == (1.25, 1.0, 0.0)
        with pytest.raises(EvaluationError, match="non-finite value"):
            profile.value(0.75)

    def test_jet_runs_the_form_once_on_the_points_inside(self):
        calls = []
        profile = self.walled(calls)
        xs = np.array([-3.0, 0.25, 2.0, np.nan, 0.75, -1.0])
        value, d1, d2 = profile.jet(xs, True, True, False)
        assert calls == [3] and d2 is None
        assert np.array_equal(value, [np.nan, 1.25, np.nan, np.nan, np.nan,
                                      0.0], equal_nan=True)
        assert np.array_equal(d1, [np.nan, 1.0, np.nan, np.nan, np.nan,
                                   1.0], equal_nan=True)
        # every point inside: the form on xs itself
        assert profile.jet(xs[[1, 5]], True, False, False)[0] \
            .tolist() == [1.25, 0.0]
        assert calls == [3, 2]

    def test_jet_gives_none_for_an_entry_not_asked_for(self):
        profile = self.walled()
        for xs in ([0.25, -1.0], [0.25, 3.0]):    # all inside, one outside
            value, d1, d2 = profile.jet(xs, d1=False)
            assert d1 is None
            assert value[0] == 1.25 and d2[0] == 0.0

    def test_a_raising_form_propagates(self):
        def arrays(xs, value, d1, d2):
            raise ZeroDivisionError("the form's own")
        profile = Profile(arrays, (-1.0, 1.0))
        for read in (lambda: profile.jet([0.0]), lambda: profile.value(0.0),
                     lambda: profile.jet([0.0, 5.0])):
            with pytest.raises(ZeroDivisionError, match="the form's own"):
                read()

    def test_positivity_through_the_numpy_form(self):
        with pytest.raises(EvaluationError, match=r"non-finite f at xi=0\.5"):
            self.walled().require_positive(Interval(-0.5, 1.0), name="f")
        self.walled().require_positive(Interval(-0.5, 0.5))
        with pytest.raises(PositivityError, match=r"f\(-1.97\) = -0.97"):
            self.walled().require_positive(Interval(-2.0, 1.0), name="f")
        # the last grid point, 2.0195, lies outside the domain
        with pytest.raises(EvaluationError, match=r"non-finite f at xi=2\.01"):
            Profile.from_expression("xi + 3", (-2.0, 2.0)).require_positive(
                Interval(-1.0, 2.05), name="f")


def test_jet_is_the_only_read_of_a_form():
    """No module but profiles.py touches a form's ``_arrays``, and none names
    the array readers that ``Profile.jet`` replaced."""
    found = []
    for path in sorted(pathlib.Path(profiles.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (getattr(node, "attr", None) or getattr(node, "id", None)
                    or getattr(node, "name", None))
            if name in ("masked_jet", "_entry_at") or (
                    name == "_arrays" and isinstance(node, ast.Attribute)
                    and path.name != "profiles.py"):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []
