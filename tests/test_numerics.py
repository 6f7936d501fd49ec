import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yamabe import numerics
from yamabe.errors import QuadratureError, RootFindError
from yamabe.numerics import (CachedAntiderivative, adaptive_simpson,
                             gauss_kronrod, invert_monotone, opposite)

from conftest import central_d1, central_d2


class TestAdaptiveSimpson:
    EXACT = [
        (lambda x: x ** 3, 0.0, 2.0, 4.0),
        (math.sin, 0.0, math.pi, 2.0),
        (lambda x: math.exp(-x), 0.0, 5.0, 1.0 - math.exp(-5.0)),
        (lambda x: 1.0 / (1.0 + x * x), -1.0, 1.0, math.pi / 2.0),
        (lambda x: 1.0 / math.sqrt(x), 1e-4, 1.0, 2.0 - 2e-2),
    ]

    @pytest.mark.parametrize("f,a,b,exact", EXACT)
    def test_known_integrals(self, f, a, b, exact):
        assert abs(adaptive_simpson(f, a, b, tol=1e-12) - exact) < 1e-10

    def test_empty_interval(self):
        assert adaptive_simpson(math.sin, 1.0, 1.0) == 0.0

    def test_reversed_interval_flips_sign(self):
        fwd = adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-12)
        rev = adaptive_simpson(math.exp, 1.0, 0.0, tol=1e-12)
        assert abs(fwd + rev) < 1e-12

    def test_non_finite_integrand_reports_bracket(self):
        with pytest.raises(QuadratureError) as err:
            adaptive_simpson(lambda x: 1.0 / x, -1.0, 1.0)
        assert err.value.bracket is not None
        lo, hi = err.value.bracket
        assert lo <= 0.0 <= hi

    def test_oscillatory(self):
        got = adaptive_simpson(lambda x: math.sin(40.0 * x), 0.0, 1.0, tol=1e-12)
        exact = (1.0 - math.cos(40.0)) / 40.0
        assert abs(got - exact) < 1e-10


class TestCachedAntiderivative:
    def test_matches_direct_quadrature(self):
        F = CachedAntiderivative(math.cos, 0.0)
        for x in (0.5, 1.5, -2.0, 0.25, 3.0):
            assert abs(F(x) - math.sin(x)) < 1e-9

    def test_anchor_value_offset(self):
        F = CachedAntiderivative(lambda x: 2.0 * x, 1.0, value_at_anchor=5.0)
        # F(x) = 5 + x^2 - 1
        assert abs(F(3.0) - 13.0) < 1e-9
        assert F(1.0) == 5.0

    def test_caching_reuses_nodes(self):
        calls = [0]

        def f(x):
            calls[0] += 1
            return math.exp(-x * x)

        F = CachedAntiderivative(f, 0.0)
        F(4.0)
        full = calls[0]
        calls[0] = 0
        F(4.001)  # one short panel from the cached node at 4.0
        assert calls[0] < full / 4

    def test_grid_sweep_consistency(self):
        # sweeping a grid must give the same values as fresh integrals
        F = CachedAntiderivative(lambda x: 1.0 / (1.0 + x * x), -1.0)
        xs = np.linspace(-1.0, 4.0, 73)
        swept = [F(x) for x in xs]
        for x, v in zip(xs, swept):
            exact = math.atan(x) - math.atan(-1.0)
            assert abs(v - exact) < 1e-8


def invert(g, target, bracket, **kw):
    """invert_monotone with g at the bracket's ends computed here."""
    return invert_monotone(g, target, bracket, g(np.array(bracket)), **kw)


class TestInvertMonotone:
    def test_bracketed(self):
        x = invert(np.sinh, np.array(2.0), (0.0, 5.0))
        assert x.shape == ()
        assert abs(x - math.asinh(2.0)) < 1e-12

    def test_bracket_must_straddle(self):
        with pytest.raises(RootFindError):
            invert(np.exp, np.array(0.5), (1.0, 2.0))

    def test_straddle_is_checked_on_the_given_ends(self):
        def g(x):
            raise AssertionError("g evaluated")
        with pytest.raises(RootFindError, match="target 0.5"):
            invert_monotone(g, np.array(0.5), (1.0, 2.0), np.exp([1.0, 2.0]))

    def test_decreasing_function(self):
        x = invert(lambda t: np.exp(-t), np.array(0.2), (0.0, 5.0))
        assert abs(x + math.log(0.2)) < 1e-10

    def test_newton_polish_improves(self):
        x = invert(np.sinh, np.array(3.0), (0.0, 9.0), dg=np.cosh)
        assert abs(x - math.asinh(3.0)) < 1e-14

    def test_opposite_survives_underflow(self):
        assert -1e-162 * 1e-162 == 0.0
        assert opposite(-1e-162, 1e-162) and opposite(1e-300, -1e-300)
        assert not opposite(1e-200, 1e-200)
        assert not opposite(0.0, 1.0) and opposite(0.0, -1.0)

    @given(st.floats(min_value=-20.0, max_value=20.0))
    @settings(max_examples=150, deadline=None)
    def test_cubic_shift_property(self, target):
        g = lambda t: t ** 3 + t  # strictly increasing
        x = invert(g, target, (-4.0, 4.0))
        assert abs(g(x) - target) <= 1e-9 * max(1.0, abs(target))


class TestGaussLegendre:
    def test_exact_integrals_elementwise(self):
        a = np.array([0.0, 0.0, -1.0, 1.0])
        b = np.array([2.0, np.pi, 1.0, 1.0])
        got = gauss_kronrod(np.sin, a, b)
        assert np.max(np.abs(got - (np.cos(a) - np.cos(b)))) < 1e-14
        assert got[3] == 0.0
        poly = gauss_kronrod(lambda x: x ** 39 - 3.0 * x, 0.0, 1.0)
        assert poly == pytest.approx(1.0 / 40.0 - 1.5, abs=1e-14)

    def test_reversed_limits_and_broadcasting(self):
        b = np.linspace(0.5, 3.0, 6).reshape(2, 3)
        fwd = gauss_kronrod(np.exp, 0.0, b)
        rev = gauss_kronrod(np.exp, b, 0.0)
        assert fwd.shape == (2, 3)
        assert np.allclose(fwd, np.exp(b) - 1.0, rtol=1e-14, atol=0.0)
        assert np.allclose(rev, -fwd, rtol=1e-15, atol=0.0)

    def test_panels_split_toward_a_singular_end(self):
        f = lambda x: 1.0 / np.sqrt(x)
        got = gauss_kronrod(f, np.array([1e-9, 1.0]), np.array([1.0, 2.0]))
        assert got[0] == pytest.approx(2.0 * (1.0 - math.sqrt(1e-9)),
                                       abs=1e-10)
        assert got[1] == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0),
                                       abs=1e-14)

    def test_failure_gives_nan(self):
        # not integrable at 0, and not defined below 1
        f = lambda x: 1.0 / x
        got = gauss_kronrod(f, np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        assert np.isnan(got[0]) and got[1] == pytest.approx(math.log(2.0))
        assert np.isnan(gauss_kronrod(f, 0.0, 1.0))
        assert np.isnan(gauss_kronrod(lambda x: np.log(x - 1.0), 0.0, 2.0))

    def test_zero_length_never_looks_at_the_integrand(self):
        nan = lambda x: np.full(x.shape, np.nan)
        assert gauss_kronrod(nan, 1.0, 1.0) == 0.0

    def test_a_level_that_splits_no_panel_is_the_last(self):
        """One batch: [1, 2] is done on its first panel, [1e-9, 1] splits
        toward its singular end and [1, 1] is 0 with no panel."""
        seen = []

        def f(x):
            seen.append(x)
            return 1.0 / np.sqrt(x)

        got = gauss_kronrod(f, np.array([1.0, 1e-9, 1.0]),
                            np.array([2.0, 1.0, 1.0]))
        assert len(seen[0]) == 2 and all(len(x) <= 2 for x in seen[1:])
        half = 0.5 * (2.0 - 1.0)
        first = half * np.add.reduce(1.0 / np.sqrt(seen[0][:1])
                                     * numerics._KR_WEIGHTS, axis=1)
        assert got[0].tobytes() == (0.0 + first[0]).tobytes()
        assert got[1] == float.fromhex("0x1.fffbdaea6ad8fp+0")
        assert got[2].tobytes() == np.float64(0.0).tobytes()

    def test_each_element_is_the_same_alone(self):
        f = lambda x: np.exp(np.sin(x)) / (1.0 + x * x)
        b = np.linspace(-1.0, 2.0, 31)
        whole = gauss_kronrod(f, 0.5, b)
        for i, end in enumerate(b.tolist()):
            if end != 0.5:
                assert gauss_kronrod(f, 0.5, end) == whole[i]
            assert gauss_kronrod(f, 0.5, b[i:i + 1])[0] == whole[i]


class TestKronrodRule:
    """The panel rule of gauss_kronrod: 21 Kronrod nodes with the K21
    weights, and the G10 weights on the ten Gauss nodes among them."""
    X, K, G = (numerics._KR_NODES, numerics._KR_WEIGHTS,
               numerics._G10_WEIGHTS)

    @pytest.mark.parametrize("lo,hi", [(-1.0, 1.0), (0.5, 2.0)])
    def test_exact_degrees(self, lo, hi):
        """K21 is exact for x^k, k <= 31, and G10 for k <= 19, to rounding;
        on [-1, 1] neither is one degree further."""
        half, t = 0.5 * (hi - lo), 0.5 * (hi + lo) + 0.5 * (hi - lo) * self.X
        for w, degree in ((self.K, 31), (self.G, 19)):
            for k in range(degree + 2):
                terms = half * w * t ** k
                exact = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
                error = abs(math.fsum(terms) - exact)
                rounding = 8.0 * np.finfo(float).eps * np.sum(np.abs(terms))
                if k <= degree:
                    assert error <= rounding, (k, error)
                elif lo == -1.0:
                    assert error > 1e3 * rounding, (k, error)

    def test_g10_is_legendre_gauss(self):
        """The nodes within 2 ulp of numpy's leggauss(10). Its weights are
        up to 7.2 ulp from their 50-digit values (numpy 2.4), ours within
        0.25 ulp, so the weights are compared within 8 ulp."""
        x, w = np.polynomial.legendre.leggauss(10)
        gauss = self.G > 0.0
        assert np.sum(gauss) == 10
        for ours, ref, ulps in ((self.X[gauss], x, 2.0),
                                (self.G[gauss], w, 8.0)):
            assert np.all(np.abs(ours - ref) <= ulps * np.spacing(np.abs(ref)))

    def test_weights_positive_symmetric_summing_to_two(self):
        assert self.X.shape == self.K.shape == self.G.shape == (21,)
        assert np.all(np.diff(self.X) > 0.0) and self.X[10] == 0.0
        assert np.array_equal(self.X, -self.X[::-1])
        assert np.all(self.K > 0.0)
        assert np.all(self.G[1::2] > 0.0) and np.all(self.G[::2] == 0.0)
        for w in (self.K, self.G):
            assert np.array_equal(w, w[::-1])
            assert math.fsum(w) == pytest.approx(2.0, abs=4e-16)


class TestInvertMonotoneArrays:
    TARGETS = np.linspace(-9.0, 9.0, 37)

    def test_bisection_equals_scalar_calls(self):
        got = invert(np.sinh, self.TARGETS, (-4.0, 4.0))
        for t, x in zip(self.TARGETS.tolist(), got.tolist()):
            assert invert(np.sinh, t, (-4.0, 4.0)) == x
        assert np.max(np.abs(got - np.arcsinh(self.TARGETS))) < 1e-12

    def test_newton_equals_scalar_calls(self):
        got = invert(np.sinh, self.TARGETS, (-4.0, 4.0), dg=np.cosh,
                     start=0.0)
        for t, x in zip(self.TARGETS.tolist(), got.tolist()):
            assert invert(np.sinh, t, (-4.0, 4.0), dg=np.cosh,
                          start=0.0) == x
        assert np.max(np.abs(got - np.arcsinh(self.TARGETS))
                      / np.maximum(1.0, np.abs(got))) < 1e-15

    def test_newton_two_cycle_stops(self):
        """g resolves the roots only to 2^-46, coarser than 1e-15 relative
        in x, so Newton steps alternate between two iterates about each
        root; they stop there instead of running out their step budget."""
        calls = []

        def g(x):
            calls.append(len(x))
            return np.round((8.0 - 20.0 / x) * 2.0 ** 46) / 2.0 ** 46

        targets = np.linspace(7.5, 7.8, 31) + 2.0 ** -48
        got = invert(g, targets, (1.0, 200.0), dg=lambda x: 20.0 / (x * x),
                     start=1.0)
        assert len(calls) < 40
        assert np.max(np.abs(got - 20.0 / (8.0 - targets)) / got) < 1e-13

    def test_newton_falls_back_to_bisection(self):
        # a flat derivative at the start throws Newton out of the bracket
        g = lambda x: np.arctan(x)
        got = invert(g, np.array([-1.2, 0.3, 1.4]), (-20.0, 20.0),
                     dg=lambda x: 1.0 / (1.0 + x * x), start=15.0)
        assert np.allclose(got, np.tan([-1.2, 0.3, 1.4]), rtol=1e-14)

    def test_shape_kept_and_straddle_checked(self):
        got = invert(np.sinh, self.TARGETS[:36].reshape(6, 6), (-4.0, 4.0),
                     dg=np.cosh)
        assert got.shape == (6, 6)
        with pytest.raises(RootFindError, match="target 30.0"):
            invert(np.sinh, np.array([1.0, 30.0]), (-4.0, 4.0))


class TestStencils:
    def test_d1_accuracy(self):
        for x in (0.3, 1.0, 2.5):
            assert abs(central_d1(math.sin, x) - math.cos(x)) < 1e-9
            got = central_d1(lambda t: math.exp(2.0 * t), x)
            assert abs(got - 2.0 * math.exp(2.0 * x)) < 1e-7 * math.exp(2.0 * x)

    def test_d2_accuracy(self):
        for x in (0.3, 1.0, 2.5):
            assert abs(central_d2(math.sin, x) + math.sin(x)) < 1e-6
            got = central_d2(lambda t: t ** 5, x)
            assert abs(got - 20.0 * x ** 3) < 1e-6 * max(1.0, x ** 3)

    def test_explicit_step(self):
        d = central_d1(lambda t: t * t, 3.0, step=1e-3)
        assert abs(d - 6.0) < 1e-10

    def test_d1_exact_on_cubics(self):
        # one Richardson level kills the h^2 term, so cubics are exact up
        # to roundoff
        d = central_d1(lambda t: t ** 3 - 4.0 * t, 0.7, step=1e-2)
        assert abs(d - (3.0 * 0.49 - 4.0)) < 1e-12
