import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yamabe.errors import QuadratureError, RootFindError
from yamabe.numerics import (CachedAntiderivative, adaptive_simpson,
                             central_d1, central_d2, invert_monotone,
                             opposite)


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


class TestInvertMonotone:
    def test_bracketed(self):
        x = invert_monotone(math.sinh, 2.0, (0.0, 5.0))
        assert abs(x - math.asinh(2.0)) < 1e-12

    def test_bracket_must_straddle(self):
        with pytest.raises(RootFindError):
            invert_monotone(math.exp, 0.5, (1.0, 2.0))

    def test_decreasing_function(self):
        x = invert_monotone(lambda t: math.exp(-t), 0.2, (0.0, 5.0))
        assert abs(x + math.log(0.2)) < 1e-10

    def test_newton_polish_improves(self):
        dg = math.cosh
        x = invert_monotone(math.sinh, 3.0, (0.0, 9.0), dg=dg)
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
        x = invert_monotone(g, target, (-4.0, 4.0))
        assert abs(g(x) - target) <= 1e-9 * max(1.0, abs(target))


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
