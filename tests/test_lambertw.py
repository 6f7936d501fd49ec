import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from yamabe.errors import BranchDomainError
from yamabe.lambertw import lambert_w

_E = math.e
_BRANCH_POINT = -1.0 / _E


class TestPrincipalBranch:
    def test_special_values(self):
        assert lambert_w(0.0) == 0.0
        assert abs(lambert_w(_E) - 1.0) < 1e-15
        assert abs(lambert_w(1.0) - 0.5671432904097838) < 5e-16
        assert abs(lambert_w(_BRANCH_POINT) - (-1.0)) < 1e-7

    def test_round_trip_identity(self):
        for w in np.concatenate([np.linspace(-0.999, 0.0, 57),
                                 np.geomspace(1e-8, 500.0, 200)]):
            x = w * math.exp(w)
            got = lambert_w(x)
            assert abs(got - w) <= 1e-12 * max(1.0, abs(w))

    def test_against_scipy(self):
        # start 1e-6 away from the branch point: scipy stops on the residual
        # w*e^w - x, which leaves it several digits short right at the fold
        # (the round-trip tests cover that region for us)
        xs = np.concatenate([np.linspace(_BRANCH_POINT + 1e-6, 1.0, 300),
                             np.geomspace(1.0, 1e15, 300)])
        ours = np.array([lambert_w(x) for x in xs])
        ref = scipy.special.lambertw(xs, 0).real
        assert np.max(np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12

    def test_domain_error(self):
        # inf has no finite guess, so its iteration fails
        for x in (_BRANCH_POINT - 1e-6, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(BranchDomainError):
                lambert_w(x)

    def test_rounding_below_the_branch_point_folds_to_minus_one(self):
        for branch in ("principal", "lower"):
            assert lambert_w(_BRANCH_POINT - 1e-17, branch=branch) == -1.0

    @given(st.floats(min_value=-0.99, max_value=50.0))
    @settings(max_examples=250, deadline=None)
    def test_round_trip_property(self, w):
        x = w * math.exp(w)
        assert abs(lambert_w(x) - w) <= 1e-11 * max(1.0, abs(w))


class TestSecondaryBranch:
    def test_special_values(self):
        assert abs(lambert_w(_BRANCH_POINT, branch="lower") - (-1.0)) < 1e-7
        # W_{-1}(-1/(2e)) solves w e^w = -1/(2e) with w < -1
        x = -1.0 / (2.0 * _E)
        w = lambert_w(x, branch="lower")
        assert w < -1.0
        assert abs(w * math.exp(w) - x) < 1e-15

    def test_round_trip_identity(self):
        for w in np.linspace(-50.0, -1.001, 250):
            x = w * math.exp(w)
            got = lambert_w(x, branch="lower")
            assert abs(got - w) <= 1e-12 * max(1.0, abs(w))

    def test_against_scipy(self):
        xs = -np.geomspace(1e-12, -_BRANCH_POINT - 1e-6, 300)
        ours = np.array([lambert_w(x, branch="lower") for x in xs])
        ref = scipy.special.lambertw(xs, -1).real
        assert np.max(np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12

    def test_domain_errors(self):
        for x in (1e-3, 0.0, -0.0, _BRANCH_POINT - 1e-6, math.nan, math.inf,
                  -math.inf):
            with pytest.raises(BranchDomainError):
                lambert_w(x, branch="lower")

    @given(st.floats(min_value=-40.0, max_value=-1.01))
    @settings(max_examples=250, deadline=None)
    def test_round_trip_property(self, w):
        x = w * math.exp(w)
        assert abs(lambert_w(x, branch="lower") - w) <= 1e-11 * max(1.0, abs(w))


def test_unknown_branch_rejected():
    with pytest.raises(BranchDomainError):
        lambert_w(1.0, branch="upper")


def test_one_real_number_only():
    with pytest.raises(TypeError):
        lambert_w(np.array([0.5, 1.0]))
    assert type(lambert_w(np.float64(1.0))) is float
