import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from yamabe.errors import BranchDomainError
from yamabe.lambertw import (_branch_point_series, _initial_lower,
                             _initial_principal, lambert_w)

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
        with pytest.raises(BranchDomainError):
            lambert_w(_BRANCH_POINT - 1e-6)

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
        for x in (1e-3, 0.0, _BRANCH_POINT - 1e-6):
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


# arguments on both sides of the fold at -1/e, where both branches meet and
# the guesses switch to the branch-point series
_NEAR_FOLD = st.floats(min_value=_BRANCH_POINT - 1e-12,
                       max_value=_BRANCH_POINT + 1e-3)
_ANY = st.one_of(_NEAR_FOLD, st.floats(min_value=-0.5, max_value=0.5),
                 st.floats(min_value=-1e300, max_value=1e300),
                 st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf,
                                  _BRANCH_POINT, -math.exp(-1.0)]))


def _scalar_or_nan(x, branch):
    try:
        return lambert_w(x, branch=branch)
    except BranchDomainError:
        return math.nan


class TestArrayForm:
    @given(st.lists(_ANY, min_size=1, max_size=30),
           st.sampled_from(["principal", "lower"]))
    @settings(max_examples=300, deadline=None)
    def test_array_equals_scalar_bitwise(self, xs, branch):
        # NaN exactly where the scalar raises, the scalar's bits elsewhere
        got = lambert_w(np.array(xs), branch=branch)
        expected = np.array([_scalar_or_nan(x, branch) for x in xs])
        assert got.tobytes() == expected.tobytes()

    def test_nan_exactly_where_scalar_raises(self):
        xs = np.array([math.nan, -1.0, _BRANCH_POINT - 1e-6,
                       _BRANCH_POINT - 1e-17, _BRANCH_POINT, -0.2, 0.0,
                       1e-3, 5.0, math.inf, -math.inf])
        for branch in ("principal", "lower"):
            got = lambert_w(xs, branch=branch)
            for x, w in zip(xs.tolist(), got.tolist()):
                try:
                    assert lambert_w(x, branch=branch) == w
                except BranchDomainError:
                    assert math.isnan(w), (x, branch)
        assert np.isnan(lambert_w(np.array([math.inf]))).all()
        assert lambert_w(np.array([_BRANCH_POINT - 1e-17]))[0] == -1.0

    def test_shape_kept(self):
        xs = np.linspace(-0.3, 2.0, 12).reshape(3, 4)
        got = lambert_w(xs)
        assert got.shape == (3, 4)
        assert got[1, 2] == lambert_w(float(xs[1, 2]))

    def test_unknown_branch_rejected_for_arrays(self):
        with pytest.raises(BranchDomainError):
            lambert_w(np.array([1.0]), branch="upper")


# The initial guesses as np.select / np.where write them, every candidate
# computed on every element: the bitwise reference for the masked guesses,
# which compute each element's candidate only.
def _reference_principal(x):
    lx = np.log(np.maximum(x, 1.0))
    llx = np.log(np.maximum(lx, 1.0))
    return np.select([x < -0.32, x <= -0.25, x < 1.0, x < 3.0],
                     [_branch_point_series(x, +1.0), x, x / (1.0 + x),
                      0.5 * lx + 0.6],
                     lx - llx + llx / lx)


def _reference_lower(x):
    lx = np.log(-x)
    return np.where(x < -0.27, _branch_point_series(x, -1.0),
                    lx - np.log(-lx))


_SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf,
                            _BRANCH_POINT, -math.exp(-1.0), -0.32, -0.25,
                            -0.27, 1.0, 3.0])
_PRINCIPAL_REGIONS = st.one_of(
    st.floats(max_value=-0.32, exclude_max=True),
    st.floats(min_value=-0.32, max_value=-0.25),
    st.floats(min_value=-0.25, max_value=1.0, exclude_min=True,
              exclude_max=True),
    st.floats(min_value=1.0, max_value=3.0, exclude_max=True),
    st.floats(min_value=3.0), _SPECIAL)
_LOWER_REGIONS = st.one_of(
    st.floats(min_value=_BRANCH_POINT, max_value=-0.27, exclude_max=True),
    st.floats(min_value=-0.27, max_value=0.0, exclude_max=True), _SPECIAL)


class TestMaskedGuesses:
    @given(st.lists(_PRINCIPAL_REGIONS, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_principal_equals_select_bitwise(self, xs):
        x = np.array(xs)
        with np.errstate(all="ignore"):
            assert (_initial_principal(x).tobytes()
                    == _reference_principal(x).tobytes())

    @given(st.lists(_LOWER_REGIONS, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_lower_equals_where_bitwise(self, xs):
        x = np.array(xs)
        with np.errstate(all="ignore"):
            assert (_initial_lower(x).tobytes()
                    == _reference_lower(x).tobytes())
