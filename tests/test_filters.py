"""Littlewood-Paley cutoff profiles and the dyadic filter.

The m = 2 polynomial shape is the fifth-degree smoothstep
S(u) = 10u^3 - 15u^4 + 6u^5 raveled onto [1/2, 1], which makes several
values exactly representable and good freeze targets.
"""

import math
import re

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from needlets import (
    ProfileError,
    check_partition,
    dyadic_square_sum,
    filter_a,
    make_filter,
    make_profile,
    profile_phi,
)


@pytest.fixture(scope="module")
def profile2():
    return make_profile("polynomial-shape", 2)


@pytest.fixture(scope="module")
def filt2(profile2):
    return make_filter(profile2)


def test_phi_anchor_values(profile2):
    xi = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 2.0])
    got = profile_phi(profile2, xi)
    # phi(0.75) = S(1/2) = 1/2 exactly; phi(0.6) = 1 - S(0.2) = 0.94208
    want = np.array([1.0, 1.0, 1.0, 0.5, 0.0, 0.0])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    assert abs(float(profile_phi(profile2, 0.6)) - 0.94208) < 1e-15


def test_phi_flat_join(profile2):
    # C^2 join: near the plateau edges phi deviates like 10 h^3
    h = 1e-3
    assert 1.0 - float(profile_phi(profile2, 0.5 + h)) < 1e-7
    assert float(profile_phi(profile2, 1.0 - h)) < 1e-7


def test_phi_derivative_frozen(profile2):
    # phi'(0.7) = -2 S'(0.4) with S'(u) = 30 u^2 (1-u)^2, so -3.456
    h = 1e-6
    slope = (float(profile_phi(profile2, 0.7 + h)) - float(profile_phi(profile2, 0.7 - h))) / (
        2 * h
    )
    assert abs(slope + 3.456) < 1e-6


def test_phi_monotone(profile2):
    xi = np.linspace(0.5, 1.0, 400)
    vals = profile_phi(profile2, xi)
    assert np.all(np.diff(vals) <= 0)


@pytest.mark.parametrize("m", range(1, 33))
def test_phi_matches_scipy_betainc(m):
    # the transition is phi(xi) = I_{1-u}(m+1, m+1) with u = 2 xi - 1; the
    # package sums it as a binomial tail, scipy is the independent oracle
    profile = make_profile("polynomial-shape", m)
    xi = np.linspace(0.5, 1.0, 200001)
    vals = profile_phi(profile, xi)
    want = scipy.special.betainc(m + 1, m + 1, 1.0 - (2.0 * xi - 1.0))
    assert np.max(np.abs(vals - want)) <= 2e-15
    assert np.all(np.diff(vals) <= 0)


def test_a_support_and_midpoint(filt2):
    xi = np.array([0.49, 0.5, 2.0, 2.01, 3.0])
    np.testing.assert_allclose(filter_a(filt2, xi), 0.0, rtol=0, atol=0)
    # a(3/4) = a(3/2) = sqrt(1/2): the two points where the window hands over
    np.testing.assert_allclose(
        filter_a(filt2, np.array([0.75, 1.5])), 1.0 / math.sqrt(2.0), rtol=1e-15
    )
    assert np.all(filter_a(filt2, np.linspace(0.51, 1.99, 100)) > 0)


def test_square_sum_below_one(filt2):
    # inside [1/2, 1) only the j = 0 window is active and the sum is 1 - phi
    got = float(dyadic_square_sum(filt2, 0.6))
    assert abs(got - 0.05792) < 1e-15


def test_partition_of_unity(filt2):
    grid = np.exp(np.linspace(np.log(1.0), np.log(1024.0), 10_000))
    assert check_partition(filt2, grid) <= 1e-12


@pytest.mark.parametrize("kind", ["polynomial-shape", "smooth-exponential"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_partition_all_profiles(kind, m):
    filt = make_filter(make_profile(kind, m))
    grid = np.exp(np.linspace(np.log(1.0), np.log(256.0), 2000))
    assert check_partition(filt, grid) <= 1e-12


def test_support_floor_frozen(filt2):
    # smallest xi with a(xi)^2 >= 1/2; sits strictly inside (0.3, 0.4)
    assert abs(filt2.support_floor - 0.3217384419058438) < 1e-12


def test_smooth_exponential_flatness():
    prof = make_profile("smooth-exponential", 1)
    # all derivatives vanish at the joins, so the approach is faster than
    # any polynomial shape
    assert 1.0 - float(profile_phi(prof, 0.51)) < 1e-30
    assert abs(float(profile_phi(prof, 0.75)) - 0.5) < 1e-15


def test_profile_errors():
    with pytest.raises(ProfileError):
        make_profile("triangle", 2)
    with pytest.raises(ValueError):
        make_profile("polynomial-shape", 0)
    # the binomial-tail coefficients leave double range above m = 513, and
    # the tail is defined for integer m only
    for m in (513, 10**4, 2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"got {m}")):
            make_profile("polynomial-shape", m)
    assert make_filter(make_profile("polynomial-shape", 512)).support_floor > 0.0


@settings(max_examples=50, deadline=None)
@given(xi=st.floats(0.0, 4.0), m=st.integers(1, 5))
def test_a_squared_between_zero_and_one(xi, m):
    filt = make_filter(make_profile("polynomial-shape", m))
    val = float(filter_a(filt, xi))
    assert 0.0 <= val <= 1.0 + 1e-15
    if not 0.5 < xi < 2.0:
        assert val == 0.0
