"""Weighted grid losses with weights w_i = 1/(4 i/n) = n/(4i)."""

import numpy as np
import pytest

from needlets import grid_weights, weighted_loss


def test_zero_for_perfect_fit():
    f = np.sin(np.linspace(0.1, 1.0, 64))
    assert weighted_loss(f, f, 64, 1) == 0.0
    assert weighted_loss(f, f, 64, 2) == 0.0


def test_constant_offset_closed_form():
    # |fhat - f| = c everywhere: RMSE = c sqrt((1/n) sum n/(4i)) = c sqrt(H_n/4)
    n = 1024
    c = 0.37
    f = np.zeros(n)
    got = weighted_loss(f, f + c, n, 2)
    harmonic = float(np.sum(1.0 / np.arange(1, n + 1)))
    want = c * np.sqrt(harmonic / 4.0)
    assert abs(got - want) < 1e-12
    assert abs(got - 1.3702 * c) < 1e-4 * c
    got1 = weighted_loss(f, f + c, n, 1)
    want1 = c * harmonic / (4.0 * n) * n / n
    want1 = c / n * float(np.sum(n / (4.0 * np.arange(1, n + 1))))
    assert abs(got1 - want1) < 1e-12


def test_homogeneous_in_error():
    rng = np.random.default_rng(9)
    f = rng.standard_normal(128)
    g = f + rng.standard_normal(128) * 0.1
    for p in (1, 2):
        one = weighted_loss(f, g, 128, p)
        two = weighted_loss(f, 2.0 * g - f, 128, p)
        assert abs(two - 2.0 * one) < 1e-12


@pytest.mark.parametrize("n", [64, 1000, 1024])
def test_row_wise_matches_scalar_calls(n):
    rng = np.random.default_rng(n)
    f = rng.standard_normal(n)
    stack = f + 0.1 * rng.standard_normal((7, n))
    for p in (1, 2):
        rows = weighted_loss(f, stack, n, p)
        assert rows.shape == (7,)
        np.testing.assert_array_equal(rows, [weighted_loss(f, g, n, p) for g in stack])


def test_grid_weights_reproduce_squared_loss():
    rng = np.random.default_rng(3)
    f, g = rng.standard_normal((2, 256))
    sq = float(grid_weights(256) @ (f - g) ** 2)
    assert abs(sq - weighted_loss(f, g, 256, 2) ** 2) < 1e-13 * sq


def test_argument_validation():
    with pytest.raises(ValueError):
        weighted_loss(np.zeros(4), np.zeros(5), 4, 2)
    with pytest.raises(ValueError):
        weighted_loss(np.zeros(4), np.zeros(4), 4, 3)
    with pytest.raises(ValueError):
        weighted_loss(np.zeros(4), np.zeros((2, 5)), 4, 2)
    with pytest.raises(ValueError):
        weighted_loss(np.zeros(4), np.zeros((2, 2, 4)), 4, 2)
