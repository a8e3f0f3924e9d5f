"""Grid losses weighted by the natural measure density.

On the Wicksell domain the measure is dx/(4x), so pointwise errors at grid
point i/n are weighted by n/(4i): an estimate can be far off near 1 more
cheaply than near 0. This module is the only owner of the grid and its
weights.
"""

from __future__ import annotations

import numpy as np

__all__ = ["grid_points", "grid_weights", "weighted_loss"]


def _check_grid_n(n: int) -> None:
    """Refuse a scoring grid of fewer than 64 points, naming it."""
    if n < 64:
        raise ValueError(f"grid resolution must be >= 64, got {n}")


def grid_points(n: int) -> np.ndarray:
    """The scoring grid (i/n)_{i=1..n}."""
    return np.arange(1, n + 1) / n


def _density(n: int) -> np.ndarray:
    return 1.0 / (4.0 * grid_points(n))


def grid_weights(n: int) -> np.ndarray:
    """Weights w_i = (1/n) n/(4i) with weighted_loss(f, g, n, 2)^2 = sum_i w_i (f - g)_i^2."""
    return _density(n) / n


def weighted_loss(f_vals, fhat_vals, n: int, p: int) -> float | np.ndarray:
    """Discretized L_p(dmu) distance on the grid (i/n)_{i=1..n}.

    p = 1: (1/n) sum |f - fhat|_i / (4i/n); p = 2: the square root of the
    same average applied to squared differences (RMSE in the weighted sense).
    fhat_vals may also be an (R, n) stack of estimates; each row is then
    scored against f_vals, exactly as a separate call would, and the R
    losses come back as an array.
    """
    f = np.asarray(f_vals, dtype=float)
    g = np.asarray(fhat_vals, dtype=float)
    if f.shape != (n,) or g.ndim not in (1, 2) or g.shape[-1] != n:
        raise ValueError(
            f"expected length-{n} values and length-{n} estimate rows, got {f.shape} and {g.shape}"
        )
    w = _density(n)
    # one difference array, worked in place: a stack of estimates is scored
    # beside one array of its size, with the bits of the out-of-place forms
    d = f - g
    np.abs(d, out=d)
    if p == 1:
        d *= w
        loss = np.mean(d, axis=-1)
    elif p == 2:
        d *= d
        d *= w
        loss = np.sqrt(np.mean(d, axis=-1))
    else:
        raise ValueError(f"p must be 1 or 2, got {p}")
    return float(loss) if g.ndim == 1 else loss
