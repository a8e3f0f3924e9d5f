"""Standard test signals on [0,1], rescaled to unit standard deviation.

The four classics (blocks, bumps, heavisine, doppler) with their usual
parameter tables. Each is normalized by its sd on the 1024-point grid
(i/1024) so noise calibration treats all targets alike; all four vanish
at x = 0, as the weighted losses require. Each target's breakpoints split
its own coefficient quadrature; the simulation harness integrates all four
at once on one rule split at the union of them (17 points).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .losses import grid_points

__all__ = ["TARGET_NAMES", "target_function", "target_breakpoints", "target_raw"]

_POS = (0.1, 0.13, 0.15, 0.23, 0.25, 0.4, 0.44, 0.65, 0.76, 0.78, 0.81)
_BLOCK_HGT = (4.0, -5.0, 3.0, -4.0, 5.0, -4.2, 2.1, 4.3, -3.1, 2.1, -4.2)
_BUMP_HGT = (4.0, 5.0, 3.0, 4.0, 5.0, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2)
_BUMP_WTH = (0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01, 0.005, 0.008, 0.005)

_NORM_GRID_N = 1024


def _blocks(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for p, h in zip(_POS, _BLOCK_HGT):
        out += h * (1.0 + np.sign(x - p)) / 2.0
    return out


def _bumps(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for p, h, w in zip(_POS, _BUMP_HGT, _BUMP_WTH):
        out += h * (1.0 + np.abs((x - p) / w)) ** (-4.0)
    return out


def _heavisine(x: np.ndarray) -> np.ndarray:
    return 4.0 * np.sin(4.0 * np.pi * x) - np.sign(x - 0.3) - np.sign(0.72 - x)


def _doppler(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.clip(x * (1.0 - x), 0.0, None)) * np.sin(
        2.0 * np.pi * 1.05 / (x + 0.05)
    )


_RAW = {
    "blocks": _blocks,
    "bumps": _bumps,
    "heavisine": _heavisine,
    "doppler": _doppler,
}

# known discontinuities/kinks, handed to the coefficient quadrature; doppler
# is smooth inside but its high-frequency burst near 0 gets its own panels
_BREAKPOINTS = {
    "blocks": _POS,
    "bumps": _POS,
    "heavisine": (0.3, 0.72),
    "doppler": (0.02, 0.05, 0.1, 0.2, 0.5),
}

TARGET_NAMES = tuple(sorted(_RAW))


def target_raw(name: str):
    """The unnormalized evaluator (vectorized over numpy arrays)."""
    try:
        return _RAW[name]
    except KeyError:
        raise ValueError(f"unknown target {name!r}; choose from {TARGET_NAMES}") from None


@lru_cache(maxsize=None)
def _scale(name: str) -> float:
    return float(np.std(_RAW[name](grid_points(_NORM_GRID_N))))


def target_function(name: str):
    """Evaluator for the sd-normalized target, named after it."""
    raw = target_raw(name)
    s = _scale(name)

    def f(x):
        return raw(np.asarray(x, dtype=float)) / s

    f.__name__ = f.__qualname__ = name
    return f


def target_breakpoints(name: str) -> tuple:
    """Panel-split points for coefficient quadrature against this target."""
    target_raw(name)
    return tuple(_BREAKPOINTS[name])
