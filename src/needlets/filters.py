"""Dyadic Littlewood-Paley filter built from a compactly supported cutoff.

The cutoff phi equals 1 on [0, 1/2], 0 on [1, inf), and decreases in
between; the filter a(xi) = sqrt(phi(xi/2) - phi(xi)) is supported in
[1/2, 2] and satisfies sum_{j>=0} a^2(xi/2^j) = 1 for xi >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from .errors import ProfileError

__all__ = [
    "CutoffProfile",
    "Filter",
    "ProfileError",
    "make_profile",
    "make_filter",
    "profile_phi",
    "filter_a",
    "dyadic_square_sum",
    "check_partition",
    "POLYNOMIAL_SHAPE",
    "SMOOTH_EXPONENTIAL",
]

POLYNOMIAL_SHAPE = "polynomial-shape"
SMOOTH_EXPONENTIAL = "smooth-exponential"


@dataclass(frozen=True)
class CutoffProfile:
    """Cutoff phi: 1 on [0,1/2], 0 on [1,inf), monotone transition between.

    For the polynomial-shape kind the transition in u = 2 xi - 1 is
    1 - I_u(m+1, m+1), one minus the Beta(m+1, m+1) CDF: the unique
    degree-(2m+1) polynomial with phi(1/2)=1, phi(1)=0 and m vanishing
    derivatives at both ends. The smooth-exponential kind uses the classical
    exp(-1/t) glue and ignores m.
    """

    kind: str
    m: int


@dataclass(frozen=True)
class Filter:
    """Evaluatable filter a with its profile and the recorded lower bound.

    support_floor is min a(xi) over a dense grid of [3/4, 7/4], recorded at
    build time; the construction requires it to be strictly positive.
    """

    profile: CutoffProfile
    support_floor: float


def make_profile(kind: str, m: int) -> CutoffProfile:
    """Build a cutoff profile of the requested kind and smoothness order."""
    if m < 1:
        raise ValueError(f"smoothness order m must be >= 1, got {m}")
    if kind in (POLYNOMIAL_SHAPE, SMOOTH_EXPONENTIAL):
        return CutoffProfile(kind, m)
    raise ProfileError(f"unsupported profile kind: {kind!r}")


def profile_phi(profile: CutoffProfile, xi) -> np.ndarray:
    """Evaluate phi(|xi|)."""
    arr = np.asarray(xi, dtype=float)
    u = 2.0 * np.abs(np.atleast_1d(arr)) - 1.0
    out = np.where(u <= 0.0, 1.0, 0.0)
    mid = (u > 0.0) & (u < 1.0)
    if np.any(mid):
        um = u[mid]
        if profile.kind == POLYNOMIAL_SHAPE:
            # the transition polynomial is the Beta(m+1, m+1) CDF; evaluating
            # it through betainc at 1-u gives 1-S(u) without the cancellation
            # that breaks monotonicity for m >= 4 under direct polyval
            vals = scipy.special.betainc(profile.m + 1, profile.m + 1, 1.0 - um)
        elif profile.kind == SMOOTH_EXPONENTIAL:
            h0 = np.exp(-1.0 / um)
            h1 = np.exp(-1.0 / (1.0 - um))
            vals = h1 / (h0 + h1)
        else:
            raise ProfileError(f"unsupported profile kind: {profile.kind!r}")
        out[mid] = vals
    return out.reshape(arr.shape) if arr.ndim else out[0]


def make_filter(profile: CutoffProfile) -> Filter:
    """Wrap a profile as a filter, recording min a over [3/4, 7/4].

    Raises ProfileError if the profile leaks outside [0, 1] or the recorded
    lower bound is not strictly positive.
    """
    probe = np.linspace(0.0, 1.25, 5001)
    vals = profile_phi(profile, probe)
    if np.any(vals < -1e-15) or np.any(vals > 1.0 + 1e-15):
        raise ProfileError("profile leaves [0, 1]")
    grid = np.linspace(0.75, 1.75, 4001)
    filt = Filter(profile, 0.0)
    floor = float(np.min(filter_a(filt, grid)))
    if floor <= 0.0:
        raise ProfileError(f"filter floor on [3/4, 7/4] is not positive ({floor:.3e})")
    return Filter(profile, floor)


def filter_a(filt: Filter, xi) -> np.ndarray:
    """a(xi) = sqrt(phi(xi/2) - phi(xi)); exactly zero outside [1/2, 2].

    A radicand below -1e-15 signals a non-monotone profile and raises;
    within that tolerance it is clamped to zero.
    """
    xs = np.abs(np.asarray(xi, dtype=float))
    rad = profile_phi(filt.profile, xs / 2.0) - profile_phi(filt.profile, xs)
    if np.any(rad < -1e-15):
        raise ProfileError(f"negative radicand {float(np.min(rad)):.3e}: profile not monotone")
    rad = np.clip(rad, 0.0, None)
    out = np.sqrt(rad)
    return np.where((xs >= 0.5) & (xs <= 2.0), out, 0.0)


def dyadic_square_sum(filt: Filter, xi) -> np.ndarray:
    """sum_{j>=0} a^2(xi/2^j), evaluated with every term that can be nonzero."""
    xs = np.asarray(xi, dtype=float)
    if np.any(xs <= 0.0):
        raise ValueError("dyadic sum needs xi > 0")
    top = int(max(0.0, math.ceil(math.log2(float(np.max(xs)))))) + 1
    total = np.zeros_like(xs, dtype=float)
    for j in range(top + 1):
        total = total + filter_a(filt, xs / 2.0**j) ** 2
    return total


def check_partition(filt: Filter, xi_grid) -> float:
    """Max absolute deviation of sum_j a^2(xi/2^j) from 1 over a grid of xi >= 1."""
    grid = np.asarray(xi_grid, dtype=float)
    if np.any(grid < 1.0):
        raise ValueError("partition identity only holds for xi >= 1")
    return float(np.max(np.abs(dyadic_square_sum(filt, grid) - 1.0)))
