"""Dyadic Littlewood-Paley filter built from a compactly supported cutoff.

The cutoff phi equals 1 on [0, 1/2], 0 on [1, inf), and decreases in
between; the filter a(xi) = sqrt(phi(xi/2) - phi(xi)) is supported in
[1/2, 2] and satisfies sum_{j>=0} a^2(xi/2^j) = 1 for xi >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProfileError, require_entries

__all__ = [
    "CutoffProfile",
    "Filter",
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
# the polynomial shape sums C(2m+1, k) t^k (1-t)^(2m+1-k) in doubles, and
# C(2m+1, m+1) leaves double range above m = 513
M_MAX = 512


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
    if not (1 <= m <= M_MAX and m == int(m)):
        raise ValueError(f"smoothness order m must be an integer in [1, {M_MAX}], got {m}")
    if kind in (POLYNOMIAL_SHAPE, SMOOTH_EXPONENTIAL):
        return CutoffProfile(kind, int(m))
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
            # phi = 1 - S(u) = S(1-u), with S the Beta(m+1, m+1) CDF
            vals = _beta_cdf(profile.m, 1.0 - um)
        elif profile.kind == SMOOTH_EXPONENTIAL:
            h0 = np.exp(-1.0 / um)
            h1 = np.exp(-1.0 / (1.0 - um))
            vals = h1 / (h0 + h1)
        else:
            raise ProfileError(f"unsupported profile kind: {profile.kind!r}")
        out[mid] = vals
    return out.reshape(arr.shape) if arr.ndim else out[0]


def _beta_cdf(m: int, x: np.ndarray) -> np.ndarray:
    """I_x(m+1, m+1) for x in [0, 1], as a binomial tail.

    I_x(m+1, m+1) = sum_{k=m+1}^{2m+1} C(2m+1, k) x^k (1-x)^(2m+1-k). The
    sum runs at t = min(x, 1-x), where it is at most 1/2 and all its terms
    are positive, and I_x = 1 - I_{1-x} reflects it above 1/2; a direct
    polynomial in x cancels and loses monotonicity from m = 4 on.
    """
    n = 2 * m + 1
    t = np.minimum(x, 1.0 - x)
    k = np.arange(m + 1, n + 1)
    coef = np.array([math.comb(n, i) for i in range(m + 1, n + 1)], dtype=float)
    tail = (coef * t[:, None] ** k * (1.0 - t[:, None]) ** (n - k)).sum(axis=1)
    return np.where(x <= 0.5, tail, 1.0 - tail)


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
    require_entries(xs, xs > 0.0, "xi", "> 0")
    top = int(max(0.0, math.ceil(math.log2(float(np.max(xs)))))) + 1
    total = np.zeros_like(xs, dtype=float)
    for j in range(top + 1):
        total = total + filter_a(filt, xs / 2.0**j) ** 2
    return total


def check_partition(filt: Filter, xi_grid) -> float:
    """Max absolute deviation of sum_j a^2(xi/2^j) from 1 over a grid of xi >= 1."""
    grid = np.asarray(xi_grid, dtype=float)
    require_entries(grid, grid >= 1.0, "xi", ">= 1, where the partition identity holds")
    return float(np.max(np.abs(dyadic_square_sum(filt, grid) - 1.0)))
