"""Estimators for sequence-space inverse problems.

Three families: hard-thresholded needlet coefficients of the naive inverse
(need_d), fixed-cutoff SVD projection, and a blockwise data-driven SVD
filter. All consume a SequenceObservation and return one coefficient per
observed index in the model's SVD basis, a stack of runs (R, K) row by row.
projection_cutoff picks one cutoff for a stack against the truth on a grid,
from its runs' summed scores.

need_d_stack thresholds several (observation, plan) pairs, such as a ladder
of noise levels, as one stack of rows, and need_d is its one-pair case.
The top level j_top is the estimators' own: the frame is given, per level,
the count of leading rows whose j_top reaches it, so each level's psi is
multiplied once per stack. ladder_blocks orders a ladder by j_top with a
stable sort and cuts it into stacks of whole levels of at most STACK_ROWS
runs; the rate study scores each stack against one grid table per call.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .frame import NeedletFrame, analyze, level_sigma, synthesize
from .losses import grid_weights
from .models import SequenceObservation, SvdModel, _check_noise_level

__all__ = [
    "KAPPA_DEFAULT",
    "GAMMA_DEFAULT",
    "GRID_N_DEFAULT",
    "ThresholdPlan",
    "NeedDResult",
    "make_threshold_plan",
    "need_d",
    "need_d_stack",
    "ladder_blocks",
    "STACK_ROWS",
    "svd_projection",
    "projection_gram",
    "projection_cutoff",
    "make_blocks",
    "AdaptiveSvdConfig",
    "make_adaptive_config",
    "svd_adaptive",
]

KAPPA_DEFAULT = 0.75 * math.sqrt(2.0)
# the svd-adapt block filter's constant, and the grid resolution (points on
# (0, 1]) its cutoff and every score is taken on
GAMMA_DEFAULT = 0.1
GRID_N_DEFAULT = 1024
# runs of a ladder of noise levels put in one need_d_stack: at jmax 10 a
# stack holds about 80 kB per run at its peak. 60 runs keep the peak RSS of
# `rates` within 1 MB of one stack per level; 100 ran 0.01 s faster and
# peaked 3.5 MB higher
STACK_ROWS = 60
# rows of the basis table weighted and multiplied at once by projection_gram:
# a block holds GRAM_BLOCK x n floats, 1 MB on the default 1024-point grid
GRAM_BLOCK = 128


@dataclass(frozen=True)
class ThresholdPlan:
    """Frozen thresholding schedule: keep |beta_j| >= kappa * t_eps * sigma[j].

    epsilon is the noise level the schedule was built for; sigma has one
    entry per frame level (index 0 is the constant level); j_top is the
    last level kept at all.
    """

    epsilon: float
    kappa: float
    t_eps: float
    j_top: int
    sigma: np.ndarray

    def threshold(self, j: int) -> float:
        return self.kappa * self.t_eps * float(self.sigma[j + 1])


@dataclass(frozen=True)
class NeedDResult:
    """Kept frame coefficients per level and the synthesized sequence, in the observation's shape.

    n_kept counts the coefficients kept at each level, one row per run
    (runs, levels); it is 0 at every level above the plan's j_top.
    """

    beta: list
    coeffs: np.ndarray
    n_kept: np.ndarray


def _require_same_basis(frame: NeedletFrame, model: SvdModel) -> None:
    # a tight frame reconstructs on any index sequence, so a frame built on
    # another basis would pass every numeric check with needlets localized
    # in the wrong domain
    if frame.basis != model.basis:
        raise ValueError(f"frame basis {frame.basis} differs from model basis {model.basis}")


def _require_same_epsilon(built_for: float, obs: SequenceObservation, what: str) -> None:
    if abs(obs.epsilon - built_for) > 1e-12 * max(obs.epsilon, built_for):
        raise ValueError(f"{what} built for epsilon {built_for}, observation has {obs.epsilon}")


def _naive_inverse(model: SvdModel, obs: SequenceObservation) -> np.ndarray:
    if model.kmax < obs.kmax:
        raise ValueError(f"model holds {model.kmax + 1} singular values, observation {obs.kmax + 1}")
    return obs.y / model.b[: obs.kmax + 1]


def _check_kappa(kappa: float) -> None:
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be finite and > 0, got {kappa}")


def _threshold_schedule(
    frame: NeedletFrame, model: SvdModel, epsilon: float, kappa: float
) -> tuple[float, int]:
    """(t_eps, j_top) of make_threshold_plan; they vary with epsilon, sigma does not."""
    _check_noise_level(epsilon)
    _check_kappa(kappa)
    if epsilon == 0.0:
        return 0.0, frame.j_max
    t_eps = epsilon * math.sqrt(math.log(1.0 / epsilon))
    # in log space: the power t_eps^{-2/(1+2nu)} overflows for small epsilon
    j_raw = math.floor(-2.0 / (1.0 + 2.0 * model.nu) * math.log2(t_eps))
    return float(t_eps), int(min(j_raw, frame.j_max))


def make_threshold_plan(
    frame: NeedletFrame,
    model: SvdModel,
    epsilon,
    kappa: float = KAPPA_DEFAULT,
) -> ThresholdPlan | tuple[ThresholdPlan, ...]:
    """Resolve t_eps = eps*sqrt(log(1/eps)), the top level, and level deviations.

    The top level solves 2^{j(1+2nu)} <= t_eps^{-2} (the bias/variance
    crossover for ill-posedness degree nu), capped by the frame. epsilon = 0
    degenerates to interpolation: zero threshold, every level kept. A
    sequence of noise levels gives a tuple of plans sharing one level_sigma.
    """
    eps = [float(e) for e in np.atleast_1d(epsilon)]
    schedules = [_threshold_schedule(frame, model, e, kappa) for e in eps]
    _require_same_basis(frame, model)
    sigma = level_sigma(frame, model.b)
    plans = tuple(ThresholdPlan(e, float(kappa), *ts, sigma) for e, ts in zip(eps, schedules))
    return plans[0] if np.ndim(epsilon) == 0 else plans


def need_d(
    frame: NeedletFrame,
    model: SvdModel,
    obs: SequenceObservation,
    plan: ThresholdPlan,
) -> NeedDResult:
    """Hard-threshold the needlet analysis of the naive inverse Y_i/b_i.

    Levels above plan.j_top are dropped wholesale: their psi is never
    multiplied, and they are returned as zeros. At and below j_top, a
    coefficient survives iff its magnitude reaches the plan's level
    threshold (the constant level included, at its own sigma). The plan
    must be for the observation's epsilon. The result has the observation's
    shape; from the frame budget on it is zero. This is need_d_stack of
    the one pair.
    """
    res = need_d_stack(frame, model, [obs], [plan])
    if obs.y.ndim == 2:
        return res
    return NeedDResult([b[0] for b in res.beta], res.coeffs[0], res.n_kept[0])


def ladder_blocks(plans: Sequence[ThresholdPlan], runs: int) -> list[tuple[int, ...]]:
    """Indices of a ladder of plans, each for `runs` runs, cut into stacks for need_d_stack.

    The plans are ordered by decreasing j_top (a stable sort) and cut into
    blocks of whole plans of at most STACK_ROWS runs, one plan at least.
    """
    order = sorted(range(len(plans)), key=lambda i: -plans[i].j_top)
    per_block = max(1, STACK_ROWS // runs)
    return [tuple(order[i : i + per_block]) for i in range(0, len(order), per_block)]


def need_d_stack(
    frame: NeedletFrame,
    model: SvdModel,
    obs: Sequence[SequenceObservation],
    plans: Sequence[ThresholdPlan],
) -> NeedDResult:
    """need_d of every (obs[p], plans[p]) pair as one stack of rows, the pairs' runs in order.

    The plans must be for this frame and in decreasing j_top, so the rows
    whose j_top reaches a level are a leading block: only those (their count
    per level is the reach of analyze and synthesize) are analyzed,
    thresholded in place at their own level threshold and synthesized; the
    others keep zeros there. Each level's psi is thus multiplied once per
    stack. The observations must have one length.
    """
    if len(obs) != len(plans) or not plans:
        raise ValueError(f"need one plan per observation, got {len(plans)} for {len(obs)}")
    _require_same_basis(frame, model)
    for o, plan in zip(obs, plans):
        _require_same_epsilon(plan.epsilon, o, "plan")
        if len(plan.sigma) != len(frame.levels):
            raise ValueError(f"plan has {len(plan.sigma)} levels, frame has {len(frame.levels)}")
        if o.kmax + 1 < frame.budget:
            raise ValueError(f"need {frame.budget} observed coefficients, got {o.kmax + 1}")
    if model.kmax + 1 < frame.budget:
        raise ValueError(f"model holds {model.kmax + 1} singular values, frame needs {frame.budget}")
    if len({o.kmax for o in obs}) > 1:
        raise ValueError(f"observations differ in length: {sorted({o.kmax + 1 for o in obs})}")
    tops = [p.j_top for p in plans]
    if tops != sorted(tops, reverse=True):
        raise ValueError(f"need plans in decreasing order of j_top, got {tops}")
    ys = [np.atleast_2d(o.y) for o in obs]
    sizes = [len(y) for y in ys]
    budget = frame.budget
    reach = [sum(n for top, n in zip(tops, sizes) if top >= lev.j) for lev in frame.levels]
    cuts = np.repeat([[p.threshold(lev.j) for lev in frame.levels] for p in plans], sizes, axis=0)
    beta = analyze(frame, np.concatenate([y[:, :budget] for y in ys]) / model.b[:budget], reach)
    n_kept = np.zeros(cuts.shape, dtype=int)
    for li, (b, count) in enumerate(zip(beta, reach)):
        live = b[:count]
        keep = np.abs(live) >= cuts[:count, li, None]
        np.putmask(live, ~keep, 0.0)
        n_kept[:count, li] = keep.sum(axis=1)
    coeffs = np.zeros((len(cuts), ys[0].shape[1]))
    coeffs[:, :budget] = synthesize(frame, beta, reach)
    return NeedDResult(beta, coeffs, n_kept)


def svd_projection(model: SvdModel, obs: SequenceObservation, n_keep: int) -> np.ndarray:
    """Truncated naive inverse fhat_i = Y_i/b_i for i <= n_keep, else 0; b must cover every i."""
    if not 0 <= n_keep <= obs.kmax:
        raise ValueError(f"n_keep must be in 0..{obs.kmax}, got {n_keep}")
    fhat = _naive_inverse(model, obs)
    fhat[..., n_keep + 1 :] = 0.0
    return fhat


def projection_gram(e_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and transposed strict lower triangle of G = E W E^T, the weighted-loss
    Gram matrix of a (K, n) basis table: what projection_cutoff reads, formed once per table.

    G is formed GRAM_BLOCK rows at a time, straight into the two outputs:
    a block of rows of E is weighted and multiplied by the rows of E up to
    its last, into the triangle's rows, and the entries on and above the
    diagonal are then read into the diagonal and zeroed. Beside the outputs
    one weighted block is held; no weighted copy of E and no full G is
    formed. Each block rounds as OpenBLAS's product of its rows does, so a
    few entries of G differ by one or two ulps from one whole
    (K, n) @ (n, K) product.
    """
    k, n = e_vals.shape
    w = grid_weights(n)
    diag = np.empty(k)
    lower = np.zeros((k, k))
    for r0 in range(0, k, GRAM_BLOCK):
        r1 = min(r0 + GRAM_BLOCK, k)
        np.matmul(e_vals[r0:r1] * w, e_vals[:r1].T, out=lower[r0:r1, :r1])
        square = lower[r0:r1, r0:r1]
        diag[r0:r1] = square.diagonal()
        square[...] = np.tril(square, -1)
    return diag, lower.T


def projection_cutoff(ybars, e_vals: np.ndarray, f_vals: np.ndarray, gram: tuple) -> int:
    """Cutoff N minimizing the summed weighted RMSE of the runs' partial sums.

    ybars holds one naive inverse per row (R, K), e_vals is the (K, n) basis
    table on the loss grid, f_vals the true grid values and gram is
    projection_gram(e_vals). With c = E W f, the partial sum
    S_N = sum_{m<=N} y_m e_m of a run satisfies

        ||S_N - f||_w^2 = ||f||_w^2 + sum_{m<=N} y_m (y_m G_mm + 2 sum_{k<m} y_k G_mk - 2 c_m),

    so all cutoffs of all runs cost one (R, K) @ (K, K) product and one
    cumulative sum; no partial sum is formed on the grid. Ties go to the
    smaller N.
    """
    y = np.atleast_2d(ybars)
    wf = grid_weights(f_vals.shape[0]) * f_vals
    diag, lower_t = gram
    terms = y * (y * diag + 2.0 * (y @ lower_t) - 2.0 * (e_vals @ wf))
    sq_err = float(f_vals @ wf) + np.cumsum(terms, axis=1)
    score = np.sqrt(np.maximum(sq_err, 0.0)).sum(axis=0)
    if not np.all(np.isfinite(score)):
        raise InvariantError("cutoff sweep produced a non-finite score")
    return int(np.argmin(score))


def make_blocks(model: SvdModel, epsilon: float) -> np.ndarray:
    """Geometrically growing block boundaries kappa_0 = 1 < kappa_1 < ...

    nu_eps = max(5, log log(1/eps)) and rho_eps = 1/log(nu_eps), in natural
    logs, set the growth; boundaries extend until they pass the largest m
    whose cumulative inverse-squared singular values stay under
    eps^{-2} rho^{-3} (past that index the naive inverse is pure noise).
    The last boundary is the first one strictly beyond every usable index.
    """
    _check_noise_level(epsilon, zero=False)
    nu_eps = max(5.0, math.log(math.log(1.0 / epsilon)))
    rho = 1.0 / math.log(nu_eps)
    # compare eps^{-2} rho^{-3} against the cumulative sums in log space:
    # the direct power overflows for epsilon below ~1e-154
    log_limit = -2.0 * math.log(epsilon) - 3.0 * math.log(rho)
    csum = np.cumsum(model.b[1:] ** (-2.0))
    m_usable = int(np.searchsorted(np.log(csum), log_limit, side="right"))
    boundaries = [1, math.ceil(nu_eps)]
    j = 2
    while boundaries[-1] <= m_usable:
        step = max(1, math.floor(nu_eps * rho * (1.0 + rho) ** (j - 1)))
        boundaries.append(boundaries[-1] + step)
        j += 1
    return np.asarray(boundaries, dtype=int)


@dataclass(frozen=True)
class AdaptiveSvdConfig:
    """Resolved blockwise filter: boundaries, per-block noise stats, cutoff.

    sigma2[j] is the noise energy eps^2 sum b_i^{-2} over block j, delta[j]
    the max/sum concentration ratio of the same weights; n_top is the last
    coefficient index the filter may keep (indices above get weight zero).
    """

    gamma: float
    epsilon: float
    boundaries: np.ndarray
    sigma2: np.ndarray
    delta: np.ndarray
    n_top: int


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma < 0.5:
        raise ValueError(f"gamma must be in (0, 1/2), got {gamma}")


def make_adaptive_config(
    model: SvdModel, epsilon: float, n: int, gamma: float = GAMMA_DEFAULT
) -> AdaptiveSvdConfig:
    """Precompute the blockwise filter for one (model, epsilon, n) setting.

    The keepable range ends at min(n/2, last boundary - 1): the resolution
    cap n/2 reflects that the grid cannot support more coefficients than
    half its points, whatever the noise level says. epsilon = 0 gives the
    zero-noise limit: one noise-free block [1, kmax + 1), unit weights to the cap.
    """
    _check_gamma(gamma)
    if n < 2:
        raise ValueError(f"grid resolution must be >= 2, got {n}")
    boundaries = make_blocks(model, epsilon) if epsilon else np.array([1, model.kmax + 1])
    inv2 = model.b ** (-2.0)
    sigma2, delta = [], []
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        hi_clip = min(int(hi), model.kmax + 1)
        if hi_clip <= lo:
            raise InvariantError(
                f"empty block [{int(lo)}, {int(hi)}) after clipping to kmax {model.kmax}"
            )
        w = inv2[int(lo) : hi_clip]
        total = float(np.sum(w))
        sigma2.append(epsilon * epsilon * total)
        delta.append(float(np.max(w)) / total)
    n_top = min(n // 2, int(boundaries[-1]) - 1)
    return AdaptiveSvdConfig(
        float(gamma),
        float(epsilon),
        boundaries,
        np.asarray(sigma2),
        np.asarray(delta),
        int(n_top),
    )


def svd_adaptive(
    model: SvdModel, obs: SequenceObservation, config: AdaptiveSvdConfig
) -> np.ndarray:
    """Blockwise shrinkage of the naive inverse.

    Within block j the weight is (1 - sigma2_j (1 + delta_j^gamma) / ||Y/b||^2)_+,
    constant across the block; index 0 sits below the first boundary and is
    kept with weight 1 (its noise is a single coordinate, never dominant).
    The model must hold a singular value for every observed index.
    """
    _require_same_epsilon(config.epsilon, obs, "config")
    kmax = obs.kmax
    ybar = _naive_inverse(model, obs)
    lam = np.zeros(ybar.shape)
    lam[..., 0] = 1.0
    for j, (lo, hi) in enumerate(zip(config.boundaries[:-1], config.boundaries[1:])):
        lo, hi = int(lo), min(int(hi), kmax + 1)
        if hi <= lo:
            raise InvariantError(f"empty block [{lo}, {int(config.boundaries[j + 1])})")
        block = ybar[..., lo:hi]
        energy = np.sum(block * block, axis=-1, keepdims=True)
        penalty = config.sigma2[j] * (1.0 + config.delta[j] ** config.gamma)
        # a block without energy keeps weight zero
        ratio = np.divide(penalty, energy, out=np.full(energy.shape, np.inf), where=energy > 0.0)
        lam[..., lo:hi] = np.maximum(0.0, 1.0 - ratio)
    if config.n_top < kmax:
        lam[..., config.n_top + 1 :] = 0.0
    return lam * ybar
