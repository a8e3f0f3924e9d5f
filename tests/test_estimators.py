"""Thresholding and blockwise SVD estimators.

Hand-computable anchors: t_eps at eps = 0.01, the first block boundaries at
nu_eps = 5, and a single-element block where the concentration ratio is 1.
"""

import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import needlets.estimators as estimators
from needlets import (
    AdaptiveSvdConfig,
    InvariantError,
    KAPPA_DEFAULT,
    STACK_ROWS,
    SequenceObservation,
    analyze,
    build_frame,
    derive_seed,
    direct_model,
    jacobi_basis,
    ladder_blocks,
    make_adaptive_config,
    make_blocks,
    make_threshold_plan,
    need_d,
    need_d_stack,
    projection_cutoff,
    projection_gram,
    sample_observation,
    svd_adaptive,
    svd_projection,
    synthesize,
    wicksell_model,
    eval_e,
)
from needlets.cli import RATE_EPS_DEFAULT
from needlets.frame import level_sigma


def _signal(frame, seed=0):
    rng = np.random.default_rng(seed)
    c = np.zeros(513)
    c[: frame.exact_dim] = rng.standard_normal(frame.exact_dim)
    return c


def test_kappa_default_value():
    assert abs(KAPPA_DEFAULT - 0.75 * math.sqrt(2.0)) < 1e-15


def test_threshold_plan_frozen_example(frame8, wicksell512):
    plan = make_threshold_plan(frame8, wicksell512, 0.01)
    # t = eps sqrt(log 1/eps) and 2^J <= t^{-2/(1+2nu)} < 2^{J+1} with nu=1/2
    assert abs(plan.t_eps - 0.021459660262893473) < 1e-15
    assert plan.j_top == 5
    t_pow = plan.t_eps ** (-2.0 / (1.0 + 2.0 * wicksell512.nu))
    assert 2.0**plan.j_top <= t_pow < 2.0 ** (plan.j_top + 1)
    assert plan.sigma.shape == (frame8.j_max + 2,)


def test_threshold_plan_noise_free(frame8, wicksell512):
    plan = make_threshold_plan(frame8, wicksell512, 0.0)
    assert plan.t_eps == 0.0
    assert plan.j_top == frame8.j_max


def test_need_d_noise_free_identity(frame8, wicksell512, rng):
    c = _signal(frame8)
    obs = sample_observation(wicksell512, c, 0.0, rng)
    plan = make_threshold_plan(frame8, wicksell512, 0.0)
    res = need_d(frame8, wicksell512, obs, plan)
    assert np.max(np.abs(res.coeffs - c)) < 1e-8
    assert len(res.beta) == frame8.j_max + 2


def test_threshold_plans_for_noise_levels_share_one_sigma_pass(frame8, wicksell512, monkeypatch):
    eps = [0.1, 0.01, 1e-4, 0.0]
    singles = [make_threshold_plan(frame8, wicksell512, e, 0.9) for e in eps]
    calls = []

    def counted(*args):
        calls.append(args)
        return level_sigma(*args)

    monkeypatch.setattr(estimators, "level_sigma", counted)
    plans = make_threshold_plan(frame8, wicksell512, eps, 0.9)
    assert len(calls) == 1 and isinstance(plans, tuple) and len(plans) == len(eps)
    for plan, single in zip(plans, singles):
        assert (plan.epsilon, plan.kappa, plan.t_eps, plan.j_top) == (
            single.epsilon, single.kappa, single.t_eps, single.j_top
        )
        np.testing.assert_array_equal(plan.sigma, single.sigma)
    # a sequence is checked like one level: every entry, and the basis
    with pytest.raises(ValueError, match="got 1.0$"):
        make_threshold_plan(frame8, wicksell512, [0.01, 1.0])
    with pytest.raises(ValueError, match="differs from model basis"):
        make_threshold_plan(frame8, dataclasses.replace(wicksell512, basis=jacobi_basis(0.0, 0.0)), eps)


@pytest.mark.parametrize("runs", [None, 3])
def test_estimators_return_observation_shape(frame8, wicksell512, runs):
    # one coefficient per observed index, for one run (K,) and a stack (R, K);
    # need_d has none past the frame budget, where no needlet reaches
    eps = 0.01
    rng = np.random.default_rng(5)
    y = np.stack([sample_observation(wicksell512, _signal(frame8), eps, rng).y for _ in range(runs or 1)])
    obs = SequenceObservation(y if runs else y[0], eps)
    need = need_d(frame8, wicksell512, obs, make_threshold_plan(frame8, wicksell512, eps)).coeffs
    adapt = svd_adaptive(wicksell512, obs, make_adaptive_config(wicksell512, eps, 1024))
    proj = svd_projection(wicksell512, obs, 100)
    for fhat in (need, adapt, proj):
        assert fhat.shape == obs.y.shape == ((runs,) if runs else ()) + (513,)
    assert np.all(need[..., frame8.budget :] == 0.0)
    # a model shorter than the observation is refused, not truncated to,
    # whatever the projection cutoff
    short = wicksell_model(256)
    with pytest.raises(ValueError, match="^model holds 257 singular values, observation 513$"):
        svd_adaptive(short, obs, make_adaptive_config(short, eps, 1024))
    with pytest.raises(ValueError, match="^model holds 257 singular values, observation 513$"):
        svd_projection(short, obs, 100)


def test_need_d_nan_observation_rejected(frame8, wicksell512, rng):
    # one NaN used to flow through analyze and silently zero levels 1-2 of
    # the estimate; it must now stop at the observation boundary
    c = _signal(frame8)
    y = sample_observation(wicksell512, c, 0.0, rng).y.copy()
    y[3] = np.nan
    plan = make_threshold_plan(frame8, wicksell512, 0.0)
    with pytest.raises(ValueError, match=r"y\[3\] = nan"):
        need_d(frame8, wicksell512, SequenceObservation(y, 0.0), plan)


def test_need_d_rejects_frame_on_another_basis(frame8, filt, wicksell512, rng):
    # a Legendre frame is tight on coefficient sequences too and passes every
    # numeric check, but its needlets are localized for the Legendre basis,
    # not for the model's Jacobi(0,1) e_k
    legendre = build_frame(jacobi_basis(0.0, 0.0), filt, j_max=frame8.j_max)
    mismatch = r"JacobiBasis\(alpha=0, beta=0\) differs from model basis JacobiBasis\(alpha=0, beta=1\)"
    with pytest.raises(ValueError, match=mismatch):
        make_threshold_plan(legendre, wicksell512, 0.01)
    obs = sample_observation(wicksell512, _signal(frame8), 0.01, rng)
    plan = make_threshold_plan(frame8, wicksell512, 0.01)
    with pytest.raises(ValueError, match=mismatch):
        need_d(legendre, wicksell512, obs, plan)


def test_run_stack_rows_match_single_runs(frame8, wicksell512):
    # an (R, K) observation goes through every estimator in one call; row r
    # must be what the single-run call on run r returns
    eps = 0.01
    c = _signal(frame8)
    single = [
        sample_observation(wicksell512, c, eps, np.random.default_rng(derive_seed(7, r, "t", "n")))
        for r in range(20)
    ]
    stack = SequenceObservation(np.stack([o.y for o in single]), eps)
    assert stack.kmax == 512 and stack.y.shape == (20, 513)

    ybars = stack.y[:, : frame8.budget] / wicksell512.b[: frame8.budget]
    beta = analyze(frame8, ybars)
    back = synthesize(frame8, beta)
    for r, ybar in enumerate(ybars):
        for level, row in zip(beta, analyze(frame8, ybar)):
            np.testing.assert_allclose(level[r], row, rtol=1e-12, atol=1e-12 * np.max(np.abs(row)))
        want = synthesize(frame8, [level[r] for level in beta])
        np.testing.assert_allclose(back[r], want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    plan = make_threshold_plan(frame8, wicksell512, eps)
    cfg = make_adaptive_config(wicksell512, eps, 1024)
    res = need_d(frame8, wicksell512, stack, plan)
    adapt = svd_adaptive(wicksell512, stack, cfg)
    proj = svd_projection(wicksell512, stack, 40)
    for r, obs in enumerate(single):
        one = need_d(frame8, wicksell512, obs, plan)
        for level, row in zip(res.beta, one.beta):
            np.testing.assert_array_equal(level[r] != 0.0, row != 0.0)
        np.testing.assert_allclose(res.coeffs[r], one.coeffs, rtol=1e-12, atol=1e-12 * np.max(np.abs(one.coeffs)))
        np.testing.assert_array_equal(adapt[r], svd_adaptive(wicksell512, obs, cfg))
        np.testing.assert_array_equal(proj[r], svd_projection(wicksell512, obs, 40))


def _ladder_runs(model, frame, eps, runs=20):
    c = _signal(frame)
    return [
        SequenceObservation(
            np.stack([
                sample_observation(model, c, e, np.random.default_rng(derive_seed(7, r, "t", repr(e)))).y
                for r in range(runs)
            ]),
            e,
        )
        for e in eps
    ]


@pytest.mark.parametrize("shuffled", [False, True])
def test_ladder_stacks_equal_their_parts(frame8, wicksell512, shuffled):
    # a stack of ladder_blocks mixes noise levels of different j_top; a row
    # whose j_top is below a level must be neither multiplied nor
    # thresholded there, whatever order the levels were given in
    eps = list(RATE_EPS_DEFAULT)
    if shuffled:
        np.random.default_rng(5).shuffle(eps)
    plans = make_threshold_plan(frame8, wicksell512, eps)
    obs = _ladder_runs(wicksell512, frame8, eps)
    blocks = ladder_blocks(plans, 20)
    assert sorted(i for block in blocks for i in block) == list(range(len(eps)))
    assert all(len(block) * 20 <= STACK_ROWS for block in blocks)
    tops = [plans[i].j_top for block in blocks for i in block]
    assert tops == sorted(tops, reverse=True)
    assert any(len({plans[i].j_top for i in block}) > 1 for block in blocks)
    for block in blocks:
        res = need_d_stack(frame8, wicksell512, [obs[i] for i in block], [plans[i] for i in block])
        for k, i in enumerate(block):
            rows = slice(20 * k, 20 * (k + 1))
            one = need_d(frame8, wicksell512, obs[i], plans[i])
            for level, want in zip(res.beta, one.beta):
                np.testing.assert_array_equal(level[rows] != 0.0, want != 0.0)
                np.testing.assert_allclose(level[rows], want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
            np.testing.assert_array_equal(res.n_kept[rows], one.n_kept)
            np.testing.assert_allclose(
                res.coeffs[rows], one.coeffs, rtol=1e-12, atol=1e-12 * np.max(np.abs(one.coeffs))
            )


def test_stack_refuses_plans_out_of_top_order(frame8, wicksell512):
    eps = [1e-1, 1e-4]
    plans = make_threshold_plan(frame8, wicksell512, eps)
    assert plans[0].j_top < plans[1].j_top
    obs = _ladder_runs(wicksell512, frame8, eps, runs=2)
    with pytest.raises(ValueError, match="decreasing order"):
        need_d_stack(frame8, wicksell512, obs, plans)
    with pytest.raises(ValueError, match="one plan per observation"):
        need_d_stack(frame8, wicksell512, obs, plans[:1])
    short = SequenceObservation(obs[0].y[:, :-1], eps[0])
    with pytest.raises(ValueError, match="differ in length"):
        need_d_stack(frame8, wicksell512, [obs[1], short], plans[::-1])
    stacked = need_d_stack(frame8, wicksell512, obs[::-1], plans[::-1])
    assert stacked.coeffs.shape == (4, 513)


def test_need_d_counts_the_kept_coefficients(frame8, wicksell512, rng):
    # n_kept is the thresholding mask counted per run and level: what
    # survives in beta, and nothing above j_top
    c = _signal(frame8)
    eps = 0.01
    plan = make_threshold_plan(frame8, wicksell512, eps)
    assert plan.j_top < frame8.j_max
    one = sample_observation(wicksell512, c, eps, rng)
    stack = SequenceObservation(
        np.stack([one.y] + [sample_observation(wicksell512, c, eps, rng).y for _ in range(3)]), eps
    )
    above = np.array([lev.j > plan.j_top for lev in frame8.levels])
    for obs in (one, stack):
        res = need_d(frame8, wicksell512, obs, plan)
        assert res.n_kept.dtype.kind == "i"
        assert res.n_kept.shape == obs.y.shape[:-1] + (len(frame8.levels),)
        counted = np.stack([np.count_nonzero(b, axis=-1) for b in res.beta], axis=-1)
        np.testing.assert_array_equal(res.n_kept, counted)
        assert np.all(res.n_kept[..., above] == 0)
        assert np.all(res.n_kept[..., ~above].sum(axis=-1) > 0)


def test_need_d_threshold_is_hard(frame8, wicksell512, rng):
    c = _signal(frame8)
    eps = 0.01
    obs = sample_observation(wicksell512, c, eps, rng)
    plan = make_threshold_plan(frame8, wicksell512, eps)
    res = need_d(frame8, wicksell512, obs, plan)
    # every surviving coefficient clears its level threshold; every level
    # above j_top is fully zeroed
    ybar = obs.y[: frame8.budget] / wicksell512.b[: frame8.budget]
    raw = analyze(frame8, ybar)
    for li, (b_kept, b_raw) in enumerate(zip(res.beta, raw)):
        j = frame8.levels[li].j
        cut = plan.kappa * plan.t_eps * plan.sigma[li]
        if j > plan.j_top:
            assert np.all(b_kept == 0.0)
            continue
        kept = b_kept != 0.0
        np.testing.assert_array_equal(b_kept[kept], b_raw[kept])
        assert np.all(np.abs(b_raw[kept]) >= cut)
        assert np.all(np.abs(b_raw[~kept]) < cut)


def test_need_d_never_multiplies_levels_above_j_top(frame8, wicksell512, rng):
    # NaN psi above j_top would reach the estimate through any product with
    # those levels, even 0 @ psi; coefficients and estimate must keep the
    # real frame's bits, for one run and for a stack of runs
    eps = 0.01
    plan = make_threshold_plan(frame8, wicksell512, eps)
    assert plan.j_top < frame8.j_max
    poisoned = dataclasses.replace(
        frame8,
        levels=tuple(
            dataclasses.replace(lev, psi=np.full_like(lev.psi, np.nan)) if lev.j > plan.j_top else lev
            for lev in frame8.levels
        ),
    )
    c = _signal(frame8)
    one = sample_observation(wicksell512, c, eps, rng)
    stack = SequenceObservation(np.stack([one.y, sample_observation(wicksell512, c, eps, rng).y]), eps)
    for obs in (one, stack):
        want = need_d(frame8, wicksell512, obs, plan)
        got = need_d(poisoned, wicksell512, obs, plan)
        np.testing.assert_array_equal(got.coeffs, want.coeffs)
        assert len(got.beta) == len(want.beta)
        for b_got, b_want in zip(got.beta, want.beta):
            np.testing.assert_array_equal(b_got, b_want)


def test_need_d_kappa_monotone(frame8, wicksell512, rng):
    c = _signal(frame8)
    eps = 0.005
    obs = sample_observation(wicksell512, c, eps, rng)
    counts = []
    for kappa in (0.5, 1.0, 2.0, 4.0):
        plan = make_threshold_plan(frame8, wicksell512, eps, kappa=kappa)
        res = need_d(frame8, wicksell512, obs, plan)
        counts.append(sum(int(np.count_nonzero(b)) for b in res.beta))
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > counts[-1]


def test_threshold_plan_argument_errors(frame8, wicksell512):
    for eps in (1.0, -0.1):
        with pytest.raises(ValueError):
            make_threshold_plan(frame8, wicksell512, eps)
    with pytest.raises(ValueError):
        make_threshold_plan(frame8, wicksell512, 0.01, kappa=0.0)


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
def test_threshold_plan_refuses_non_finite_kappa(frame8, wicksell512, kappa):
    # kappa <= 0 is false for NaN, whose thresholds then keep no coefficient
    with pytest.raises(ValueError, match=f"kappa must be finite and > 0, got {kappa}"):
        make_threshold_plan(frame8, wicksell512, 0.01, kappa=kappa)


@settings(max_examples=40, deadline=None)
@given(eps=st.floats(5e-324, 1.0, exclude_max=True))
@example(eps=5e-324)
@example(eps=sys.float_info.min)
@example(eps=1.0 - 2.0**-53)
def test_threshold_plan_invariants(frame7, eps):
    # every epsilon in (0, 1), for nu = 1/2 and nu = 0 with exactly the
    # frame's budget of singular values, gives a finite threshold and a top
    # level inside the frame or, below the smallest normal float, a
    # ValueError naming epsilon
    for model in (wicksell_model(frame7.budget - 1), direct_model(frame7.budget - 1)):
        if eps < sys.float_info.min:
            with pytest.raises(ValueError, match=f"epsilon must be .*got {eps}"):
                make_threshold_plan(frame7, model, eps)
            continue
        plan = make_threshold_plan(frame7, model, eps)
        assert math.isfinite(plan.t_eps) and plan.t_eps >= 0.0
        assert 0 <= plan.j_top <= frame7.j_max


def test_blocks_frozen_prefix(wicksell512):
    # eps = 0.01 gives nu_eps = max(5, loglog 100) = 5, rho = 1/log 5:
    # the recursion starts 1, 5, 10, 18, 31, 52, 86
    bounds = make_blocks(wicksell512, 0.01)
    assert bounds[:7].tolist() == [1, 5, 10, 18, 31, 52, 86]
    assert np.all(np.diff(bounds) >= 1)
    with pytest.raises(ValueError):
        make_blocks(wicksell512, 0.0)
    with pytest.raises(ValueError):
        make_blocks(wicksell512, 1.0)


def test_blocks_kappa2_is_ceil_nu(wicksell512):
    # second boundary is always ceil(nu_eps); for eps small enough that
    # loglog(1/eps) exceeds 5 it moves past 5
    eps = math.exp(-math.exp(6.0))
    assert eps > 0.0
    bounds = make_blocks(wicksell512, eps)
    assert bounds[1] == 6


def test_adaptive_config_frozen(wicksell512):
    cfg = make_adaptive_config(wicksell512, 0.01, 1024)
    assert cfg.boundaries[:7].tolist() == [1, 5, 10, 18, 31, 52, 86]
    assert cfg.n_top == 85
    assert np.all(cfg.delta > 0.0) and np.all(cfg.delta <= 1.0)
    assert np.all(cfg.sigma2 > 0.0)
    with pytest.raises(ValueError):
        make_adaptive_config(wicksell512, 0.01, 1024, gamma=0.5)
    with pytest.raises(ValueError):
        make_adaptive_config(wicksell512, 0.01, 1)


@pytest.mark.parametrize("n", [1024, 256])
def test_adaptive_zero_noise_limit_is_capped_projection(wicksell512, rng, n):
    # at epsilon = 0 one noise-free block keeps every index up to the n/2 cap
    obs = sample_observation(wicksell512, rng.standard_normal(513), 0.0, rng)
    cfg = make_adaptive_config(wicksell512, 0.0, n)
    assert cfg.boundaries.tolist() == [1, 513] and cfg.sigma2.tolist() == [0.0]
    assert cfg.n_top == min(n // 2, 512)
    np.testing.assert_array_equal(
        svd_adaptive(wicksell512, obs, cfg), svd_projection(wicksell512, obs, cfg.n_top)
    )
    with pytest.raises(ValueError, match="^epsilon must be in "):
        make_blocks(wicksell512, 0.0)


@pytest.mark.parametrize("base", [1.0, 0.5, 0.0, -1.0, math.nan, math.inf])
def test_log_base_must_be_finite_above_one(wicksell512, base):
    # a base of 1 divided by log 1 = 0, a base below 1 flipped every log
    msg = f"^log base must be finite and > 1, got {re.escape(str(base))}$"
    with pytest.raises(ValueError, match=msg):
        make_blocks(wicksell512, 0.01, base)
    with pytest.raises(ValueError, match=msg):
        make_adaptive_config(wicksell512, 0.0, 1024, log_base=base)


def test_adaptive_weights_structure(wicksell512, rng):
    c = np.zeros(513)
    c[:64] = rng.standard_normal(64)
    eps = 0.01
    obs = sample_observation(wicksell512, c, eps, rng)
    cfg = make_adaptive_config(wicksell512, eps, 1024)
    fhat = svd_adaptive(wicksell512, obs, cfg)
    ybar = obs.y / wicksell512.b
    lam = np.divide(fhat, ybar, out=np.zeros_like(fhat), where=ybar != 0.0)
    assert np.all(lam >= -1e-12) and np.all(lam <= 1.0 + 1e-12)
    assert np.all(fhat[cfg.n_top + 1 :] == 0.0)
    assert abs(lam[0] - 1.0) < 1e-12
    # block-constant: within each kept block the ratio is a single value
    for lo, hi in zip(cfg.boundaries[:-1], cfg.boundaries[1:]):
        lo, hi = int(lo), min(int(hi), cfg.n_top + 1)
        if hi - lo >= 2:
            assert np.ptp(lam[lo:hi]) < 1e-10


def test_adaptive_single_element_block(wicksell512):
    # hand-built config with the singleton block {1}: delta = 1 so the
    # penalty is exactly 2 sigma2, and lambda = (1 - 2 sigma2 / ybar_1^2)_+
    eps = 0.1
    b1 = wicksell512.b[1]
    sigma2 = eps * eps / b1**2
    cfg = AdaptiveSvdConfig(
        gamma=0.1,
        epsilon=eps,
        boundaries=np.array([1, 2]),
        sigma2=np.array([sigma2]),
        delta=np.array([1.0]),
        n_top=1,
    )
    from needlets import SequenceObservation

    ybar1 = 3.0 * eps
    obs_y = np.zeros(513)
    obs_y[1] = ybar1 * b1
    obs = SequenceObservation(y=obs_y, epsilon=eps)
    fhat = svd_adaptive(wicksell512, obs, cfg)
    want = max(0.0, 1.0 - 2.0 * sigma2 / ybar1**2) * ybar1
    assert abs(fhat[1] - want) < 1e-12
    assert np.all(fhat[2:] == 0.0)


def test_adaptive_epsilon_mismatch(wicksell512, rng):
    obs = sample_observation(wicksell512, np.ones(513), 0.01, rng)
    cfg = make_adaptive_config(wicksell512, 0.02, 1024)
    with pytest.raises(ValueError):
        svd_adaptive(wicksell512, obs, cfg)


def test_need_d_epsilon_mismatch(frame8, wicksell512, rng):
    # a plan for a smaller epsilon keeps levels the observation's noise swamps
    plan = make_threshold_plan(frame8, wicksell512, 1e-4)
    obs = sample_observation(wicksell512, _signal(frame8), 0.1, rng)
    with pytest.raises(ValueError, match=r"epsilon 0\.0001, observation has 0\.1$"):
        need_d(frame8, wicksell512, obs, plan)


def test_projection_keeps_prefix(wicksell512, rng):
    c = np.zeros(513)
    c[:8] = 1.0
    obs = sample_observation(wicksell512, c, 0.0, rng)
    fhat = svd_projection(wicksell512, obs, 5)
    np.testing.assert_allclose(fhat[:6], c[:6], rtol=0, atol=1e-12)
    assert np.all(fhat[6:] == 0.0)
    with pytest.raises(ValueError):
        svd_projection(wicksell512, obs, 600)
    with pytest.raises(ValueError):
        svd_projection(wicksell512, obs, -1)


def test_projection_oracle_brute_force(wicksell512, rng):
    # the Gram-identity sweep picks the cutoff a brute-force sweep of the
    # grid reconstructions picks
    grid = (1.0 + np.arange(128)) / 128.0
    e_vals = eval_e(wicksell512, 512, grid)
    c = np.zeros(513)
    c[:10] = rng.standard_normal(10)
    f_vals = c @ e_vals
    obs = sample_observation(wicksell512, c, 0.02, rng)
    e_top = e_vals[:257]
    ybar = obs.y[:257] / wicksell512.b[:257]
    n_star = projection_cutoff(ybar, e_top, f_vals, projection_gram(e_top))
    from needlets import weighted_loss

    losses = []
    for n_keep in range(0, 257):
        cand = svd_projection(wicksell512, obs, n_keep)
        losses.append(weighted_loss(f_vals, cand @ e_vals, 128, 2))
    assert n_star == int(np.argmin(losses))


def test_projection_oracle_ties_break_to_smaller(wicksell512, rng):
    # zero signal and zero noise make every cutoff lossless; the sweep must
    # settle on the smallest one
    grid = (1.0 + np.arange(32)) / 32.0
    e_vals = eval_e(wicksell512, 256, grid)
    obs = sample_observation(wicksell512, np.zeros(513), 0.0, rng)
    ybar = obs.y[:257] / wicksell512.b[:257]
    assert projection_cutoff(ybar, e_vals, np.zeros(32), projection_gram(e_vals)) == 0


def test_projection_cutoff_rejects_non_finite_runs(wicksell512, rng):
    # a NaN run would turn every cutoff score into NaN and argmin into 0
    grid = (1.0 + np.arange(64)) / 64.0
    e_vals = eval_e(wicksell512, 32, grid)
    ybars = rng.standard_normal((3, 33))
    ybars[1, 7] = np.nan
    with pytest.raises(InvariantError):
        projection_cutoff(ybars, e_vals, np.zeros(64), projection_gram(e_vals))


@settings(max_examples=40, deadline=None)
@given(eps=st.floats(5e-324, 1.0 - 2.0**-53))
@example(eps=5e-324)
@example(eps=sys.float_info.min)
@example(eps=1.0 - 2.0**-53)
def test_blocks_invariants(eps):
    # every epsilon in (0, 1) gives blocks or, below the smallest normal
    # float where 1/epsilon overflows, a ValueError naming epsilon
    for model in (wicksell_model(512), direct_model(512)):
        if eps < sys.float_info.min:
            with pytest.raises(ValueError, match=f"got {eps}"):
                make_blocks(model, eps)
            continue
        bounds = make_blocks(model, eps)
        assert bounds[0] == 1
        assert np.all(np.diff(bounds) >= 1)
        nu_eps = max(5.0, math.log(math.log(1.0 / eps)) if eps < 1.0 / math.e else 5.0)
        assert bounds[1] == math.ceil(nu_eps)
