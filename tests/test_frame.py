"""Needlet frame construction: tightness, zero sums, level geometry.

The frame is exact on spans of dimension 2^{j_max} + 1; random functions
supported there must satisfy Parseval and reconstruct to rounding error.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needlets import (
    MAX_JMAX,
    FrameSpec,
    InvariantError,
    SequenceObservation,
    SimulationConfig,
    analyze,
    build_frame,
    filter_a,
    frame_levels,
    gauss_jacobi_rule,
    jacobi_basis,
    jacobi_eval_all,
    level_sigma,
    make_filter,
    make_profile,
    make_threshold_plan,
    need_d_stack,
    synthesize,
    wicksell_model,
)
import needlets.frame
import needlets.jacobi
from needlets.frame import BLOCK, NODE_BLOCK, _Gram, _gram_defect, _level_window, _row_blocks


def _random_supported(frame, rng):
    f = np.zeros(frame.budget)
    f[: frame.exact_dim] = rng.standard_normal(frame.exact_dim)
    return f


def test_level_geometry(frame7):
    assert frame7.budget == 256
    assert frame7.exact_dim == 129
    assert [lev.j for lev in frame7.levels] == list(range(-1, 8))
    const = frame7.level(-1)
    assert const.psi.shape == (1, 1) and const.psi[0, 0] == 1.0
    for j in range(frame7.j_max + 1):
        lev = frame7.level(j)
        lo = 2 ** (j - 1) + 1 if j >= 1 else 1
        assert lev.freq_lo == lo
        assert lev.freq_hi == 2 ** (j + 1) - 1
    with pytest.raises(ValueError):
        frame7.level(9)


def test_tight_frame_parseval_and_roundtrip(frame7):
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = _random_supported(frame7, rng)
        beta = analyze(frame7, f)
        energy = sum(float(b @ b) for b in beta)
        norm2 = float(f @ f)
        assert abs(energy - norm2) <= 1e-8 * norm2
        back = synthesize(frame7, beta)
        assert np.max(np.abs(back - f)) <= 1e-8 * np.max(np.abs(f))


def test_zero_sum_and_norms(frame7):
    for lev in frame7.levels:
        if lev.j >= 0:
            # every needlet of level j >= 0 integrates to zero because its
            # frequency window excludes the constant
            col_sums = np.sqrt(lev.weights) @ lev.psi
            # psi rows are needlets evaluated... sum over eta of
            # sqrt(w_eta) psi^i is the quadrature integral of Pi_i times a_i
            assert np.max(np.abs(col_sums)) <= 1e-10
        norms = np.linalg.norm(lev.psi, axis=1)
        assert np.max(norms) <= 1.0 + 1e-10


def test_coefficient_shape_errors(frame7):
    with pytest.raises(ValueError):
        analyze(frame7, np.zeros(100))
    beta = analyze(frame7, np.zeros(256))
    with pytest.raises(ValueError):
        synthesize(frame7, beta[:-1])
    beta[3] = beta[3][:-2]
    with pytest.raises(ValueError):
        synthesize(frame7, beta)
    with pytest.raises(ValueError):
        analyze(frame7, np.zeros((2, 3, 256)))
    # a stack of runs must be a stack on every level
    beta = analyze(frame7, np.zeros((4, 256)))
    beta[2] = beta[2][0]
    with pytest.raises(ValueError, match="level 1"):
        synthesize(frame7, beta)


def test_reach_stops_analysis_and_synthesis(frame7, rng):
    # levels reached by no row come back as zeros and are skipped by
    # synthesis; the kept levels and the reconstruction keep the full call's bits
    runs = np.stack([_random_supported(frame7, rng) for _ in range(3)])
    full = analyze(frame7, runs)
    for top in (-1, 3, frame7.j_max):
        reach = [3 if lev.j <= top else 0 for lev in frame7.levels]
        beta = analyze(frame7, runs, reach)
        for lev, b, b_full in zip(frame7.levels, beta, full):
            np.testing.assert_array_equal(b, b_full if lev.j <= top else np.zeros(b_full.shape))
        np.testing.assert_array_equal(synthesize(frame7, beta, reach), synthesize(frame7, beta))
    # synthesis reads nothing beyond the reach, finite or not
    reach = [3 if lev.j <= 3 else 0 for lev in frame7.levels]
    beta = analyze(frame7, runs, reach)
    beta[-1] = np.full(beta[-1].shape, np.nan)
    np.testing.assert_array_equal(
        synthesize(frame7, beta, reach), synthesize(frame7, analyze(frame7, runs, reach))
    )


@pytest.mark.parametrize(
    "reach",
    [
        # leading rows whose top levels are [7, 5, 5, 2, -1]
        [5, 4, 4, 4, 3, 3, 3, 1, 1],
        # counts need not decrease with the level
        [5, 5, 2, 4, 0, 3, 1, 5, 0],
    ],
)
def test_reach_multiplies_only_the_leading_rows(frame7, rng, reach):
    # each row is what a one-row call with its own reach gives, and a level
    # beyond a row's reach is neither read nor multiplied for it, finite or not
    runs = np.stack([_random_supported(frame7, rng) for _ in range(5)])
    beta = analyze(frame7, runs, reach)
    back = synthesize(frame7, beta, reach)
    for r in range(5):
        own = [int(r < count) for count in reach]
        want = analyze(frame7, runs[r], own)
        for level, row, kept in zip(beta, want, own):
            if not kept:
                assert np.all(level[r] == 0.0) and np.all(row == 0.0)
            np.testing.assert_allclose(level[r], row, rtol=1e-12, atol=1e-12 * np.max(np.abs(row)))
        one = synthesize(frame7, want, own)
        np.testing.assert_allclose(back[r], one, rtol=1e-12, atol=1e-12 * np.max(np.abs(one)))
    poisoned = [b.copy() for b in beta]
    for b, count in zip(poisoned, reach):
        b[count:] = np.nan
    np.testing.assert_array_equal(synthesize(frame7, poisoned, reach), back)


@pytest.mark.parametrize(
    "tops, message",
    [
        ([2, 5, 5], "decreasing order"),
        ([5, 2, 5], "decreasing order"),
    ],
)
def test_per_run_top_levels_refused(frame7, tops, message):
    # per-run top levels are the estimators' notion: the frame takes any
    # counts of leading rows, and need_d_stack refuses plans out of j_top order
    model = wicksell_model(frame7.budget)
    plans = [replace(make_threshold_plan(frame7, model, 1e-3), j_top=top) for top in tops]
    obs = [SequenceObservation(np.ones((1, frame7.budget + 1)), 1e-3) for _ in tops]
    with pytest.raises(ValueError, match=message):
        need_d_stack(frame7, model, obs, plans)
    reach = [sum(top >= lev.j for top in tops) for lev in frame7.levels]
    runs = np.ones((len(tops), frame7.budget))
    assert synthesize(frame7, analyze(frame7, runs, reach), reach).shape == runs.shape
    ordered = sorted(plans, key=lambda p: p.j_top, reverse=True)
    kept = need_d_stack(frame7, model, obs, ordered).n_kept
    for plan, row in zip(ordered, kept):
        assert not row[[lev.j > plan.j_top for lev in frame7.levels]].any()


@pytest.mark.parametrize(
    "reach",
    [[3] * 8, [3] * 10, [3, 3, 3, -1, 0, 0, 0, 0, 0], [3, 4, 3, 3, 0, 0, 0, 0, 0]],
    ids=["short", "long", "below-0", "above-R"],
)
def test_bad_reach_refused(frame7, reach):
    runs = np.ones((3, frame7.budget))
    beta = analyze(frame7, runs)
    message = re.escape(f"need 9 counts in 0..3, got reach {reach}")
    with pytest.raises(ValueError, match=message):
        analyze(frame7, runs, reach)
    with pytest.raises(ValueError, match=message):
        synthesize(frame7, beta, reach)
    # a vector counts as one row
    with pytest.raises(ValueError, match=re.escape("need 9 counts in 0..1, got reach [2, 2, 2")):
        analyze(frame7, runs[0], [2] * 9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coefficients_rejected(frame7, bad):
    f = np.ones(256)
    f[17] = bad
    with pytest.raises(ValueError, match=rf"f\[17\] = {bad}"):
        analyze(frame7, f)
    runs = np.ones((3, 256))
    runs[2, 17] = bad
    with pytest.raises(ValueError, match=rf"f\[2, 17\] = {bad}"):
        analyze(frame7, runs)
    beta = analyze(frame7, np.ones(256))
    beta[4] = beta[4].copy()
    beta[4][5] = bad
    with pytest.raises(ValueError, match=rf"level 3 beta\[5\] = {bad}"):
        synthesize(frame7, beta)


def test_exact_mode_defect_small_paper_mode_larger():
    filt = make_filter(make_profile("polynomial-shape", 2))
    basis = jacobi_basis(0.0, 1.0)
    exact = build_frame(basis, filt, j_max=5, nodes_per_level="exact")
    paper = build_frame(basis, filt, j_max=5, nodes_per_level="paper")
    assert exact.exactness_defect <= 1e-10
    # half the nodes cannot integrate degree 2^{j+2}-2 products exactly
    assert paper.exactness_defect > 1e-6


def test_build_frame_argument_errors():
    filt = make_filter(make_profile("polynomial-shape", 2))
    with pytest.raises(ValueError):
        build_frame(jacobi_basis(0.0, 1.0), filt, j_max=-1)
    with pytest.raises(ValueError):
        build_frame(jacobi_basis(0.0, 1.0), filt, j_max=3, nodes_per_level="dense")


def test_mirror_maps_symmetric_nodes():
    filt = make_filter(make_profile("polynomial-shape", 2))
    frame = build_frame(jacobi_basis(0.0, 0.0), filt, j_max=4)
    for j in (2, 4):
        lev = frame.level(j)
        for nu in (1, 2, lev.n_nodes):
            # 1-based node nu reflects onto 0-based index n_nodes - nu
            np.testing.assert_allclose(
                lev.nodes[lev.n_nodes - nu], -lev.nodes[nu - 1], rtol=0, atol=1e-14
            )


def test_level_sigma_scaling(frame8):
    b = wicksell_model(frame8.budget).b
    sig = level_sigma(frame8, b)
    assert sig.shape == (frame8.j_max + 2,)
    np.testing.assert_allclose(level_sigma(frame8, 2.0 * b), sig / 2.0, rtol=1e-12)
    # sigma_j^2 2^{-j} stays within one order of magnitude for j = 2..8:
    # the needlet operator norm tracks 2^{j(nu + 1/2)} with nu = 1/2
    ratios = np.array([sig[j + 1] ** 2 / 2.0**j for j in range(2, 9)])
    assert ratios.max() / ratios.min() <= 10.0
    assert 5.0 < ratios.min() and ratios.max() < 50.0


def test_level_sigma_holds_one_row_block(filt, traced_peak):
    # at jmax 10 the top level's psi is 25 MB, and the dense formula below
    # forms two whole-level temporaries (psi / b and its squares, 50 MB
    # traced). The frame exists before tracing starts, so the traced peak is
    # the call's own: one block of BLOCK // 2 scaled rows (1.6 MB), with room
    # for small arrays
    frame = build_frame(jacobi_basis(0.0, 1.0), filt, j_max=10)
    b = wicksell_model(frame.budget).b
    block_bytes = BLOCK // 2 * max(lev.psi.shape[1] for lev in frame.levels) * 8
    sigma, peak = traced_peak(lambda: level_sigma(frame, b))
    assert peak < 1.5 * block_bytes
    # the dense formula, one whole level at a time, gives the same bits
    dense = [
        math.sqrt(float(np.max(np.sum((lev.psi / b[lev.freq_lo : lev.freq_hi + 1][None, :]) ** 2, axis=1))))
        for lev in frame.levels
    ]
    np.testing.assert_array_equal(sigma, dense)


def test_level_sigma_rejects_bad_b(frame7):
    with pytest.raises(ValueError):
        level_sigma(frame7, np.ones(10))
    # a NaN sigma would silently zero need_d's coefficients at its levels,
    # since |beta| >= nan is false
    for bad in (np.nan, np.inf, 0.0, -1.0):
        b = np.ones(frame7.budget)
        b[3] = bad
        with pytest.raises(ValueError, match=rf"singular value b\[3\] = {bad}"):
            level_sigma(frame7, b)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_roundtrip_property(seed):
    filt = make_filter(make_profile("polynomial-shape", 2))
    frame = build_frame(jacobi_basis(0.0, 1.0), filt, j_max=4)
    rng = np.random.default_rng(seed)
    f = np.zeros(frame.budget)
    f[: frame.exact_dim] = rng.standard_normal(frame.exact_dim)
    back = synthesize(frame, analyze(frame, f))
    assert np.max(np.abs(back - f)) <= 1e-10 * max(1.0, np.max(np.abs(f)))


def _level_and_window(frame, filt, j):
    lev = frame.level(j)
    i = np.arange(lev.freq_lo, lev.freq_hi + 1)
    return lev.psi, filter_a(filt, i / 2.0**j)


@pytest.fixture(scope="module")
def level9(frame10, filt):
    # 512 nodes, one node block; 767 frequencies, two full column blocks and
    # a partial one
    return _level_and_window(frame10, filt, 9)


@pytest.fixture(scope="module")
def level10(frame10, filt):
    # 2048 nodes, two node blocks; 1535 frequencies, five full column blocks
    # and a partial one
    return _level_and_window(frame10, filt, 10)


def _assert_gram_defect_is_dense(psi, a):
    # psi rounded to multiples of 2^-16 has every Gram entry exact in any
    # summation order, so the blocks' sums give the dense bits whichever
    # BLAS kernel each block shape takes (a one-column block is a
    # matrix-vector product, which rounds differently from the dense
    # product on real psi); C- and F-ordered psi give the same bits
    psi = np.round(psi * 2**16) / 2**16
    dense = float(np.max(np.abs(psi.T @ psi - np.diag(a**2))))
    assert _gram_defect(psi, a) == dense
    assert _gram_defect(np.asfortranarray(psi), a) == dense


@pytest.mark.parametrize("width", [BLOCK - 1, BLOCK, BLOCK + 1, None])
def test_gram_defect_matches_dense(level9, width):
    # the widths straddle the first column panel's edge
    psi, a = level9
    _assert_gram_defect_is_dense(psi[:, :width], a[:width])


@pytest.mark.parametrize("width", [BLOCK - 1, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("rows", [NODE_BLOCK - 1, NODE_BLOCK, NODE_BLOCK + 1, None])
def test_gram_defect_matches_dense_across_node_blocks(level10, rows, width):
    # the cases straddle the second node block's edge and the last column
    # panel's
    psi, a = level10
    _assert_gram_defect_is_dense(psi[:rows, :width], a[:width])


def test_gram_defect_sees_one_off_diagonal_entry():
    # columns 3 and BLOCK + 100 overlap only in row 3, so their Gram entry
    # 1e-3 lies in the block to the right of the first column block; the
    # diagonal entries move by only 1e-6
    n = 2 * BLOCK + 7
    psi = np.eye(n)
    psi[3, BLOCK + 100] = 1e-3
    assert _gram_defect(psi, np.ones(n)) == 1e-3
    assert float(np.max(np.abs(psi.T @ psi - np.eye(n)))) == 1e-3


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gram_defect_fails_on_a_non_finite_entry(filt, bad):
    # max() skips a NaN, so one NaN in psi gave a passing defect of 0.0
    psi = np.array(build_frame(jacobi_basis(0.0, 1.0), filt, j_max=4).level(4).psi)
    a = filter_a(filt, np.arange(9, 32) / 2.0**4)
    assert _gram_defect(psi, a) <= 1e-9
    psi[3, 5] = bad
    assert _gram_defect(psi, a) == math.inf


@pytest.fixture(scope="module")
def level6(filt):
    # 128 nodes and 95 frequencies, one node block and one Gram group as
    # the blocks are; small_blocks splits it into 8 node blocks and 4 groups
    psi = np.array(build_frame(jacobi_basis(0.0, 1.0), filt, j_max=6).level(6).psi)
    return psi, _level_window(filt, 6, "exact")[2]


def test_gram_groups_keep_the_dense_defect(level6, small_blocks):
    # each group sums its panels over a pass of its own, in the same node
    # blocks, so the grouped defect is the dense one
    _assert_gram_defect_is_dense(*level6)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gram_defect_sees_a_non_finite_entry_in_the_last_group_alone(level6, small_blocks, bad):
    # only the last group's pass reads the entry, as a block read back
    # changed would: its NaN entries must fail the level though the groups
    # before it are finite (max() skips a NaN that comes after them)
    psi, a = level6
    corrupt = psi.copy()
    corrupt[20, 90] = bad
    passes = []

    def again():
        passes.append(None)
        return _row_blocks(corrupt if len(passes) == 3 else psi)

    gram = _Gram(95, 128, again)
    for rows in _row_blocks(psi):
        gram.add(rows)
    assert gram.defect(a) == math.inf
    assert len(passes) == 3


def test_top_level_above_max_jmax_is_refused(filt):
    # frame_levels checks its arguments at once and builds nothing until it
    # is iterated, so a missing check cannot allocate a jmax-14 frame here
    message = f"j_max must be <= {MAX_JMAX}, got {MAX_JMAX + 1}"
    with pytest.raises(ValueError, match=message):
        frame_levels(jacobi_basis(0.0, 1.0), filt, MAX_JMAX + 1)
    with pytest.raises(ValueError, match=message):
        FrameSpec(jmax=MAX_JMAX + 1)
    with pytest.raises(ValueError, match=message):
        SimulationConfig.from_dict({"frame": {"jmax": MAX_JMAX + 1}})
    assert FrameSpec(jmax=MAX_JMAX).jmax == MAX_JMAX


def test_frame_levels_are_build_frame_levels(frame10, filt):
    # a streamed level yields the held level's rows block by block, and its
    # weights and defect once the last block is in; level 10 has two blocks
    # every level up to jmax 10 is one Gram group, so none is read again
    def reread(r0, out):
        raise AssertionError("a one-group level was read again")

    defects = []
    for sweep, held in zip(frame_levels(jacobi_basis(0.0, 1.0), filt, 10), frame10.levels):
        np.testing.assert_array_equal(sweep.nodes, held.nodes)
        assert sweep.weights is None and sweep.defect is None
        blocks = [rows.copy() for rows in sweep.rows(reread)]
        assert len(blocks) == -(-held.n_nodes // NODE_BLOCK)
        assert all(rows.flags.c_contiguous for rows in blocks)
        np.testing.assert_array_equal(np.concatenate(blocks), held.psi)
        np.testing.assert_array_equal(sweep.weights, held.weights)
        # a held level's blocks are read-only views of its psi, not copies
        views = list(held.rows())
        assert len(views) == len(blocks)
        assert all(np.shares_memory(v, held.psi) and not v.flags.writeable for v in views)
        np.testing.assert_array_equal(np.concatenate(views), held.psi)
        defects.append(sweep.defect)
    assert max(defects) == frame10.exactness_defect


@pytest.mark.parametrize("mode", ["exact", "paper"])
@pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (2.5, 0.5)])
def test_level_rule_and_psi_are_the_rule_and_the_table(filt, mode, alpha, beta):
    # jmax 7 holds levels of 64 nodes or fewer (dense Newton starts) and of
    # 128 or 256 (asymptotic starts); each level's one sweep must give the
    # rule's nodes and weights and sqrt(w) * a * the basis table, bit for bit
    basis = jacobi_basis(alpha, beta)
    for lev in build_frame(basis, filt, 7, mode).levels:
        a = _level_window(filt, lev.j, mode)[2]
        if lev.j == -1:
            assert lev.nodes.tolist() == [0.0] and lev.weights.tolist() == [1.0]
        else:
            rule = gauss_jacobi_rule(basis, lev.n_nodes)
            np.testing.assert_array_equal(lev.nodes, rule.nodes)
            np.testing.assert_array_equal(lev.weights, rule.weights)
        table = jacobi_eval_all(basis, lev.freq_hi, lev.nodes)[lev.freq_lo :]
        want = np.sqrt(lev.weights)[:, None] * (a[:, None] * table).T
        np.testing.assert_array_equal(lev.psi, want)
        assert lev.psi.flags.c_contiguous and not lev.psi.flags.writeable


@pytest.mark.parametrize("mode", ["exact", "paper"])
def test_level_sweeps_the_recurrence_once_after_the_polish(filt, monkeypatch, mode):
    # a Newton pass runs the recurrence to degree N = n_nodes; after the
    # last pass one sweep gives the weights and psi together
    calls = []
    real = needlets.jacobi._orthonormal

    def counting(diag, off, n, x):
        calls.append(n)
        return real(diag, off, n, x)

    monkeypatch.setattr(needlets.jacobi, "_orthonormal", counting)
    monkeypatch.setattr(needlets.frame, "_orthonormal", counting)
    for sweep in frame_levels(jacobi_basis(0.0, 1.0), filt, 8, mode):
        lev = sweep.held()[0]
        # from level 1 on the sweep's top degree freq_hi differs from N
        if lev.j >= 1:
            passes = calls.count(lev.n_nodes)
            assert passes >= 1
            assert len(calls) == passes + 1, (lev.j, calls)
        calls.clear()


@pytest.mark.parametrize("mode, j", [("exact", 6), ("paper", 7)])
def test_uncertified_level_rule_names_the_level(filt, mode, j):
    # at (35, 0.5) the asymptotic starts of the order-128 rule put two nodes
    # on one root; the level's certification refuses it and names the level
    message = rf"^level {j}: order-128 rule failed certification \(nodes not strictly decreasing"
    with pytest.raises(InvariantError, match=message):
        build_frame(jacobi_basis(35.0, 0.5), filt, j, mode)
