"""L_p norms, localization envelopes and natural-domain needlet values.

The scaling reference for a needlet at node eta is
(2^j / omega(2^j; eta))^{1/2 - 1/p}; Lp norms must track it uniformly in j.
Pilot constants frozen here were measured on the Jacobi(0,1) frame, J_max=7.
"""

import math

import numpy as np
import pytest

from needlets import (
    build_frame,
    generalized_weight,
    jacobi_basis,
    level_frame_norms,
    localization_check,
    make_filter,
    make_profile,
    needlet_values,
)
from needlets.jacobi import jacobi_eval_all


def test_l2_norms_at_most_one(frame7):
    for j in range(-1, 8):
        norms = level_frame_norms(frame7, j, 2)
        assert np.all(norms <= 1.0 + 1e-10)
        assert np.all(norms > 0.3)
        # the L2 norm is the coefficient-vector norm by orthonormality
        lev = frame7.level(j) if j >= 0 else None
        if lev is not None:
            np.testing.assert_allclose(norms, np.linalg.norm(lev.psi, axis=1), rtol=1e-7)


@pytest.mark.parametrize("p", [np.inf, 2.0])
def test_level_norms_hold_one_point_block(frame8, p, traced_peak):
    # level 8's psi is 1.6 MB; its whole basis table over the norm grids
    # used to be formed at once, a traced peak of 537 MB (p = inf) and
    # 806 MB (p = 2); one block of 4096 points (frame.TABLE entries) stays
    # near 34 MB
    assert traced_peak(lambda: level_frame_norms(frame8, 8, p))[1] < 64e6


@pytest.mark.parametrize("p,spread_cap", [(1.0, 6.0), (4.0, 4.0), (np.inf, 8.0)])
def test_norm_scaling_uniform(frame7, p, spread_cap):
    # measured spreads: 4.21 (p=1), 2.28 (p=4), 5.64 (p=inf); caps leave
    # headroom without letting a regression through
    basis = frame7.basis
    ratios = []
    for j in range(3, 8):
        lev = frame7.level(j)
        norms = level_frame_norms(frame7, j, p)
        w = generalized_weight(basis, 2**j, lev.nodes)
        expo = 0.5 - (0.0 if math.isinf(p) else 1.0 / p)
        ratios.append(norms / (2.0**j / w) ** expo)
    ratios = np.concatenate(ratios)
    assert ratios.max() / ratios.min() <= spread_cap


def test_sup_norm_stable_at_interior_node(frame7):
    # at the central node the sup-norm ratio to (2^j/omega)^{1/2} moves by
    # less than a factor 4 across j = 3..7
    basis = frame7.basis
    ratios = []
    for j in range(3, 8):
        lev = frame7.level(j)
        nu = lev.n_nodes // 2
        w = float(generalized_weight(basis, 2**j, lev.nodes[nu - 1 : nu])[0])
        ratios.append(level_frame_norms(frame7, j, np.inf)[nu - 1] / (2.0**j / w) ** 0.5)
    assert max(ratios) / min(ratios) <= 4.0


def test_conjugate_product_bounded(frame7):
    # Holder-pair products admit one frame-wide constant; measured maxima
    # are 11.38 for (1, inf) and 1.18 for (4, 4/3)
    for p, q in ((1.0, np.inf), (4.0, 4.0 / 3.0)):
        worst = 0.0
        for j in range(0, 8):
            worst = max(
                worst,
                float(np.max(level_frame_norms(frame7, j, p) * level_frame_norms(frame7, j, q))),
            )
        assert worst <= 12.0


def test_edge_node_norm_growth():
    # at the node nearest x = 1 with alpha = 1, ||psi||_p^p grows like
    # 2^{j (p-2)(alpha+1)}; fitted dyadic slope 3.956 vs theory 4
    filt = make_filter(make_profile("polynomial-shape", 2))
    frame = build_frame(jacobi_basis(1.0, 0.0), filt, j_max=7)
    p = 4.0
    js = np.arange(3, 8)
    lognorms = [math.log2(level_frame_norms(frame, j, p)[0] ** p) for j in js]
    slope = np.polyfit(js, lognorms, 1)[0]
    theory = (p - 2.0) * 2.0
    assert abs(slope - theory) <= 0.1 * theory


def test_localization_uniform_smooth_profile():
    # the envelope theorem assumes a C-infinity cutoff; the exponential glue
    # satisfies it and its l=3 constants do not grow between j=4 and j=6
    filt = make_filter(make_profile("smooth-exponential", 1))
    frame = build_frame(jacobi_basis(0.0, 1.0), filt, j_max=6)
    c4 = localization_check(frame, 4, 3).max()
    c6 = localization_check(frame, 6, 3).max()
    assert c6 <= 1.5 * c4


def test_localization_polynomial_profile_l2(frame7):
    # the m=2 polynomial cutoff is only C^1 at its support edges, capping the
    # decay order near 2.5: l=2 constants stay flat, l=3 constants grow
    c4 = localization_check(frame7, 4, 2).max()
    c6 = localization_check(frame7, 6, 2).max()
    assert c6 <= 1.2 * c4
    assert c4 < 20.0


@pytest.mark.parametrize("j", [5, 6, 7])
def test_localization_far_field_decay(frame7, j):
    # two orders of magnitude between the peak and the values a quarter
    # circle away, for interior nodes; nodes close to x = -1 are excluded
    # because the beta = 1 edge enhances |psi| there by omega^{-1/2} ~ 2^{3j/2}
    lev = frame7.level(j)
    theta = np.linspace(0.0, math.pi, 16385)
    for nu in (lev.n_nodes // 4, lev.n_nodes // 2):
        theta_nu = math.acos(float(lev.nodes[nu - 1]))
        vals = np.abs(needlet_values(frame7, j, nu, np.cos(theta)))
        ring = np.abs(np.abs(theta - theta_nu) - math.pi / 4) <= 0.01
        assert vals[ring].max() <= vals.max() / 100.0


@pytest.mark.parametrize("n", [8193, 16385, 20000])
def test_needlet_values_match_one_whole_grid_product(frame7, n):
    # each value is summed degree by degree at its own point, so the grid
    # split into pieces (one of a single point) gives the bits of the whole
    # grid at once, whatever the BLAS thread count (the values themselves
    # are checked in test_localization_level_matches_single_needlets)
    x = np.linspace(-1.0, 1.0, n)
    whole = needlet_values(frame7, 7, 100, x)
    cuts = [0, 1, n // 3, n - 1, n]
    pieces = [needlet_values(frame7, 7, 100, x[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
    np.testing.assert_array_equal(np.concatenate(pieces), whole)


def test_localization_level_matches_single_needlets(frame7):
    # one pass over the level gives each needlet's constant as evaluated
    # from its own values on the dense grid; those values are its psi row
    # times the basis table, up to rounding
    j, l = 5, 3
    lev = frame7.level(j)
    theta = np.linspace(0.0, math.pi, 256 * 2**j + 1)
    omega = generalized_weight(frame7.basis, 2**j, np.cos(theta))
    table = jacobi_eval_all(frame7.basis, lev.freq_hi, np.cos(theta))[lev.freq_lo :]
    consts = localization_check(frame7, j, l)
    assert consts.shape == (lev.n_nodes,)
    for nu in (1, lev.n_nodes // 3, lev.n_nodes):
        vals = needlet_values(frame7, j, nu, np.cos(theta))
        want = lev.psi[nu - 1] @ table
        np.testing.assert_allclose(vals, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
        envelope = (1.0 + 2.0**j * np.abs(theta - math.acos(float(lev.nodes[nu - 1])))) ** l
        one = np.max(np.abs(vals) * envelope * np.sqrt(omega)) / 2.0 ** (j / 2.0)
        assert consts[nu - 1] == pytest.approx(one, rel=1e-12)


def test_localization_argument_errors(frame7):
    with pytest.raises(ValueError):
        localization_check(frame7, 4, 0)
    with pytest.raises(ValueError):
        localization_check(frame7, 8, 3)
    with pytest.raises(ValueError, match="nu must be in 1..32 at level 4, got 0"):
        needlet_values(frame7, 4, 0, np.zeros(3))
    with pytest.raises(ValueError, match=r"x\[1\] = 1.5 is not in \[-1, 1\]"):
        needlet_values(frame7, 4, 1, np.array([0.0, 1.5]))
