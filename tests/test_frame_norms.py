"""L_p norms, localization envelopes, Besov sequence norms, approximation errors.

The scaling reference for a needlet at node eta is
(2^j / omega(2^j; eta))^{1/2 - 1/p}; Lp norms must track it uniformly in j.
Pilot constants frozen here were measured on the Jacobi(0,1) frame, J_max=7.
"""

import math

import numpy as np
import pytest

from needlets import (
    BesovParams,
    analyze,
    besov_seq_norm,
    best_approx_errors,
    build_frame,
    coeff_function_norm,
    frame_norm,
    generalized_weight,
    jacobi_basis,
    level_frame_norms,
    localization_check,
    make_filter,
    make_profile,
)


def test_l2_norms_at_most_one(frame7):
    for j in range(-1, 8):
        norms = level_frame_norms(frame7, j, 2)
        assert np.all(norms <= 1.0 + 1e-10)
        assert np.all(norms > 0.3)
        # the L2 norm is the coefficient-vector norm by orthonormality
        lev = frame7.level(j) if j >= 0 else None
        if lev is not None:
            np.testing.assert_allclose(norms, np.linalg.norm(lev.psi, axis=1), rtol=1e-7)


def test_frame_norm_single_matches_level(frame7):
    norms = level_frame_norms(frame7, 5, 4)
    assert abs(frame_norm(frame7, 5, 3, 4) - norms[2]) < 1e-12
    assert frame_norm(frame7, -1, 1, 17.0) == 1.0
    with pytest.raises(ValueError):
        frame_norm(frame7, 5, 0, 2)


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
        ratios.append(frame_norm(frame7, j, nu, np.inf) / (2.0**j / w) ** 0.5)
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
    lognorms = [math.log2(frame_norm(frame, j, 1, p) ** p) for j in js]
    slope = np.polyfit(js, lognorms, 1)[0]
    theory = (p - 2.0) * 2.0
    assert abs(slope - theory) <= 0.1 * theory


def test_localization_uniform_smooth_profile():
    # the envelope theorem assumes a C-infinity cutoff; the exponential glue
    # satisfies it and its l=3 constants do not grow between j=4 and j=6
    filt = make_filter(make_profile("smooth-exponential", 1))
    frame = build_frame(jacobi_basis(0.0, 1.0), filt, j_max=6)
    c4 = max(localization_check(frame, 4, nu, 3) for nu in range(1, frame.level(4).n_nodes + 1))
    c6 = max(localization_check(frame, 6, nu, 3) for nu in range(1, frame.level(6).n_nodes + 1))
    assert c6 <= 1.5 * c4


def test_localization_polynomial_profile_l2(frame7):
    # the m=2 polynomial cutoff is only C^1 at its support edges, capping the
    # decay order near 2.5: l=2 constants stay flat, l=3 constants grow
    c4 = max(localization_check(frame7, 4, nu, 2) for nu in range(1, frame7.level(4).n_nodes + 1))
    c6 = max(localization_check(frame7, 6, nu, 2) for nu in range(1, frame7.level(6).n_nodes + 1))
    assert c6 <= 1.2 * c4
    assert c4 < 20.0


@pytest.mark.parametrize("j", [5, 6, 7])
def test_localization_far_field_decay(frame7, j):
    # two orders of magnitude between the peak and the values a quarter
    # circle away, for interior nodes; nodes close to x = -1 are excluded
    # because the beta = 1 edge enhances |psi| there by omega^{-1/2} ~ 2^{3j/2}
    from needlets.frame import _block_values

    lev = frame7.level(j)
    theta = np.linspace(0.0, math.pi, 16385)
    for nu in (lev.n_nodes // 4, lev.n_nodes // 2):
        theta_nu = math.acos(float(lev.nodes[nu - 1]))
        vals = np.abs(
            _block_values(frame7.basis, lev.psi[nu - 1 : nu], lev.freq_lo, np.cos(theta))[0]
        )
        ring = np.abs(np.abs(theta - theta_nu) - math.pi / 4) <= 0.01
        assert vals[ring].max() <= vals.max() / 100.0


def test_localization_argument_errors(frame7):
    with pytest.raises(ValueError):
        localization_check(frame7, 4, 1, 0)
    with pytest.raises(ValueError):
        localization_check(frame7, 4, 999, 3)


def test_besov_seq_norm_homogeneous(frame7, rng):
    f = np.zeros(frame7.budget)
    f[: frame7.exact_dim] = rng.standard_normal(frame7.exact_dim)
    beta = analyze(frame7, f)
    bp = BesovParams(s=1.5, pi=2.0, r=1.0)
    base = besov_seq_norm(frame7, beta, bp)
    doubled = besov_seq_norm(frame7, [2.0 * b for b in beta], bp)
    assert abs(doubled - 2.0 * base) < 1e-10 * base


def test_besov_seq_norm_single_level(frame7):
    # with coefficients on one level the norm reduces to
    # 2^{js} (sum |beta|^pi ||psi||_pi^pi)^{1/pi}
    j = 4
    beta = [np.zeros(lev.n_nodes) for lev in frame7.levels]
    beta[j + 1][3] = 2.0
    bp = BesovParams(s=2.0, pi=3.0, r=2.0)
    got = besov_seq_norm(frame7, beta, bp)
    want = 2.0 ** (j * 2.0) * 2.0 * frame_norm(frame7, j, 4, 3.0)
    assert abs(got - want) < 1e-10 * want


def test_besov_params_validation():
    with pytest.raises(ValueError):
        BesovParams(s=0.0, pi=2.0, r=1.0)
    with pytest.raises(ValueError):
        BesovParams(s=1.0, pi=0.5, r=1.0)


def test_best_approx_monotone_and_exact_for_polynomials(frame7):
    rng = np.random.default_rng(3)
    f = np.zeros(frame7.budget)
    f[: frame7.exact_dim] = rng.standard_normal(frame7.exact_dim) / (
        1.0 + np.arange(frame7.exact_dim)
    )
    errs = best_approx_errors(frame7, f, 2, range(0, 8))
    assert np.all(np.diff(errs) <= 1e-12)
    assert errs[0] > 0

    # degree-8 polynomial: zero error once 2^j >= 8
    g = np.zeros(frame7.budget)
    g[:9] = 1.0
    errs_g = best_approx_errors(frame7, g, 2, range(0, 8))
    assert np.all(errs_g[3:] == 0.0)
    assert errs_g[0] > 0


def test_coeff_function_norm_l2(frame7, rng):
    f = np.zeros(frame7.budget)
    f[: frame7.exact_dim] = rng.standard_normal(frame7.exact_dim)
    # under the orthonormality measure the L2 norm equals the l2 norm
    assert abs(coeff_function_norm(frame7, f, 2) - np.linalg.norm(f)) < 1e-8 * np.linalg.norm(f)
