"""Gauss-Jacobi rules and normalized Jacobi evaluation.

Frozen oracles: the two-point Legendre rule, the one-point (0,1) rule, and
closed-form monomial moments. Exactness is checked against a doubled rule,
which integrates every polynomial the smaller rule claims exactly.
"""

import math
import re
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from needlets import (
    JacobiBasis,
    NodeSolveError,
    gauss_jacobi_rule,
    generalized_weight,
    jacobi_eval_all,
    jacobi_basis,
    jacobi_weighted_sums,
)
from needlets.jacobi import MAX_EXPONENT, _recurrence

PARAM_GRID = [(0.0, 0.0), (0.0, 1.0), (0.5, -0.3), (2.0, 3.0)]


def test_legendre_two_point_rule():
    rule = gauss_jacobi_rule(jacobi_basis(0.0, 0.0), 2)
    assert rule.order == 2
    # nodes at +-1/sqrt(3), stored decreasing; probability weights are 1/2 each
    r = 1.0 / math.sqrt(3.0)
    np.testing.assert_allclose(rule.nodes, [r, -r], rtol=0, atol=1e-15)
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], rtol=0, atol=1e-15)


def test_wicksell_one_point_rule():
    # single node of the (0,1) rule is the mean of the normalized measure
    rule = gauss_jacobi_rule(jacobi_basis(0.0, 1.0), 1)
    np.testing.assert_allclose(rule.nodes, [1.0 / 3.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(rule.weights, [1.0], rtol=0, atol=1e-15)


def test_monomial_moments_closed_form():
    # (0,1) measure is (1+x)/2 dx: moment_d = 1/(d+1) for even d, 1/(d+2) for odd d
    rule = gauss_jacobi_rule(jacobi_basis(0.0, 1.0), 8)
    for d in range(14):
        want = 1.0 / (d + 1) if d % 2 == 0 else 1.0 / (d + 2)
        got = float(rule.weights @ rule.nodes**d)
        assert abs(got - want) < 1e-14, (d, got, want)


@pytest.mark.parametrize("alpha,beta", PARAM_GRID)
@pytest.mark.parametrize("n", [4, 16, 64])
def test_exactness_against_doubled_rule(alpha, beta, n):
    basis = jacobi_basis(alpha, beta)
    rule = gauss_jacobi_rule(basis, n)
    oracle = gauss_jacobi_rule(basis, 2 * n)
    for d in range(2 * n - 1):
        got = float(rule.weights @ rule.nodes**d)
        want = float(oracle.weights @ oracle.nodes**d)
        # moments of a probability measure on [-1,1] are <= 1, so the
        # relative scale never drops below 1
        assert abs(got - want) <= 1e-10 * max(abs(want), 1.0), (d, got, want)


@pytest.mark.parametrize("alpha,beta", PARAM_GRID)
def test_rule_matches_scipy(alpha, beta):
    basis = jacobi_basis(alpha, beta)
    rule = gauss_jacobi_rule(basis, 12)
    x, w = scipy.special.roots_jacobi(12, alpha, beta)
    # scipy uses the unnormalized weight; ours integrates a probability measure
    np.testing.assert_allclose(rule.nodes, x[::-1], rtol=0, atol=1e-13)
    np.testing.assert_allclose(rule.weights, w[::-1] * basis.c_norm, rtol=1e-13)
    # at high order only the nodes are compared: scipy's own weights drift
    # by up to 6e-7 relative at N = 2048
    big = gauss_jacobi_rule(basis, 1024)
    x_big, _ = scipy.special.roots_jacobi(1024, alpha, beta)
    np.testing.assert_allclose(big.nodes, x_big[::-1], rtol=0, atol=1e-15)


@pytest.mark.parametrize("alpha,beta", PARAM_GRID)
@pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 64, 65, 257, 4096])
def test_rule_nodes_match_scipy_across_orders(alpha, beta, n):
    # both sides of the dense/asymptotic crossover at 64, up to the largest
    # rule a jmax-11 frame builds; weights only at small order (see above)
    basis = jacobi_basis(alpha, beta)
    rule = gauss_jacobi_rule(basis, n)
    x, w = scipy.special.roots_jacobi(n, alpha, beta)
    np.testing.assert_allclose(rule.nodes, x[::-1], rtol=0, atol=1e-14)
    if n <= 12:
        np.testing.assert_allclose(rule.weights, w[::-1] * basis.c_norm, rtol=1e-13)


def _dense_eigenvalues(basis, n):
    # eigenvalues of the dense symmetric Jacobi matrix, largest first
    diag, off = _recurrence(basis, n)
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))[::-1]


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(-0.4, 9.5),
    beta=st.floats(-0.4, 9.5),
    n=st.integers(1, 300),
)
def test_rule_matches_dense_eigenvalues(alpha, beta, n):
    # gauss_jacobi_rule raises NodeSolveError unless the rule certifies
    basis = jacobi_basis(alpha, beta)
    rule = gauss_jacobi_rule(basis, n)
    np.testing.assert_allclose(rule.nodes, _dense_eigenvalues(basis, n), rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "alpha,beta,n",
    [(9.5, beta, n) for beta in (-0.4, 0.0, 3.0, 9.5) for n in range(5, 12)]
    + [(alpha, beta, n) for alpha, beta in ((9.5, 9.5), (-0.4, 9.5), (9.5, -0.4), (0.0, 1.0)) for n in (64, 65)],
)
def test_rule_at_large_exponents_and_crossover(alpha, beta, n):
    # at alpha = 9.5 and N = 5..11 the asymptotic guesses near the two ends
    # overlap and two of them converge to one root; 64/65 is where the
    # dense starting points hand over to the asymptotic ones
    basis = jacobi_basis(alpha, beta)
    rule = gauss_jacobi_rule(basis, n)
    np.testing.assert_allclose(rule.nodes, _dense_eigenvalues(basis, n), rtol=0, atol=1e-14)


def test_c_norm_is_reciprocal_mass():
    basis = jacobi_basis(0.3, 1.7)
    mass, _ = scipy.integrate.quad(lambda x: (1 - x) ** 0.3 * (1 + x) ** 1.7, -1.0, 1.0)
    # c_norm comes from the log-Beta closed form; quad and lgamma rounding
    # both sit near 1e-12 for fractional exponents
    assert abs(basis.c_norm * mass - 1.0) < 5e-12


@pytest.mark.parametrize("alpha,beta", PARAM_GRID)
def test_gram_orthonormality(alpha, beta):
    basis = jacobi_basis(alpha, beta)
    rule = gauss_jacobi_rule(basis, 64)
    vals = jacobi_eval_all(basis, 40, rule.nodes)
    gram = (vals * rule.weights) @ vals.T
    assert np.max(np.abs(gram - np.eye(41))) < 1e-9
    # an N-node rule integrates Pi_j Pi_k exactly for every j, k < N
    n = 1024
    rule = gauss_jacobi_rule(basis, n)
    vals = jacobi_eval_all(basis, n - 1, rule.nodes)
    gram = (vals * rule.weights) @ vals.T
    assert np.max(np.abs(gram - np.eye(n))) < 1e-12


def test_eval_normalization_and_endpoint():
    basis = jacobi_basis(0.0, 1.0)
    x = np.linspace(-0.99, 0.99, 7)
    vals = jacobi_eval_all(basis, 6, x)
    np.testing.assert_allclose(vals[0], 1.0, rtol=0, atol=1e-15)
    # for the (0,1) family the right endpoint value is sqrt(k+1)
    at_one = jacobi_eval_all(basis, 6, np.array([1.0]))[:, 0]
    np.testing.assert_allclose(at_one, np.sqrt(np.arange(7) + 1.0), rtol=1e-13)


def test_eval_matches_scipy_normalized():
    basis = jacobi_basis(0.0, 1.0)
    x = np.array([-0.9, -0.4, 0.0, 0.3, 0.8])
    vals = jacobi_eval_all(basis, 5, x)
    for k in range(6):
        # P_k^{(0,1)}(1) = 1 while our normalized value there is sqrt(k+1),
        # and both families are orthogonal for the same measure, so they
        # differ by exactly that constant
        want = scipy.special.eval_jacobi(k, 0.0, 1.0, x) * math.sqrt(k + 1.0)
        np.testing.assert_allclose(vals[k], want, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (0.5, 0.5)])
@pytest.mark.parametrize("kmax", [0, 1, 2, 64, 512])
def test_weighted_sums_match_table_product(alpha, beta, kmax):
    basis = jacobi_basis(alpha, beta)
    rng = np.random.default_rng(kmax)
    t = np.concatenate([rng.uniform(-1.0, 1.0, 2000), [-1.0, 1.0]])
    v = rng.standard_normal(t.shape[0])
    want = jacobi_eval_all(basis, kmax, t) @ v
    got = jacobi_weighted_sums(basis, kmax, t, v)
    assert got.shape == (kmax + 1,)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_weighted_sums_reject_bad_input():
    basis = jacobi_basis(0.0, 1.0)
    with pytest.raises(ValueError):
        jacobi_weighted_sums(basis, -1, np.zeros(3), np.ones(3))
    with pytest.raises(ValueError):
        jacobi_weighted_sums(basis, 4, np.zeros(3), np.ones(4))
    with pytest.raises(ValueError):
        jacobi_weighted_sums(basis, 4, np.array([0.0, 1.5]), np.ones(2))


def test_interlacing():
    basis = jacobi_basis(0.0, 1.0)
    small = gauss_jacobi_rule(basis, 12).nodes[::-1]
    big = gauss_jacobi_rule(basis, 13).nodes[::-1]
    assert np.all(big[:-1] < small) and np.all(small < big[1:])


def test_generalized_weight_properties():
    basis = jacobi_basis(0.0, 1.0)
    x = np.linspace(-1.0, 1.0, 9)
    w = generalized_weight(basis, 8, x)
    assert np.all(w > 0)
    # interior values approach the plain weight as n grows
    interior = np.array([0.2])
    w_big = generalized_weight(basis, 10**6, interior)
    np.testing.assert_allclose(w_big, (1 - 0.2) ** 0.5 * (1 + 0.2) ** 1.5, rtol=1e-5)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        jacobi_basis(-0.5, 0.0)
    with pytest.raises(ValueError):
        jacobi_basis(0.0, -0.6)
    with pytest.raises(ValueError):
        gauss_jacobi_rule(jacobi_basis(0.0, 1.0), 0)


@pytest.mark.parametrize(
    "alpha,beta",
    [(0.0, math.inf), (math.inf, 1.0), (math.nan, 0.0), (0.0, 1e308), (1e200, 1.0)],
)
def test_nonfinite_and_unrepresentable_exponents_rejected(alpha, beta):
    # infinite or NaN exponents, and exponents far above MAX_EXPONENT whose
    # weight mass would overflow or underflow, raise a ValueError naming the pair
    with pytest.raises(ValueError, match=re.escape(f"({alpha}, {beta})")):
        jacobi_basis(alpha, beta)


def test_exponents_above_the_bound_rejected():
    # at alpha = beta = 1e16 the lgamma terms of c_norm cancel completely and
    # it came out as 2.57e-56 instead of about 2.8e7
    with pytest.raises(ValueError, match=re.escape("(1e+16, 1e+16)")):
        jacobi_basis(1e16, 1e16)
    with pytest.raises(ValueError, match=re.escape(f"({MAX_EXPONENT + 1.0}, 0.0)")):
        jacobi_basis(MAX_EXPONENT + 1.0, 0.0)
    # at the bound itself c_norm still matches the duplication-formula form
    # c_norm = Gamma(a+3/2) / (sqrt(pi) Gamma(a+1)) of the alpha = beta case
    a = MAX_EXPONENT
    want = math.exp(math.lgamma(a + 1.5) - math.lgamma(a + 1.0) - 0.5 * math.log(math.pi))
    assert abs(jacobi_basis(a, a).c_norm / want - 1.0) < 1e-12


@pytest.mark.parametrize("alpha,beta", [(-1.0, 0.0), (math.nan, 0.0), (0.0, math.nan)])
def test_hand_built_basis_checks_exponents(alpha, beta):
    # construction is the only check: no function re-checks the exponents
    with pytest.raises(ValueError, match=re.escape(f"({alpha}, {beta})")):
        JacobiBasis(alpha, beta)


def test_hand_built_basis_matches_constructor():
    # equality compares c_norm too, which construction computed
    basis = JacobiBasis(0.3, 1.7)
    assert basis == jacobi_basis(0.3, 1.7)
    assert str(basis) == "JacobiBasis(alpha=0.3, beta=1.7)"


@pytest.mark.parametrize("n", [65, 128, 2048])
@pytest.mark.parametrize("beta", ["0.5", "alpha"])
@pytest.mark.parametrize("alpha", [30.0, 35.0, 50.0])
def test_rule_exponent_range_above_dense_orders(alpha, beta, n):
    # above DENSE_MAX Newton starts from the asymptotic guesses, which hold
    # up to alpha = 30 and fail from about 32 on; a failure must be a
    # NodeSolveError, never an uncertified rule
    basis = jacobi_basis(alpha, alpha if beta == "alpha" else 0.5)
    try:
        rule = gauss_jacobi_rule(basis, n)
    except NodeSolveError:
        assert alpha > 30.0, "alpha = 30 must certify"
        return
    assert np.all(np.abs(rule.nodes) < 1.0)
    assert np.all(np.diff(rule.nodes) < 0.0)
    assert np.all(rule.weights > 0.0)
    assert abs(rule.weights.sum() - 1.0) < 1e-12


@pytest.mark.parametrize(
    "alpha,beta,certifies",
    [(0.0, 1.0, True), (-0.49, -0.49, True), (35.0, 0.5, None), (1000.0, 1000.0, None)],
)
def test_rule_at_order_8192_certifies_or_raises(alpha, beta, certifies):
    # at the top order 2^13, over the corners of the exponent range
    # (-1/2, 1000], a rule is certified or a NodeSolveError and nothing else;
    # (35, 0.5) and (1000, 1000) fail today, so only the two that certify are
    # pinned. At (1000, 1000) the asymptotic starts overflow the recurrence,
    # whose first non-finite Newton step is refused without a RuntimeWarning.
    try:
        rule = gauss_jacobi_rule(jacobi_basis(alpha, beta), 8192)
    except NodeSolveError:
        assert not certifies
        return
    assert rule.nodes.shape == rule.weights.shape == (8192,)
    assert np.all(np.abs(rule.nodes) < 1.0)
    assert np.all(np.diff(rule.nodes) < 0.0)
    assert np.all(rule.weights > 0.0)
    assert abs(rule.weights.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("alpha,n", [(50.0, 2048), (1000.0, 8192)])
def test_diverging_start_fails_fast_without_warnings(alpha, n):
    # these starts overflow the recurrence; the polish used to run on NaN
    # for all its passes, with overflow warnings, and leave the NaN nodes
    # to the certification
    message = f"^Newton step is not finite for node \\d+ of the order-{n} rule$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NodeSolveError, match=message):
            gauss_jacobi_rule(jacobi_basis(alpha, alpha), n)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(-0.5, MAX_EXPONENT, exclude_min=True),
    beta=st.floats(-0.5, MAX_EXPONENT, exclude_min=True),
    log2_order=st.floats(0.0, 13.0),
)
def test_rule_certifies_or_raises_up_to_order_8192(alpha, beta, log2_order):
    # over the whole exponent range and log-uniform orders up to 2^13 the
    # rule passes all four certification conditions or raises
    # NodeSolveError; a RuntimeWarning on the way fails tier-1 as an error
    n = round(2.0**log2_order)
    try:
        rule = gauss_jacobi_rule(jacobi_basis(alpha, beta), n)
    except NodeSolveError:
        return
    assert rule.order == n and rule.nodes.shape == rule.weights.shape == (n,)
    assert np.all(np.abs(rule.nodes) < 1.0)
    assert np.all(np.diff(rule.nodes) < 0.0)
    assert np.all(rule.weights > 0.0)
    assert abs(rule.weights.sum() - 1.0) <= 1e-12


def test_certification_names_the_failed_condition():
    # at (35, 0.5) the asymptotic starts put the two nodes nearest x = 1 on
    # one root; the weights still sum to 1, so the message must name the
    # ordering and its first offending index, not the weight sum
    with pytest.raises(
        NodeSolveError,
        match=r"order-128 rule failed certification \(nodes not strictly decreasing: "
        r"node 1 = \S+ is not below node 0 = ",
    ):
        gauss_jacobi_rule(jacobi_basis(35.0, 0.5), 128)


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(-0.45, 3.0),
    beta=st.floats(-0.45, 3.0),
    n=st.integers(1, 40),
)
def test_rule_shape_invariants(alpha, beta, n):
    basis = jacobi_basis(alpha, beta)
    rule = gauss_jacobi_rule(basis, n)
    assert rule.nodes.shape == rule.weights.shape == (n,)
    assert np.all(np.diff(rule.nodes) < 0)
    assert np.all(np.abs(rule.nodes) < 1.0)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1.0) < 1e-12
    if n >= 2:
        # degree-1 orthogonality: the rule integrates the first normalized
        # polynomial to zero
        vals = jacobi_eval_all(basis, 1, rule.nodes)[1]
        assert abs(float(rule.weights @ vals)) < 1e-9
