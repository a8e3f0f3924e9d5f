"""SVD sequence models: singular basis, forward map, calibration, seeding.

The Wicksell oracle used below integrates the kernel directly: with the
size measure carrying density 1/(4x) and the substitution x^2 = y^2 + t^2,

    (Kf)(y) = (pi/4) y (1-y^2)^{-1/2} int_0^{sqrt(1-y^2)} f(sqrt(y^2+t^2))
              / (4 (y^2+t^2)) dt,

a smooth integrand scipy.integrate.quad resolves to machine accuracy. The
forward synthesis must agree without having seen this formula.
"""

import math
import re

import numpy as np
import pytest
import scipy.integrate

from needlets import (
    POWER_LAWS,
    TARGET_NAMES,
    SequenceObservation,
    SvdModel,
    UnresolvedIntegrandError,
    calibrate_epsilon,
    coeffs_from_function,
    derive_seed,
    direct_model,
    eval_e,
    eval_g,
    check_partition,
    dyadic_square_sum,
    forward,
    generalized_weight,
    jacobi_basis,
    needlet_values,
    power_model,
    sample_observation,
    target_breakpoints,
    target_function,
    wicksell_model,
)
from needlets.jacobi import _orthonormal, _recurrence, jacobi_eval_all
from needlets.models import _piece_nodes


def _kernel_oracle(model, f_coeffs, y):
    def unfolded(x):
        c = np.asarray(f_coeffs, dtype=float)
        return float((c @ eval_e(model, len(c) - 1, np.array([x])))[0])

    out = np.empty_like(y)
    for i, yi in enumerate(y):
        hi = math.sqrt(1.0 - yi * yi)
        val, _ = scipy.integrate.quad(
            lambda t: unfolded(math.sqrt(yi * yi + t * t)) / (4.0 * (yi * yi + t * t)),
            0.0,
            hi,
            limit=200,
        )
        out[i] = math.pi / 4.0 * yi / hi * val
    return out


def test_singular_values_closed_form(wicksell512):
    b = wicksell512.b
    assert abs(b[0] - math.pi / 16.0) < 1e-15
    assert abs(b[3] - math.pi / 32.0) < 1e-15
    # b_k (1+k)^{1/2} is constant: the decay exponent is exactly 1/2
    np.testing.assert_allclose(b * np.sqrt(1.0 + np.arange(513)), math.pi / 16.0, rtol=1e-14)
    assert wicksell512.nu == 0.5


@pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf])
def test_svd_model_rejects_bad_singular_values(bad):
    b = np.ones(6)
    b[4] = bad
    with pytest.raises(ValueError, match=rf"b\[4\] = {bad}"):
        SvdModel("bad", b, 0.5, jacobi_basis(0.0, 1.0))


def test_direct_model_flat():
    m = direct_model(16)
    np.testing.assert_allclose(m.b, 1.0, rtol=0, atol=0)
    assert m.nu == 0.0


def test_e_orthonormal_probability_basis(wicksell512):
    # Gram of e_0..e_256 under the size measure dx/(4x): substituting
    # u = 2x^2 - 1 maps it to the (0,1) Jacobi probability measure, and
    # e_k(x) = 4x^2 Pi_k(u) carries the factor 4x^2 = 2(1+u) that the
    # quadrature weights must divide out
    import needlets

    rule = needlets.gauss_jacobi_rule(needlets.jacobi_basis(0.0, 1.0), 300)
    x = np.sqrt((rule.nodes + 1.0) / 2.0)
    vals = eval_e(wicksell512, 256, x)
    w = rule.weights / (16.0 * x**4)
    gram = (vals * w) @ vals.T
    assert np.max(np.abs(gram - np.eye(257))) < 1e-8


def test_e2_unit_norm_quad(wicksell512):
    val, _ = scipy.integrate.quad(
        lambda x: float(eval_e(wicksell512, 2, np.array([x]))[2, 0]) ** 2 / (4.0 * x),
        0.0,
        1.0,
        limit=200,
    )
    assert abs(val - 1.0) < 1e-10


def test_g_low_order_closed_forms(wicksell512):
    # g_0 = 2 U_1 = 4y and g_1 = 2 U_3 = 8y (2y^2 - 1)
    y = np.linspace(0.05, 0.95, 7)
    g = eval_g(wicksell512, 1, y)
    np.testing.assert_allclose(g[0], 4.0 * y, rtol=1e-13)
    np.testing.assert_allclose(g[1], 8.0 * y * (2.0 * y * y - 1.0), rtol=0, atol=1e-12)


def test_forward_unit_coefficients(wicksell512):
    # K e_0 = (pi/4) y and K e_1 = (pi sqrt(2)/4) y (2y^2 - 1)
    y = np.array([0.2, 0.5, 0.8])
    c = np.zeros(513)
    c[0] = 1.0
    g_coeffs, vals = forward(wicksell512, c, y)
    assert abs(g_coeffs[0] - math.pi / 16.0) < 1e-15
    np.testing.assert_allclose(vals, math.pi / 4.0 * y, rtol=1e-13)
    c = np.zeros(513)
    c[1] = 1.0
    _, vals1 = forward(wicksell512, c, y)
    np.testing.assert_allclose(vals1, math.pi * math.sqrt(2.0) / 4.0 * y * (2 * y * y - 1), rtol=0, atol=1e-13)


def test_forward_matches_kernel_oracle(wicksell512):
    rng = np.random.default_rng(5)
    c = np.zeros(513)
    c[:12] = rng.standard_normal(12)
    y = np.array([0.2, 0.5, 0.8])
    _, vals = forward(wicksell512, c, y)
    want = _kernel_oracle(wicksell512, c, y)
    np.testing.assert_allclose(vals, want, rtol=0, atol=1e-3)


def test_forward_linear(wicksell512):
    rng = np.random.default_rng(6)
    c1 = rng.standard_normal(513)
    c2 = rng.standard_normal(513)
    np.testing.assert_allclose(
        forward(wicksell512, c1 + 0.5 * c2),
        forward(wicksell512, c1) + 0.5 * forward(wicksell512, c2),
        rtol=1e-12,
    )


def test_coeffs_from_function_recovers_basis_element(wicksell512):
    f = lambda x: eval_e(wicksell512, 3, np.asarray(x))[3]
    c = coeffs_from_function(wicksell512, f, 16)
    want = np.zeros(17)
    want[3] = 1.0
    assert np.max(np.abs(c - want)) < 1e-8


def test_coeffs_from_function_zero_and_square(wicksell512):
    c0 = coeffs_from_function(wicksell512, lambda x: np.zeros_like(x), 8)
    assert np.max(np.abs(c0)) < 1e-14
    # x^2 = e_0 / 4 exactly
    c = coeffs_from_function(wicksell512, lambda x: np.asarray(x) ** 2, 8)
    want = np.zeros(9)
    want[0] = 0.25
    assert np.max(np.abs(c - want)) < 1e-10
    x = np.linspace(0.05, 0.95, 11)
    np.testing.assert_allclose(c @ eval_e(wicksell512, len(c) - 1, x), x**2, rtol=0, atol=1e-6)


def test_coeffs_need_breakpoints_for_jumps(wicksell512):
    f = lambda x: np.sign(np.asarray(x) - 1.0 / 3.0)
    with pytest.raises(UnresolvedIntegrandError):
        coeffs_from_function(wicksell512, f, 8)
    c = coeffs_from_function(wicksell512, f, 8, breakpoints=(1.0 / 3.0,))
    assert np.isfinite(c).all() and abs(c[0]) > 0.01


def _two_passes(model, f, kmax, breakpoints=()):
    # the coarse and the fine rule of coeffs_from_function, one recurrence
    # sweep and one sum per degree on each rule alone
    order = max(4 * kmax, 256)
    passes = []
    for o in (order, 2 * order):
        x, w = _piece_nodes(breakpoints, o)
        v = np.asarray(f(x), dtype=float) * x * w
        degrees = _orthonormal(*_recurrence(model.basis, kmax + 1), kmax, 2.0 * x * x - 1.0)
        next(degrees)  # Pi_0 = 1 sums to v.sum()
        passes.append(np.array([v.sum(), *(p @ v for p in degrees)]))
    return passes


@pytest.mark.parametrize("target", TARGET_NAMES)
def test_coeffs_from_function_is_the_two_weighted_sum_passes(wicksell512, target):
    # one recurrence sweep over both rules' nodes sums each rule on its own
    # slice, so the result is the fine pass bit for bit
    f, breakpoints = target_function(target), target_breakpoints(target)
    _, fine = _two_passes(wicksell512, f, 512, breakpoints)
    np.testing.assert_array_equal(coeffs_from_function(wicksell512, f, 512, breakpoints), fine)


def test_order_doubling_check_compares_the_two_passes(wicksell512):
    f = lambda x: np.sign(np.asarray(x) - 1.0 / 3.0)
    coarse, fine = _two_passes(wicksell512, f, 8)
    drift = float(np.max(np.abs(fine - coarse)))
    with pytest.raises(UnresolvedIntegrandError, match=f"moved {drift:.3e} "):
        coeffs_from_function(wicksell512, f, 8)


def test_stacked_coeffs_match_each_targets_own_rule(wicksell512):
    # one rule split at the union of the breakpoints serves every target as
    # accurately as its own rule; the rows differ only by rounding
    fs = [target_function(t) for t in TARGET_NAMES]
    union = [b for t in TARGET_NAMES for b in target_breakpoints(t)]
    stack = coeffs_from_function(wicksell512, fs, 512, union)
    assert stack.shape == (len(TARGET_NAMES), 513)
    for row, f, t in zip(stack, fs, TARGET_NAMES):
        own = coeffs_from_function(wicksell512, f, 512, target_breakpoints(t))
        assert np.max(np.abs(row - own)) <= 1e-13 * np.max(np.abs(own)), t


def test_stack_names_the_function_that_is_not_resolved(wicksell512):
    def smooth(x):
        return np.asarray(x) ** 2

    def jump_at_a_third(x):
        return np.sign(np.asarray(x) - 1.0 / 3.0)

    with pytest.raises(UnresolvedIntegrandError, match="of .*jump_at_a_third moved"):
        coeffs_from_function(wicksell512, [smooth, jump_at_a_third], 8)
    # with the jump's breakpoint both resolve, each row as accurate as alone
    both = coeffs_from_function(wicksell512, [smooth, jump_at_a_third], 8, (1.0 / 3.0,))
    for row, f in zip(both, (smooth, jump_at_a_third)):
        alone = coeffs_from_function(wicksell512, f, 8, (1.0 / 3.0,))
        np.testing.assert_allclose(row, alone, rtol=0, atol=1e-14)


def _uniform_piece_nodes(breakpoints, order):
    # the earlier rule: ceil(order/32) panels on every piece, however narrow
    inner = sorted(b for b in breakpoints if 0.0 < b < 1.0)
    cuts = [0.0, *(math.acos(b) for b in reversed(inner)), math.pi / 2.0]
    bx, bw = np.polynomial.legendre.leggauss(32)
    n_panels = math.ceil(order / 32)
    xs, ws = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        h = (b - a) / n_panels
        phi = (a + (np.arange(n_panels)[:, None] + (bx[None, :] + 1.0) / 2.0) * h).ravel()
        xs.append(np.cos(phi))
        ws.append(np.sin(phi) * np.tile(bw * (h / 2.0), n_panels))
    return np.concatenate(xs), np.concatenate(ws)


@pytest.mark.parametrize("breakpoints", [(0.5, 0.5 + 1e-7), (0.999,)])
def test_narrow_piece_gets_one_panel(wicksell512, breakpoints):
    lo, hi = (*breakpoints, 1.0)[:2]
    x, w = _piece_nodes(breakpoints, 256)
    assert np.count_nonzero((x > lo) & (x < hi)) == 32
    assert abs(w.sum() - 1.0) < 1e-14
    # a step with a jump at every breakpoint, against the uniform-panel rule
    levels = np.array([1.0, -3.0, 2.0])
    f = lambda x: levels[np.searchsorted(breakpoints, np.asarray(x))]
    kmax = 64
    c = coeffs_from_function(wicksell512, f, kmax, breakpoints)
    order = 2 * max(4 * kmax, 256)
    xu, wu = _uniform_piece_nodes(breakpoints, order)
    want = jacobi_eval_all(wicksell512.basis, kmax, 2.0 * xu * xu - 1.0) @ (f(xu) * xu * wu)
    assert np.max(np.abs(c - want)) < 1e-10


def test_panels_follow_piece_width():
    x, w = _piece_nodes(target_breakpoints("blocks"), 2048)
    # 64 panels on the quarter circle, plus at most one per piece from rounding up
    assert x.shape[0] <= 32 * (64 + 12)
    assert abs(w.sum() - 1.0) < 1e-14


def test_observation_statistics(wicksell512):
    rng = np.random.default_rng(42)
    c = np.zeros(513)
    c[:4] = [1.0, -0.5, 0.25, 2.0]
    eps = 0.05
    draws = np.stack([sample_observation(wicksell512, c, eps, rng).y for _ in range(4000)])
    want_mean = forward(wicksell512, c)
    err = np.abs(draws.mean(axis=0) - want_mean)
    assert np.max(err) < 5.0 * eps / math.sqrt(4000)
    var = draws.var(axis=0, ddof=1)
    assert abs(var.mean() - eps * eps) < 0.05 * eps * eps


def test_observation_noise_free(wicksell512):
    rng = np.random.default_rng(0)
    c = np.ones(513)
    obs = sample_observation(wicksell512, c, 0.0, rng)
    np.testing.assert_array_equal(obs.y, forward(wicksell512, c))


@pytest.mark.parametrize("eps", [math.nan, math.inf, -0.01])
def test_observation_rejects_bad_epsilon(eps):
    with pytest.raises(ValueError, match=f"got {eps}"):
        SequenceObservation(np.zeros(8), eps)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_observation_rejects_non_finite_y(bad):
    y = np.ones(8)
    y[5] = bad
    with pytest.raises(ValueError, match=rf"y\[5\] = {bad}"):
        SequenceObservation(y, 0.01)
    # in a stack of runs the message names the run, then the index
    runs = np.ones((3, 8))
    runs[2, 5] = bad
    with pytest.raises(ValueError, match=rf"y\[2, 5\] = {bad}"):
        SequenceObservation(runs, 0.01)


def test_sample_observation_rejects_nan_epsilon(wicksell512):
    with pytest.raises(ValueError, match="nan"):
        sample_observation(wicksell512, np.ones(4), math.nan, np.random.default_rng(0))


def test_calibration_scales_with_rsnr(wicksell512):
    c = coeffs_from_function(
        wicksell512,
        target_function("heavisine"),
        512,
        breakpoints=target_breakpoints("heavisine"),
    )
    e5 = calibrate_epsilon(wicksell512, c, 5.0, 1024)
    e10 = calibrate_epsilon(wicksell512, c, 10.0, 1024)
    assert abs(e5 - 2.0 * e10) < 1e-18
    # frozen regression value for the default table's center cell
    assert abs(e5 - 0.000959795384166067) < 1e-12
    # an array of ratios calibrates once and gives each scalar call's value exactly
    many = calibrate_epsilon(wicksell512, c, np.array([3.0, 5.0, 10.0]), 1024)
    assert many.tolist() == [calibrate_epsilon(wicksell512, c, r, 1024) for r in (3.0, 5.0, 10.0)]
    with pytest.raises(ValueError, match="every rsnr level must be finite and > 0, got 0.0"):
        calibrate_epsilon(wicksell512, c, np.array([3.0, 0.0]), 1024)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"every rsnr level must be finite and > 0, got {bad}"):
            calibrate_epsilon(wicksell512, c, np.array([3.0, bad]), 1024)
    # the scoring grid's one floor, as every config and make_adaptive_config hold it
    with pytest.raises(ValueError, match="^grid resolution must be >= 64, got 63$"):
        calibrate_epsilon(wicksell512, c, 5.0, 63)


def test_calibration_of_a_target_stack_is_each_targets_call(wicksell512):
    # one image-side table for the stack; each row's epsilons keep the bits
    # of the call for that target alone
    targets = [
        coeffs_from_function(wicksell512, target_function(t), 512, target_breakpoints(t))
        for t in TARGET_NAMES
    ]
    rsnr = np.array([3.0, 5.0, 7.0])
    stacked = calibrate_epsilon(wicksell512, np.stack(targets), rsnr, 1024)
    assert stacked.shape == (len(targets), 3)
    assert stacked.tolist() == [calibrate_epsilon(wicksell512, c, rsnr, 1024).tolist() for c in targets]
    one_ratio = calibrate_epsilon(wicksell512, np.stack(targets), 5.0, 1024)
    assert one_ratio.tolist() == [calibrate_epsilon(wicksell512, c, 5.0, 1024) for c in targets]
    with pytest.raises(ValueError, match="Kf is constant"):
        calibrate_epsilon(wicksell512, np.stack([targets[0], np.zeros(513)]), rsnr, 1024)


def test_calibration_rejects_constant_image(wicksell512):
    with pytest.raises(ValueError):
        calibrate_epsilon(wicksell512, np.zeros(513), 5.0, 1024)


def test_domain_validation(wicksell512):
    with pytest.raises(ValueError):
        eval_e(wicksell512, 4, np.array([1.5]))
    # the image basis extends to the full Chebyshev interval
    with pytest.raises(ValueError):
        eval_g(wicksell512, 4, np.array([-1.2]))


def test_derive_seed_stable_and_distinct():
    s = derive_seed(65537, 3, "blocks", "rsnr=5")
    assert s == derive_seed(65537, 3, "blocks", "rsnr=5")
    others = {
        derive_seed(65537, 4, "blocks", "rsnr=5"),
        derive_seed(65537, 3, "bumps", "rsnr=5"),
        derive_seed(65537, 3, "blocks", "rsnr=7"),
        derive_seed(1, 3, "blocks", "rsnr=5"),
    }
    assert s not in others and len(others) == 4
    assert 0 <= s < 2**63


@pytest.mark.parametrize("nu", [1.0, 2.0])
def test_power_model_is_scale_over_a_power_of_one_plus_k(nu):
    model = power_model("test", nu, 0.25, 64)
    one_plus_k = 1.0 + np.arange(65.0)
    want = 0.25 / one_plus_k if nu == 1.0 else 0.25 / (one_plus_k * one_plus_k)
    np.testing.assert_array_equal(model.b, want)
    assert (model.kind, model.nu, model.kmax, model.basis) == ("test", nu, 64, jacobi_basis(0.0, 1.0))
    with pytest.raises(ValueError, match="^kmax must be >= 1, got 0$"):
        power_model("test", nu, 0.25, 0)


@pytest.mark.parametrize("kmax", [8, 512, 2048, 16384])
def test_wicksell_and_direct_are_power_models_of_the_same_bits(kmax):
    # the two operators keep the singular values they had as closed forms
    k = np.arange(kmax + 1, dtype=float)
    for make, kind, b in ((wicksell_model, "wicksell", math.pi / 16.0 / np.sqrt(1.0 + k)),
                          (direct_model, "direct", np.ones(kmax + 1))):
        model = make(kmax)
        np.testing.assert_array_equal(model.b, b)
        np.testing.assert_array_equal(model.b, power_model(kind, *POWER_LAWS[kind], kmax).b)
        assert (model.kind, model.nu) == (kind, POWER_LAWS[kind][0])


@pytest.mark.parametrize(
    "evaluator",
    ["jacobi_eval_all", "generalized_weight", "needlet_values", "eval_e", "eval_g",
     "dyadic_square_sum", "check_partition"],
)
def test_a_nan_point_is_refused_naming_its_entry(evaluator, frame7, filt, wicksell512):
    # NaN compares false, so a hand-written "outside the domain" test let it
    # through: jacobi_eval_all gave [1, nan, nan] at a NaN point
    x = np.array([1.0, np.nan])
    basis = wicksell512.basis
    inside = "evaluation point x[1] = nan is not in [-1, 1]"
    call, message = {
        "jacobi_eval_all": (lambda: jacobi_eval_all(basis, 2, x), inside),
        "generalized_weight": (lambda: generalized_weight(basis, 4, x), inside),
        "needlet_values": (lambda: needlet_values(frame7, 2, 1, x), inside),
        "eval_e": (lambda: eval_e(wicksell512, 2, x), "point x[1] = nan is not in the Wicksell domain [0, 1]"),
        "eval_g": (lambda: eval_g(wicksell512, 2, x), "image point y[1] = nan is not in [-1, 1]"),
        "dyadic_square_sum": (lambda: dyadic_square_sum(filt, x), "xi[1] = nan is not > 0"),
        "check_partition": (lambda: check_partition(filt, x), "xi[1] = nan is not >= 1"),
    }[evaluator]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()


def test_a_scalar_point_outside_the_domain_is_named_as_entry_0():
    with pytest.raises(ValueError, match=re.escape("evaluation point x[0] = 1.5 is not in [-1, 1] (1 of 1")):
        jacobi_eval_all(jacobi_basis(0.0, 1.0), 2, 1.5)
