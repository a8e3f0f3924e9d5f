"""Release acceptance checks, one test per criterion.

Every test prints a single verdict line (run with -s to see them all;
pytest -v shows the same pass/fail per test) and asserts it. Pinned
constants were measured by pre-run pilots on this exact protocol and are
stated next to their tolerance.

Criterion 9 checks the paper's claim on the default simulation table.
9a gates on thresholding in the needlet frame beating both SVD baselines,
in weighted RMSE and weighted L1. It does not gate on the adaptive SVD
filter beating the projection baseline: the projection cutoff is an
oracle, tuned against the true grid values on the very runs it is scored
on, while the blockwise filter is only promised to come within a factor
of the best monotone filter. 9a still reports that leg. 9b holds the
absolute thresholding errors of one cell to target bands whose source is
not recorded; the pinned noise calibration does not reach them, and it
fails red until the paper's tables or their calibration can show which
band is right. A separate regression pin holds the same cell to a band
from a pilot on held-out master seeds at the pinned calibration, and pins
that calibration too; it measures the program against itself, not
against the paper.
"""

import math
import time

import numpy as np
import pytest

from needlets import (
    SimulationConfig,
    analyze,
    build_frame,
    check_partition,
    direct_model,
    emit_report,
    gauss_jacobi_rule,
    generalized_weight,
    jacobi_basis,
    level_frame_norms,
    level_sigma,
    localization_check,
    make_adaptive_config,
    make_blocks,
    make_filter,
    make_profile,
    make_threshold_plan,
    need_d,
    rate_study,
    run_experiment,
    sample_observation,
    svd_adaptive,
    synthesize,
)

# Rate-study pilot (9-point ladder below, 10 runs each, master seed 65537,
# Jacobi(0,1) frame at j_max = 8, normalized exp(-k/4) target):
#   wicksell slope 0.755249 (theory 0.8), direct slope 0.949802 (theory 8/9).
EPS_LADDER = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5)
WICKSELL_SLOPE_PIN = 0.755249
DIRECT_SLOPE_PIN = 0.949802
SLOPE_TOL = 0.15

# Heavisine/rsnr=5 thresholding pilot for the regression pin (default config
# otherwise, 20 runs, master seeds 1..8, so the default seed 65537 is held
# out; epsilon is the calibrate_epsilon value sd(Kf)/rsnr/sqrt(n) =
# 9.59795384166067e-4):
#   weighted RMSE mean 0.123432, between-seed sd 0.005072 (0.118265..0.133909)
#   weighted L1   mean 0.117687, between-seed sd 0.002514 (0.113488..0.119885)
# At seed 65537 the noise scaled by 1/2 gives RMSE 0.090456 / L1 0.086567 and
# by 2 gives 0.174307 / 0.174176: both fall outside the 4-sd bands.
HEAVISINE5_EPS_PIN = 0.000959795384166067
HEAVISINE5_RMSE_PIN = 0.123432
HEAVISINE5_RMSE_SD = 0.005072
HEAVISINE5_L1_PIN = 0.117687
HEAVISINE5_L1_SD = 0.002514
BAND_SDS = 4.0

# Conjugate-pair norm products measured over the whole Jacobi(0,1) frame,
# j = 0..7: max 11.375 for (1, inf) and 1.178 for (4, 4/3).
PRODUCT_CAP = 12.0


def _verdict(tag: str, ok: bool, detail: str) -> None:
    line = f"criterion {tag}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


def _band(pin: float, sd: float) -> tuple[float, float]:
    return pin - BAND_SDS * sd, pin + BAND_SDS * sd


@pytest.fixture(scope="module")
def default_report():
    t0 = time.perf_counter()
    report = run_experiment(SimulationConfig())
    return report, time.perf_counter() - t0


def test_criterion_01_quadrature_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha, beta in ((0.0, 0.0), (0.0, 1.0)):
        basis = jacobi_basis(alpha, beta)
        for n in (4, 16, 64, 256):
            rule = gauss_jacobi_rule(basis, n)
            oracle = gauss_jacobi_rule(basis, 2 * n)
            degs = np.arange(2 * n - 1)[:, None]
            got = (rule.nodes[None, :] ** degs) @ rule.weights
            want = (oracle.nodes[None, :] ** degs) @ oracle.weights
            err = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))
            worst = max(worst, err)
    dt = time.perf_counter() - t0
    _verdict(
        "1",
        worst <= 1e-10 and dt < 5.0,
        f"monomials to degree 2N-2, worst relative error {worst:.2e} "
        f"(cap 1e-10), {dt:.2f} s (cap 5 s)",
    )


def test_criterion_02_partition_of_unity(filt):
    xi = np.linspace(1.0, 1024.0, 10_000)
    dev = check_partition(filt, xi)
    _verdict("2", dev <= 1e-12, f"max deviation from 1 is {dev:.2e} (cap 1e-12)")


def test_criterion_03_tight_frame(frame7):
    rng = np.random.default_rng(90210)
    t0 = time.perf_counter()
    worst_parseval = 0.0
    worst_roundtrip = 0.0
    for _ in range(100):
        f = np.zeros(frame7.budget)
        f[: frame7.exact_dim] = rng.standard_normal(frame7.exact_dim)
        energy = float(f @ f)
        beta = analyze(frame7, f)
        frame_energy = sum(float(b @ b) for b in beta)
        worst_parseval = max(worst_parseval, abs(frame_energy - energy) / energy)
        defect = np.linalg.norm(synthesize(frame7, beta) - f) / math.sqrt(energy)
        worst_roundtrip = max(worst_roundtrip, float(defect))
    dt = time.perf_counter() - t0
    _verdict(
        "3",
        worst_parseval <= 1e-8 and worst_roundtrip <= 1e-8 and dt < 30.0,
        f"100 exactly representable functions: Parseval defect {worst_parseval:.2e}, "
        f"round-trip defect {worst_roundtrip:.2e} (caps 1e-8), {dt:.2f} s (cap 30 s)",
    )


def test_criterion_04_zero_sum_and_unit_norms(frame7):
    # the j = -1 element is the unit-mean constant; the mean-zero identity
    # is a property of the band levels j >= 0
    worst_sum = 0.0
    worst_norm = 0.0
    for lev in frame7.levels:
        if lev.j >= 0:
            sums = np.sqrt(lev.weights) @ lev.psi
            worst_sum = max(worst_sum, float(np.max(np.abs(sums))))
        worst_norm = max(worst_norm, float(np.max(np.linalg.norm(lev.psi, axis=1))))
    _verdict(
        "4",
        worst_sum <= 1e-10 and worst_norm <= 1.0 + 1e-10,
        f"worst weighted frequency sum {worst_sum:.2e} (cap 1e-10), "
        f"worst L2 norm {worst_norm:.12f} (cap 1 + 1e-10)",
    )


def test_criterion_05_sigma_scaling(frame8, wicksell512):
    sigma = level_sigma(frame8, wicksell512.b)
    scaled = [float(sigma[j + 1]) ** 2 * 2.0 ** (-j) for j in range(2, 9)]
    ratio = max(scaled) / min(scaled)
    _verdict(
        "5",
        ratio <= 10.0,
        f"sigma_j^2 2^-j over j = 2..8 has max/min ratio {ratio:.3f} (cap 10)",
    )


def test_criterion_06_norm_scaling(frame7):
    spreads = {}
    for p in (1.0, 4.0, math.inf):
        ratios = []
        for j in range(3, 8):
            lev = frame7.level(j)
            omega = generalized_weight(frame7.basis, 2**j, lev.nodes)
            expo = 0.5 if math.isinf(p) else 0.5 - 1.0 / p
            ratios.append(level_frame_norms(frame7, j, p) / (2.0**j / omega) ** expo)
        flat = np.concatenate(ratios)
        spreads[p] = float(flat.max() / flat.min())
    worst_product = 0.0
    for j in range(0, frame7.j_max + 1):
        n1 = level_frame_norms(frame7, j, 1.0)
        ninf = level_frame_norms(frame7, j, math.inf)
        n4 = level_frame_norms(frame7, j, 4.0)
        n43 = level_frame_norms(frame7, j, 4.0 / 3.0)
        worst_product = max(
            worst_product, float(np.max(n1 * ninf)), float(np.max(n4 * n43))
        )
    _verdict(
        "6",
        all(s <= 16.0 for s in spreads.values()) and worst_product <= PRODUCT_CAP,
        "scaling-ratio spreads over j = 3..7: "
        + ", ".join(f"p={p:g}: {s:.3f}" for p, s in spreads.items())
        + f" (cap 16); worst conjugate-pair product {worst_product:.3f}"
        f" (single constant {PRODUCT_CAP})",
    )


def test_criterion_07_localization_envelope():
    # the envelope transfer needs the infinitely smooth cutoff; the default
    # polynomial profile is only C^1 at the support edges and its fitted
    # constant provably grows with j at decay order 3
    frame = build_frame(
        jacobi_basis(0.0, 1.0),
        make_filter(make_profile("smooth-exponential", 2)),
        j_max=6,
    )
    c4 = float(localization_check(frame, 4, 3).max())
    c6 = float(localization_check(frame, 6, 3).max())
    _verdict(
        "7",
        c6 <= 1.5 * c4,
        f"decay order 3 envelope constants C(j=4) = {c4:.3f}, C(j=6) = {c6:.3f}; "
        f"1.5 x C(j=4) = {1.5 * c4:.3f} covers j = 6",
    )


def test_criterion_08_estimator_exactness_and_unbiasedness(frame7, wicksell512):
    budget = frame7.budget
    rng = np.random.default_rng(20240917)
    f = np.zeros(budget)
    f[: frame7.exact_dim] = rng.standard_normal(frame7.exact_dim) * np.exp(
        -np.arange(frame7.exact_dim) / 24.0
    )

    # noise-free thresholding degenerates to interpolation
    plan0 = make_threshold_plan(frame7, wicksell512, 0.0)
    obs0 = sample_observation(wicksell512, f, 0.0, rng)
    recovered = need_d(frame7, wicksell512, obs0, plan0).coeffs
    recovery = float(np.max(np.abs(recovered - f)))

    # Monte-Carlo moments of the raw frame coefficients of Y_i / b_i
    eps = 0.05
    n_draws = 10_000
    beta_true = analyze(frame7, f)
    draws = np.random.default_rng(424243).standard_normal((n_draws, budget))
    ybar = f[None, :] + eps * draws / wicksell512.b[None, :budget]
    worst_z = 0.0
    worst_var = 0.0
    for lev, beta_lev in zip(frame7.levels, beta_true):
        window = slice(lev.freq_lo, lev.freq_hi + 1)
        beta_hat = ybar[:, window] @ lev.psi.T
        var_theory = eps**2 * np.sum(
            (lev.psi / wicksell512.b[window][None, :]) ** 2, axis=1
        )
        se_mean = np.sqrt(var_theory / n_draws)
        worst_z = max(
            worst_z, float(np.max(np.abs(beta_hat.mean(axis=0) - beta_lev) / se_mean))
        )
        sample_var = beta_hat.var(axis=0, ddof=1)
        worst_var = max(worst_var, float(np.max(np.abs(sample_var / var_theory - 1.0))))
    _verdict(
        "8",
        recovery <= 1e-8 and worst_z <= 4.0 and worst_var <= 0.10,
        f"noise-free recovery {recovery:.2e} (cap 1e-8); over {n_draws} draws the "
        f"worst coefficient mean sits {worst_z:.2f} standard errors from truth "
        f"(cap 4) and the worst variance deviates {worst_var:.1%} from "
        f"eps^2 sum (psi/b)^2 (cap 10%)",
    )


def test_criterion_09a_method_ordering(default_report):
    # svd-proj reads its cutoff off the mean RMSE against the true grid
    # values over the runs it is then scored on, so it is an oracle; the
    # blockwise Stein filter of svd-adapt is only promised a factor (1 + tau)
    # of the best monotone filter plus a remainder (Cavalier & Tsybakov,
    # PTRF 123, 2002), so adapt <= proj is reported but does not gate.
    # Pilot (default config, master seeds 1..8): needd beats both baselines
    # in both losses in 12, 12, 11, 12, 11, 12, 12, 12 of 12 cells.
    report, dt = default_report
    cfg = report.config
    beats_both = 0
    adapt_leg = 0
    lost = []
    adapt_broken = []
    for target in cfg.targets:
        for r in cfg.rsnr:
            proj = report.cell(target, r, "svd-proj")
            adapt = report.cell(target, r, "svd-adapt")
            needd = report.cell(target, r, "needd")
            if (
                needd.mean_rmse < min(adapt.mean_rmse, proj.mean_rmse)
                and needd.mean_l1 < min(adapt.mean_l1, proj.mean_l1)
            ):
                beats_both += 1
            else:
                lost.append(
                    f"{target}/rsnr={r:g} (RMSE proj {proj.mean_rmse:.4f}, adapt "
                    f"{adapt.mean_rmse:.4f}, needd {needd.mean_rmse:.4f}; L1 proj "
                    f"{proj.mean_l1:.4f}, adapt {adapt.mean_l1:.4f}, needd "
                    f"{needd.mean_l1:.4f})"
                )
            if adapt.mean_rmse <= proj.mean_rmse:
                adapt_leg += 1
            else:
                adapt_broken.append(
                    f"{target}/rsnr={r:g} (adapt {adapt.mean_rmse:.4f}, "
                    f"proj {proj.mean_rmse:.4f})"
                )
    cells = len(cfg.targets) * len(cfg.rsnr)
    _verdict(
        "9a",
        beats_both >= 10 and dt < 600.0,
        f"needd below both svd-proj and svd-adapt in weighted RMSE and L1 in "
        f"{beats_both}/{cells} cells (need 10)"
        + (f", not at: {'; '.join(lost)}" if lost else "")
        + f"; table runtime {dt:.1f} s (cap 600 s); not gating: RMSE "
        f"adapt <= proj (oracle cutoff) holds in {adapt_leg}/{cells}"
        + (f", broken at: {'; '.join(adapt_broken)}" if adapt_broken else ""),
    )


def test_criterion_09b_error_bands(default_report):
    report, _ = default_report
    cell = report.cell("heavisine", 5.0, "needd")
    rmse, l1 = cell.mean_rmse, cell.mean_l1
    _verdict(
        "9b",
        0.010 <= rmse <= 0.080 and 0.008 <= l1 <= 0.070,
        f"heavisine/rsnr=5 thresholding errors: weighted RMSE {rmse:.6f} "
        f"(band [0.010, 0.080]), weighted L1 {l1:.6f} (band [0.008, 0.070])",
    )


def test_heavisine5_regression_pin(default_report):
    report, _ = default_report
    cell = report.cell("heavisine", 5.0, "needd")
    rmse, l1 = cell.mean_rmse, cell.mean_l1
    calibrated = abs(cell.epsilon - HEAVISINE5_EPS_PIN) <= 1e-12
    rmse_lo, rmse_hi = _band(HEAVISINE5_RMSE_PIN, HEAVISINE5_RMSE_SD)
    l1_lo, l1_hi = _band(HEAVISINE5_L1_PIN, HEAVISINE5_L1_SD)
    _verdict(
        "heavisine5 regression pin",
        calibrated and rmse_lo <= rmse <= rmse_hi and l1_lo <= l1 <= l1_hi,
        f"heavisine/rsnr=5 at epsilon {cell.epsilon:.9e} (pin "
        f"{HEAVISINE5_EPS_PIN:.9e} +/- 1e-12); thresholding errors: weighted "
        f"RMSE {rmse:.6f} (band [{rmse_lo:.6f}, {rmse_hi:.6f}]), weighted L1 "
        f"{l1:.6f} (band [{l1_lo:.6f}, {l1_hi:.6f}]); bands are the held-out "
        f"pilot mean +/- {BAND_SDS:g} between-seed sd",
    )


def test_criterion_10_rate_study(frame8, wicksell512):
    ck = np.exp(-np.arange(64) / 4.0)
    ck /= np.linalg.norm(ck)
    wick = rate_study(
        wicksell512,
        frame8,
        ck,
        EPS_LADDER,
        runs=10,
        master_seed=65537,
    )
    direct = rate_study(
        direct_model(512),
        frame8,
        ck,
        EPS_LADDER,
        runs=10,
        master_seed=65537,
    )
    ok = (
        wick.slope > 0.0
        and abs(wick.slope - WICKSELL_SLOPE_PIN) <= SLOPE_TOL
        and abs(direct.slope - DIRECT_SLOPE_PIN) <= SLOPE_TOL
        and wick.slope < direct.slope
    )
    _verdict(
        "10",
        ok,
        f"4-decade ladder: wicksell slope {wick.slope:.4f} "
        f"(pin {WICKSELL_SLOPE_PIN} +/- {SLOPE_TOL}, theory 0.8), direct slope "
        f"{direct.slope:.4f} (pin {DIRECT_SLOPE_PIN} +/- {SLOPE_TOL}, theory 8/9), "
        f"wicksell < direct",
    )


def test_criterion_11_block_construction(wicksell512):
    eps = 0.01  # loglog(1/eps) < 5, so the growth parameter floors at 5
    bounds = make_blocks(wicksell512, eps)
    prefix = [int(b) for b in bounds[:3]]
    prefix_ok = prefix == [1, 5, 10]
    increasing = bool(np.all(np.diff(bounds) > 0))

    config = make_adaptive_config(wicksell512, eps, n=1024)
    rng = np.random.default_rng(777)
    f = np.zeros(wicksell512.kmax + 1)
    f[:64] = np.exp(-np.arange(64) / 8.0)
    obs = sample_observation(wicksell512, f, eps, rng)
    ybar = obs.y / wicksell512.b
    lam = svd_adaptive(wicksell512, obs, config) / ybar
    in_range = bool(np.all(lam >= -1e-12) and np.all(lam <= 1.0 + 1e-12))
    truncated = bool(np.all(lam[config.n_top + 1 :] == 0.0))
    _verdict(
        "11",
        prefix_ok and increasing and in_range and truncated,
        f"boundaries start {prefix} (want [1, 5, 10]), "
        f"{len(bounds) - 1} nonempty increasing blocks: {increasing}; weights in "
        f"[0, 1]: {in_range}; zero above N_0 = {config.n_top}: {truncated}",
    )


def test_criterion_12_determinism(default_report, tmp_path):
    report_a, _ = default_report
    report_b = run_experiment(SimulationConfig())
    paths_a = emit_report(report_a, str(tmp_path / "a"))
    paths_b = emit_report(report_b, str(tmp_path / "b"))
    same = all(
        open(pa, "rb").read() == open(pb, "rb").read()
        for pa, pb in zip(paths_a, paths_b)
    )
    _verdict(
        "12",
        same and len(paths_a) == 3,
        "two executions of the default config produce bit-identical "
        "L1 and RMSE tables and JSON report: " + str(same),
    )
