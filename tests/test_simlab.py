"""Simulation harness: config plumbing, determinism, exact recovery, reports.

Determinism contract: identical config and seed reproduce the report down to
the CSV bytes. Exactness contract: with the noise forced to zero and an
in-budget synthetic target every estimator is lossless to 1e-6.

The projection cutoff sweep in `run_experiment` uses the Gram identity; the
direct sweep it replaced (one cumulative table of partial sums on the grid
per run) is kept here as the reference it must agree with.
"""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import needlets.estimators
import needlets.models
import needlets.simlab

from needlets import (
    ESTIMATOR_NAMES,
    TARGET_NAMES,
    CellResult,
    FrameSpec,
    SimulationConfig,
    SimulationReport,
    build_frame,
    coeffs_from_function,
    direct_model,
    emit_report,
    eval_e,
    jacobi_basis,
    load_report,
    make_filter,
    make_profile,
    projection_gram,
    rate_study,
    run_experiment,
    sample_observation,
    target_breakpoints,
    target_function,
    weighted_loss,
    wicksell_model,
)
from needlets.cli import RATE_EPS_DEFAULT, main
from needlets.errors import InvariantError
from needlets.estimators import GRAM_BLOCK


def _tiny_config(**kw):
    base = dict(
        targets=("heavisine",),
        rsnr=(5.0,),
        n=256,
        runs=2,
        seed=4242,
        frame=FrameSpec(jmax=6),
    )
    base.update(kw)
    return SimulationConfig(**base)


def test_default_config_shape():
    cfg = SimulationConfig()
    assert cfg.targets == ("blocks", "bumps", "doppler", "heavisine")
    assert cfg.rsnr == (3.0, 5.0, 7.0)
    assert cfg.runs == 20 and cfg.n == 1024
    assert cfg.estimators == ESTIMATOR_NAMES


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(runs=0)
    with pytest.raises(ValueError):
        SimulationConfig(n=32)
    with pytest.raises(ValueError):
        SimulationConfig(rsnr=(3.0, -1.0))
    with pytest.raises(ValueError, match="^rsnr must hold at least one level$"):
        SimulationConfig(rsnr=())
    with pytest.raises(ValueError):
        SimulationConfig(estimators=("needd", "ridge"))
    with pytest.raises(ValueError):
        SimulationConfig(epsilon_override=1.0)


def test_config_dict_round_trip():
    cfg = _tiny_config(epsilon_override=0.02)
    back = SimulationConfig.from_dict(cfg.to_dict())
    assert back == cfg
    d = cfg.to_dict()
    d["mystery"] = 1
    with pytest.raises(ValueError, match=r"^unknown config keys: \['mystery'\]"):
        SimulationConfig.from_dict(d)
    for group in ("frame", "adaptive", "needd"):
        d = cfg.to_dict()
        d[group]["mystery"] = 1
        with pytest.raises(ValueError, match=rf"^unknown {group} config keys: \['mystery'\]"):
            SimulationConfig.from_dict(d)
    d2 = cfg.to_dict()
    d2["targets"] = ["heavisine", "sawtooth"]
    with pytest.raises(ValueError):
        SimulationConfig.from_dict(d2)


@pytest.mark.parametrize(
    "raw, key, value",
    [
        ({"runs": "20"}, "runs", "'20'"),
        ({"rsnr": 5}, "rsnr", "5"),
        ({"frame": {"jmax": "8"}}, "frame.jmax", "'8'"),
        ({"needd": {"kappa": "x"}}, "needd.kappa", "'x'"),
        ({"n": 1024.5}, "n", "1024.5"),
    ],
)
def test_config_value_of_wrong_type_rejected(raw, key, value, tmp_path, capsys):
    with pytest.raises(ValueError) as exc:
        SimulationConfig.from_dict(raw)
    assert f"config key {key!r} " in str(exc.value)
    assert str(exc.value).endswith(f"got {value}")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"


@pytest.mark.parametrize("eps", [5e-324, sys.float_info.min / 2.0])
def test_config_refuses_subnormal_epsilon_override(eps, tmp_path, capsys):
    # below the smallest normal float 1/epsilon overflows in the estimators;
    # the config refuses it before any work
    with pytest.raises(ValueError, match=f"got {eps}$") as exc:
        SimulationConfig.from_dict({"epsilon-override": eps})
    assert "epsilon override must be 0 or in" in str(exc.value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"epsilon-override": eps, "estimators": ["svd-proj"]}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    for ok in (0.0, sys.float_info.min, 1.0 - 2.0**-53):
        assert SimulationConfig.from_dict({"epsilon-override": ok}).epsilon_override == ok


@pytest.mark.parametrize("rsnr", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_config_refuses_rsnr_that_is_not_finite_and_positive(rsnr, tmp_path, capsys, monkeypatch):
    # a NaN rsnr passed r <= 0 and failed after the quadrature, naming
    # epsilon; an infinite one silently ran at epsilon 0. The config refuses
    # both before any work, naming the value
    with pytest.raises(ValueError, match=f"^every rsnr level must be finite and > 0, got {rsnr}$") as exc:
        SimulationConfig(rsnr=(3.0, rsnr))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"rsnr": [5.0, rsnr]}))

    def no_work(*args):
        raise AssertionError("quadrature ran before the config was checked")

    monkeypatch.setattr(needlets.simlab, "coeffs_from_function", no_work)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"


@settings(max_examples=25, deadline=None)
@given(eps=st.floats(0.0, 1.0, exclude_max=True))
@example(eps=0.0)
@example(eps=5e-324)
@example(eps=sys.float_info.min)
@example(eps=1.0 - 2.0**-53)
def test_epsilon_override_gives_finite_tables_or_refusal(eps):
    # every override in [0, 1) through the whole experiment: finite losses
    # for every estimator, or the config's refusal naming the value
    try:
        cfg = _tiny_config(n=1024, frame=FrameSpec(jmax=4), epsilon_override=eps)
    except ValueError as exc:
        assert 0.0 < eps < sys.float_info.min
        assert str(exc).endswith(f"got {eps}")
        return
    report = run_experiment(cfg)
    assert len(report.cells) == len(ESTIMATOR_NAMES)
    for cell in report.cells:
        assert cell.epsilon == eps
        assert np.all(np.isfinite(cell.l1)) and np.all(np.isfinite(cell.rmse))


def test_frame_is_built_only_for_needd(monkeypatch):
    full = run_experiment(_tiny_config())

    def no_frame(*args):
        raise AssertionError("frame built without needd")

    monkeypatch.setattr(needlets.simlab, "build_frame", no_frame)
    report = run_experiment(_tiny_config(estimators=("svd-proj", "svd-adapt")))
    assert [c.estimator for c in report.cells] == ["svd-proj", "svd-adapt"]
    # the model still takes the frame budget 2^(jmax+1), so the cells keep their bits
    for cell in report.cells:
        ref = full.cell(cell.target, cell.rsnr, cell.estimator)
        assert (cell.epsilon, cell.n_star) == (ref.epsilon, ref.n_star)
        np.testing.assert_array_equal(cell.l1, ref.l1)
        np.testing.assert_array_equal(cell.rmse, ref.rmse)
    with pytest.raises(AssertionError, match="without needd"):
        run_experiment(_tiny_config())


def test_each_experiment_table_is_formed_once(monkeypatch):
    # on the default config: one image-side table for every epsilon, one
    # level_sigma for every threshold plan, one Gram triangle
    # (projection_gram) for every projection sweep, one coefficient
    # quadrature for every target, and one loss call per p for each cell's
    # three estimators
    counts = {"eval_g": 0, "level_sigma": 0, "projection_gram": 0, "coeffs_from_function": 0, "weighted_loss": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(needlets.models, "eval_g")
    counted(needlets.estimators, "level_sigma")
    counted(needlets.simlab, "projection_gram")
    counted(needlets.simlab, "coeffs_from_function")
    counted(needlets.simlab, "weighted_loss")
    report = run_experiment(SimulationConfig())
    assert len(report.cells) == 36
    assert counts == {
        "eval_g": 1, "level_sigma": 1, "projection_gram": 1, "coeffs_from_function": 1, "weighted_loss": 24
    }


def test_one_target_config_gives_that_targets_cells_of_every_target_config():
    # the standard targets are always integrated as one stack of all four,
    # so a target's coefficients, and every cell, do not depend on which
    # other targets the config lists
    every = run_experiment(_tiny_config(targets=TARGET_NAMES))
    for target in TARGET_NAMES:
        alone = run_experiment(_tiny_config(targets=(target,)))
        assert len(alone.cells) == len(ESTIMATOR_NAMES)
        for cell in alone.cells:
            want = every.cell(target, cell.rsnr, cell.estimator)
            assert (cell.epsilon, cell.seeds, cell.n_star) == (want.epsilon, want.seeds, want.n_star)
            np.testing.assert_array_equal(cell.l1, want.l1)
            np.testing.assert_array_equal(cell.rmse, want.rmse)


def test_stacked_scoring_is_row_by_row_scoring(monkeypatch):
    # each cell scores its estimators' runs as one stack; on the default
    # config every run's losses equal its estimator's own product and loss
    # calls bit for bit
    estimates = []

    def recorded(name, pick=lambda out: out):
        real = getattr(needlets.simlab, name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            estimates.append(pick(out))
            return out

        monkeypatch.setattr(needlets.simlab, name, wrapper)

    recorded("svd_projection")
    recorded("svd_adaptive")
    recorded("need_d", lambda res: res.coeffs)
    cfg = SimulationConfig()
    report = run_experiment(cfg)
    assert len(estimates) == len(report.cells)
    model = wicksell_model(2 ** (cfg.frame.jmax + 1))
    grid = np.arange(1, cfg.n + 1) / cfg.n
    e_vals = eval_e(model, model.kmax, grid)
    truth = {t: target_function(t)(grid) for t in cfg.targets}
    for cell, coeffs in zip(report.cells, estimates):
        fhat_vals = coeffs @ e_vals
        np.testing.assert_array_equal(cell.l1, weighted_loss(truth[cell.target], fhat_vals, cfg.n, 1))
        np.testing.assert_array_equal(cell.rmse, weighted_loss(truth[cell.target], fhat_vals, cfg.n, 2))


def test_each_experiment_table_is_held_once(traced_peak):
    # on the default table (513 x 1024): eval_g holds its table alone, and
    # projection_gram its two outputs and one block of weighted rows, with
    # no weighted copy of the table and no full G beside its triangle.
    # Formed whole they took 2.0 tables and 4.0 blocks beyond the outputs
    model = wicksell_model(512)
    n = 1024
    grid = np.arange(1, n + 1) / n
    table, peak = traced_peak(lambda: needlets.models.eval_g(model, model.kmax, grid))
    assert table.shape == (513, n)
    assert peak <= 1.05 * table.nbytes
    e_vals = eval_e(model, model.kmax, grid)
    (diag, lower_t), peak = traced_peak(lambda: projection_gram(e_vals))
    assert peak <= diag.nbytes + lower_t.nbytes + 1.1 * 8 * GRAM_BLOCK * n


def test_report_key_order(tmp_path):
    cfg = _tiny_config()
    d = cfg.to_dict()
    assert list(d) == [
        "targets", "rsnr", "n", "runs", "estimators", "seed",
        "frame", "adaptive", "needd", "epsilon-override",
    ]
    assert list(d["frame"]) == ["jmax", "m", "nodes-per-level"]
    assert list(d["adaptive"]) == ["gamma", "logbase"]
    assert list(d["needd"]) == ["kappa"]
    cell = CellResult("heavisine", 5.0, "needd", 0.01, (1, 2), [0.1, 0.2], [0.3, 0.4])
    # the loss tables are written too, so the one cell must fill them
    one_cell = _tiny_config(estimators=("needd",))
    path = emit_report(SimulationReport(one_cell, (cell,)), str(tmp_path / "out"))[2]
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert list(payload) == ["config", "cells"]
    assert list(payload["cells"][0]) == [
        "target", "rsnr", "estimator", "epsilon", "seeds", "l1", "rmse", "n_star",
        "mean_l1", "mean_rmse", "stderr_l1", "stderr_rmse",
    ]


def test_noise_free_recovery_synthetic_target():
    cfg = _tiny_config(runs=1, epsilon_override=0.0, targets=("spike",))
    coeffs = np.zeros(513)
    coeffs[:40] = np.linspace(1.0, 0.1, 40)
    report = run_experiment(cfg, coefficient_targets={"spike": coeffs})
    for est in cfg.estimators:
        cell = report.cell("spike", 5.0, est)
        assert cell.epsilon == 0.0
        assert cell.mean_l1 <= 1e-6 and cell.mean_rmse <= 1e-6, est


def test_report_shape_and_determinism(tmp_path):
    cfg = _tiny_config()
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert len(r1.cells) == len(cfg.targets) * len(cfg.rsnr) * len(cfg.estimators)
    paths1 = emit_report(r1, str(tmp_path / "a"))
    paths2 = emit_report(r2, str(tmp_path / "b"))
    for p1, p2 in zip(paths1, paths2):
        assert open(p1, "rb").read() == open(p2, "rb").read()


def test_csv_layout(tmp_path):
    cfg = _tiny_config()
    report = run_experiment(cfg)
    paths = emit_report(report, str(tmp_path / "out.json"))
    assert paths == [str(tmp_path / name) for name in ("out_L1.csv", "out_RMSE.csv", "out.json")]
    lines = open(paths[0]).read().strip().splitlines()
    assert len(lines) == 1 + len(cfg.targets)
    header = lines[0].split(",")
    assert header[0] == "target"
    assert len(header) == 1 + len(cfg.estimators) * len(cfg.rsnr)


def test_json_round_trip(tmp_path):
    cfg = _tiny_config()
    report = run_experiment(cfg)
    path = emit_report(report, str(tmp_path / "out"))[2]
    loaded = load_report(path)
    assert loaded.config == report.config
    for cell in report.cells:
        twin = loaded.cell(cell.target, cell.rsnr, cell.estimator)
        np.testing.assert_array_equal(twin.l1, cell.l1)
        np.testing.assert_array_equal(twin.rmse, cell.rmse)
        assert twin.seeds == cell.seeds
        assert twin.n_star == cell.n_star
    again = emit_report(loaded, str(tmp_path / "again"))[2]
    assert open(again, "rb").read() == open(path, "rb").read()
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    del payload["cells"][0]["epsilon"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with pytest.raises(TypeError, match="'epsilon'"):
        load_report(path)


def test_report_naming_a_frame_basis_is_refused(tmp_path):
    # a report whose frame group names the Jacobi exponents, as older reports
    # did, is refused by name: the basis is the model's
    path = emit_report(run_experiment(_tiny_config()), str(tmp_path / "out"))[2]
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["config"]["frame"] = {"alpha": 0.0, "beta": 1.0, **payload["config"]["frame"]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with pytest.raises(ValueError, match=r"^unknown frame config keys: \['alpha', 'beta'\]$"):
        load_report(path)


def test_seed_changes_results():
    r1 = run_experiment(_tiny_config(seed=1))
    r2 = run_experiment(_tiny_config(seed=2))
    c1 = r1.cell("heavisine", 5.0, "needd")
    c2 = r2.cell("heavisine", 5.0, "needd")
    assert not np.array_equal(c1.rmse, c2.rmse)


def test_projection_cells_carry_n_star():
    report = run_experiment(_tiny_config())
    proj = report.cell("heavisine", 5.0, "svd-proj")
    assert proj.n_star is not None and 0 <= proj.n_star <= 128
    assert report.cell("heavisine", 5.0, "needd").n_star is None


def _reference_projection_cell(cfg, cell, f_coeffs=None):
    """Direct cutoff sweep: every partial sum of every run on the grid."""
    model = wicksell_model(kmax=2 ** (cfg.frame.jmax + 1))
    n = cfg.n
    grid = np.arange(1, n + 1) / n
    e_vals = eval_e(model, model.kmax, grid)
    if f_coeffs is None:
        f = target_function(cell.target)
        f_coeffs = coeffs_from_function(model, f, model.kmax, target_breakpoints(cell.target))
        true_vals = f(grid)
    else:
        true_vals = f_coeffs @ e_vals
    tables = []
    for seed in cell.seeds:
        obs = sample_observation(model, f_coeffs, cell.epsilon, np.random.default_rng(seed))
        tables.append(np.cumsum((obs.y / model.b)[:, None] * e_vals, axis=0))
    score = sum(weighted_loss(true_vals, table, n, 2) for table in tables)
    n_star = int(np.argmin(score))
    l1 = np.array([weighted_loss(true_vals, t[n_star], n, 1) for t in tables])
    rmse = np.array([weighted_loss(true_vals, t[n_star], n, 2) for t in tables])
    return n_star, score, l1, rmse


@pytest.mark.parametrize("seed", [4242, 17, 90210])
def test_projection_sweep_matches_direct_reference(seed):
    cfg = _tiny_config(seed=seed, runs=4, estimators=("svd-proj",))
    cell = run_experiment(cfg).cell("heavisine", 5.0, "svd-proj")
    n_star, _, l1, rmse = _reference_projection_cell(cfg, cell)
    assert cell.n_star == n_star
    np.testing.assert_allclose(cell.l1, l1, rtol=1e-12, atol=0)
    np.testing.assert_allclose(cell.rmse, rmse, rtol=1e-12, atol=0)


def test_projection_sweep_noise_free_ties_to_smallest_cutoff():
    # every cutoff from the last nonzero coefficient on reconstructs the
    # target exactly, so the scores tie and the smallest of them must win
    cfg = _tiny_config(runs=2, epsilon_override=0.0, targets=("ramp",), estimators=("svd-proj",))
    coeffs = np.zeros(129)
    coeffs[:40] = np.linspace(1.0, 0.1, 40)
    cell = run_experiment(cfg, coefficient_targets={"ramp": coeffs}).cell("ramp", 5.0, "svd-proj")
    n_star, score, _, _ = _reference_projection_cell(cfg, cell, coeffs)
    assert np.all(score[39:] == score[39])
    assert n_star == 39
    assert cell.n_star == 39
    assert np.max(cell.rmse) < 1e-12 and np.max(cell.l1) < 1e-12


def test_empty_report_headers_only(tmp_path):
    cfg = _tiny_config()
    paths = emit_report(SimulationReport(cfg, ()), str(tmp_path / "empty"))
    for p in paths[:2]:
        lines = open(p).read().strip().splitlines()
        assert len(lines) == 1
    assert json.loads(open(paths[2]).read())["cells"] == []


def test_rate_study_validation(frame8, wicksell512):
    coeffs = np.zeros(513)
    coeffs[:32] = np.exp(-np.arange(32) / 4.0)
    with pytest.raises(ValueError):
        rate_study(wicksell512, frame8, coeffs, [0.1, 0.01, 0.001], runs=10)
    with pytest.raises(ValueError):
        rate_study(wicksell512, frame8, coeffs, [0.1, 0.03, 0.01, 0.003], runs=5)
    with pytest.raises(ValueError, match=r"every noise level must lie in \(0, 1\), got 1.5$"):
        rate_study(wicksell512, frame8, coeffs, [0.1, 0.03, 0.01, 1.5], runs=10)
    with pytest.raises(ValueError, match=r"lie in \(0, 1\), got nan$"):
        rate_study(wicksell512, frame8, coeffs, [0.1, math.nan, 0.01, 0.0], runs=10)


def test_rate_study_refuses_repeated_levels(frame8, wicksell512, monkeypatch):
    # a repeated level redraws the same seeded runs: the fit degenerated
    # (all equal) or reported a vanishing stderr (pairs), after every draw
    def no_draw(*args):
        raise AssertionError("drew runs before refusing the levels")

    monkeypatch.setattr("needlets.simlab._draw_runs", no_draw)
    coeffs = np.zeros(513)
    coeffs[:32] = np.exp(-np.arange(32) / 4.0)
    for eps, named in (([0.1] * 4, "0.1"), ([0.1, 0.1, 0.01, 0.01], "0.1, 0.01")):
        with pytest.raises(ValueError, match=f"^noise levels must be distinct, repeated: {named}$"):
            rate_study(wicksell512, frame8, coeffs, eps, runs=10)


def test_rate_study_smooth_target_slope(frame8, wicksell512):
    coeffs = np.zeros(513)
    coeffs[:32] = np.exp(-np.arange(32) / 4.0)
    study = rate_study(
        wicksell512,
        frame8,
        coeffs,
        [3e-2, 1e-2, 3e-3, 1e-3],
        runs=10,
    )
    assert study.slope > 0.0
    assert study.slope_stderr >= 0.0
    rmse = np.asarray(study.mean_rmse)
    assert rmse.shape == (4,)
    assert np.all(np.diff(rmse) < 0.0)



def _rate_target():
    coeffs = np.zeros(513)
    coeffs[:32] = np.exp(-np.arange(32) / 4.0)
    return coeffs


def test_rate_study_keys_runs_on_the_level_repr(frame8, wicksell512, monkeypatch):
    # levels that agree to 6 digits used to share the ':g' key and so every
    # seed; the default ladder keeps the ids, and so the runs, it had
    drawn = {}
    real = needlets.simlab._draw_runs

    def record(model, f_coeffs, epsilon, master_seed, runs, target_id, noise_id):
        seeds, obs = real(model, f_coeffs, epsilon, master_seed, runs, target_id, noise_id)
        drawn[epsilon] = (noise_id, seeds, obs.y)
        return seeds, obs

    monkeypatch.setattr(needlets.simlab, "_draw_runs", record)
    rate_study(wicksell512, frame8, _rate_target(), RATE_EPS_DEFAULT, runs=10)
    assert {e: ids[0] for e, ids in drawn.items()} == {e: f"eps={e:g}" for e in RATE_EPS_DEFAULT}

    drawn.clear()
    close = (1e-1, 1e-2, 1e-3, 1.0000001e-3)
    assert f"{close[2]:g}" == f"{close[3]:g}"
    rate_study(wicksell512, frame8, _rate_target(), close, runs=10)
    assert not set(drawn[close[2]][1]) & set(drawn[close[3]][1])
    assert not np.any(drawn[close[2]][2] == drawn[close[3]][2])


def test_rate_study_shuffled_ladder_matches_sorted(frame8, wicksell512):
    # the ladder is stacked by j_top whatever order it comes in
    eps = list(RATE_EPS_DEFAULT)
    np.random.default_rng(9).shuffle(eps)
    assert eps != sorted(eps) and eps != sorted(eps, reverse=True)
    ordered = rate_study(wicksell512, frame8, _rate_target(), RATE_EPS_DEFAULT, runs=10)
    shuffled = rate_study(wicksell512, frame8, _rate_target(), eps, runs=10)
    assert shuffled.eps == tuple(eps)
    means = dict(zip(shuffled.eps, shuffled.mean_rmse))
    for e, m in zip(ordered.eps, ordered.mean_rmse):
        assert abs(means[e] - m) <= 1e-12 * m
    assert abs(shuffled.slope - ordered.slope) <= 1e-12 * abs(ordered.slope)
    assert abs(shuffled.slope_stderr - ordered.slope_stderr) <= 1e-10 * ordered.slope_stderr


def test_rate_study_forms_one_grid_table_for_its_models(frame8, monkeypatch):
    models = (wicksell_model(512), direct_model(512))
    eps = (3e-2, 1e-2, 3e-3, 1e-3)
    singles = tuple(rate_study(m, frame8, _rate_target(), eps, runs=10) for m in models)
    calls = []
    real = needlets.simlab.eval_e

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(needlets.simlab, "eval_e", counted)
    assert rate_study(models, frame8, _rate_target(), eps, runs=10) == singles
    assert calls == [512]


@pytest.fixture(scope="module")
def frame4():
    return FrameSpec(jmax=4).build(wicksell_model(32).basis)


_LADDER_EPS = st.one_of(
    st.floats(sys.float_info.min, 1e-300),
    st.floats(1e-300, 0.5),
    st.floats(0.5, 1.0, exclude_max=True),
)


@settings(max_examples=25, deadline=None)
@given(eps=st.lists(_LADDER_EPS, min_size=4, max_size=6, unique=True))
@example(eps=[sys.float_info.min, 1e-300, 0.5, 1.0 - 2.0**-53])
@example(eps=[1.0 - 2.0**-53, 1.0 - 2.0**-52, 1.0 - 3 * 2.0**-53, 1.0 - 2.0**-51])
@example(eps=[2.0 * sys.float_info.min, sys.float_info.min, 3.0 * sys.float_info.min, 1e-307, 1e-306, 1e-305])
def test_rate_study_gives_finite_fits_or_typed_errors(frame4, eps):
    # whole rate studies near both ends of (0, 1), in any order, at kmax =
    # the frame budget: finite means and slopes, or a typed refusal; a
    # RuntimeWarning fails the test (see pyproject's filterwarnings)
    models = (wicksell_model(frame4.budget), direct_model(frame4.budget))
    coeffs = np.exp(-np.arange(frame4.exact_dim) / 4.0)
    try:
        studies = rate_study(models, frame4, coeffs, eps, runs=10)
    except (ValueError, InvariantError):
        return
    for study in studies:
        assert study.eps == tuple(eps)
        assert np.all(np.isfinite(study.mean_rmse)) and np.all(np.asarray(study.mean_rmse) > 0.0)
        assert math.isfinite(study.slope) and math.isfinite(study.slope_stderr)
