"""Command line interface: every subcommand plus the exit-code contract.

Exit codes: 0 success, 1 usage or input errors, 2 violated numerical
invariants. Tests call main() in-process; one smoke test goes through the
installed console script.
"""

import csv
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import needlets
import needlets.cli
import needlets.frame
from needlets import build_frame, forward, jacobi_basis, save_frame, wicksell_model
from needlets.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*args):
    return main(list(args))


def test_quad_dump(tmp_path, capsys):
    out = tmp_path / "rule.csv"
    assert run_cli("quad", "dump", "--alpha", "0", "--beta", "1", "--n", "5", "--out", str(out)) == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 5
    assert abs(sum(float(r["weight"]) for r in rows) - 1.0) < 1e-12


def test_quad_dump_stdout(capsys):
    assert run_cli("quad", "dump", "--alpha", "0", "--beta", "1", "--n", "1") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "index,node,weight"
    _, node, weight = lines[1].split(",")
    assert abs(float(node) - 1.0 / 3.0) < 1e-14
    assert abs(float(weight) - 1.0) < 1e-14


def test_quad_dump_rejects_infinite_exponent(capsys):
    assert run_cli("quad", "dump", "--alpha", "0", "--beta", "inf", "--n", "4") == 1
    assert "(0.0, inf)" in capsys.readouterr().err


def test_filter_plot(tmp_path):
    out = tmp_path / "filter.csv"
    assert run_cli("filter", "plot", "--m", "2", "--points", "501", "--out", str(out)) == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 501
    by_xi = {float(r["xi"]): float(r["a"]) for r in rows}
    assert abs(by_xi[0.75] - 1.0 / math.sqrt(2.0)) < 1e-12


def test_frame_build_check_render(tmp_path, capsys):
    frame_path = tmp_path / "f.ndlt"
    assert run_cli("frame", "build", "--jmax", "5", "--out", str(frame_path)) == 0
    assert frame_path.exists()
    capsys.readouterr()

    assert run_cli("frame", "check", str(frame_path)) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out

    render_path = tmp_path / "psi.csv"
    assert (
        run_cli(
            "frame", "render", "--frame", str(frame_path),
            "--j", "3", "--nu", "4", "--points", "200", "--out", str(render_path),
        )
        == 0
    )
    rows = list(csv.DictReader(open(render_path)))
    assert len(rows) == 200
    xs = [float(r["x"]) for r in rows]
    assert min(xs) >= -1.0 and max(xs) <= 1.0
    # loading is bit-exact: the saved frame renders as the frame built in memory
    built = needlets.FrameSpec(jmax=5).build(wicksell_model(64).basis)
    want = needlets.needlet_values(built, 3, 4, np.linspace(-1.0, 1.0, 200))
    assert [r["psi"] for r in rows] == [f"{v:.17g}" for v in want]


@pytest.mark.parametrize("flags", [["--jmax", "9"], ["--alpha", "5"], ["--m", "3"]])
def test_frame_render_reads_a_saved_frame_only(tmp_path, capsys, flags):
    # render reads a saved frame only: a build flag is an error, never ignored
    frame_path = tmp_path / "f.ndlt"
    assert run_cli("frame", "build", "--jmax", "2", "--out", str(frame_path)) == 0
    out = tmp_path / "psi.csv"
    render = ["frame", "render", "--j", "1", "--nu", "1", "--out", str(out)]
    assert run_cli(*render, "--frame", str(frame_path), *flags) == 1
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert run_cli(*render, *flags) == 1
    assert run_cli(*render) == 1
    assert "the following arguments are required: --frame" in capsys.readouterr().err
    assert not out.exists()


def test_frame_check_catches_inexact_quadrature(tmp_path, capsys):
    frame_path = tmp_path / "half.ndlt"
    assert (
        run_cli("frame", "build", "--jmax", "5", "--nodes-per-level", "paper", "--out", str(frame_path))
        == 0
    )
    capsys.readouterr()
    # halved node counts violate the gram identity: invariant exit code
    assert run_cli("frame", "check", str(frame_path)) == 2
    assert "FAIL" in capsys.readouterr().out


def test_frame_basis_is_jacobi_only(tmp_path, capsys):
    # there is no basis flag: --alpha/--beta pick the Jacobi exponents
    frame_path = tmp_path / "f.ndlt"
    assert run_cli("frame", "build", "--basis", "jacobi", "--jmax", "2", "--out", str(frame_path)) == 1
    assert run_cli("frame", "build", "--jmax", "2", "--out", str(frame_path)) == 0
    blob = bytearray(frame_path.read_bytes())
    blob[6] = 1  # basis code byte
    frame_path.write_bytes(bytes(blob))
    capsys.readouterr()
    assert run_cli("frame", "check", str(frame_path)) == 1
    assert "unknown basis code 1" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["exact", "paper"])
def test_frame_build_writes_the_saved_frame_bytes(tmp_path, filt, mode):
    # levels are built and written one at a time; the file is the one a
    # held frame saves
    out = tmp_path / "f.ndlt"
    assert run_cli("frame", "build", "--jmax", "8", "--nodes-per-level", mode, "--out", str(out)) == 0
    held = tmp_path / "held.ndlt"
    save_frame(build_frame(jacobi_basis(0.0, 1.0), filt, 8, mode), held)
    assert out.read_bytes() == held.read_bytes()


def test_frame_build_failure_leaves_out_untouched(tmp_path, capsys, monkeypatch):
    # a level failing its self-check ends the build with exit 2; the levels
    # already written go with their temporary file
    real = needlets.frame._Gram.defect

    def fail_level_3(gram, a):
        return 1.0 if gram.n == 11 else real(gram, a)  # level 3 holds 11 frequencies

    monkeypatch.setattr(needlets.frame._Gram, "defect", fail_level_3)
    out = tmp_path / "f.ndlt"
    assert run_cli("frame", "build", "--jmax", "5", "--out", str(out)) == 2
    assert "self-check failed at level 3" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    out.write_bytes(b"an earlier frame")
    assert run_cli("frame", "build", "--jmax", "5", "--out", str(out)) == 2
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_bytes() == b"an earlier frame"


def test_frame_build_refuses_jmax_above_max(tmp_path, capsys, monkeypatch):
    # the refusal comes before any level is built or written
    def never(*args, **kwargs):
        raise AssertionError("a level was asked for")

    monkeypatch.setattr(needlets.cli, "frame_levels", never)
    monkeypatch.setattr(needlets.cli, "write_levels", never)
    out = tmp_path / "f.ndlt"
    jmax = needlets.MAX_JMAX + 1
    assert run_cli("frame", "build", "--jmax", str(jmax), "--out", str(out)) == 1
    assert f"j_max must be <= {needlets.MAX_JMAX}, got {jmax}" in capsys.readouterr().err
    assert not out.exists()


def test_model_dump(capsys):
    assert run_cli("model", "dump", "--kind", "wicksell", "--kmax", "3") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,b"
    assert abs(float(lines[1].split(",")[1]) - math.pi / 16.0) < 1e-15
    assert abs(float(lines[4].split(",")[1]) - math.pi / 32.0) < 1e-15


def _write_observation(path, epsilon=0.0, kmax=512, seed=3):
    model = wicksell_model(kmax)
    rng = np.random.default_rng(seed)
    c = np.zeros(kmax + 1)
    c[:30] = rng.standard_normal(30)
    y = forward(model, c) + epsilon * rng.standard_normal(kmax + 1)
    with open(path, "w") as fh:
        fh.write("k,y\n")
        for k, v in enumerate(y):
            fh.write(f"{k},{float(v)!r}\n")
    return c


def _point_commands(tmp_path, points):
    """Each command with a --points flag, writing to tmp_path / "out.csv"; the
    estimate command renders one observation file."""
    obs_path = tmp_path / "obs.csv"
    _write_observation(obs_path, kmax=64)
    frame_path = str(tmp_path / "f.ndlt")
    assert run_cli("frame", "build", "--jmax", "2", "--out", frame_path) == 0
    out = str(tmp_path / "out.csv")
    return {
        "estimate --render": [
            "estimate", "--input", str(obs_path), "--method", "svd-proj", "--epsilon", "0.001",
            "--out", str(tmp_path / "fhat.csv"), "--render", out, "--points", points,
        ],
        "frame render": [
            "frame", "render", "--frame", frame_path, "--j", "1", "--nu", "1", "--points", points, "--out", out,
        ],
        "filter plot": ["filter", "plot", "--points", points, "--out", out],
    }


@pytest.mark.parametrize("command", ["estimate --render", "frame render", "filter plot"])
@pytest.mark.parametrize("points", ["0", "-2"])
def test_point_count_below_one_is_refused_at_parse_time(tmp_path, capsys, command, points):
    argv = _point_commands(tmp_path, points)[command]
    assert run_cli(*argv) == 1
    assert f"argument --points: expected a whole number >= 1, got {points}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "fhat.csv").exists()


@pytest.mark.parametrize("command", ["estimate --render", "frame render", "filter plot"])
def test_one_point_is_a_one_row_table(tmp_path, command):
    assert run_cli(*_point_commands(tmp_path, "1")[command]) == 0
    rows = list(csv.reader(open(tmp_path / "out.csv")))
    assert len(rows) == 2 and all(math.isfinite(float(v)) for v in rows[1])


@pytest.mark.parametrize("method", ["svd-proj", "svd-adapt", "needd"])
def test_estimate_methods(tmp_path, method):
    obs_path = tmp_path / "obs.csv"
    _write_observation(obs_path, epsilon=0.001)
    frame_path = tmp_path / "f.ndlt"
    assert run_cli("frame", "build", "--jmax", "8", "--out", str(frame_path)) == 0
    out = tmp_path / "fhat.csv"
    args = [
        "estimate", "--model", "wicksell", "--input", str(obs_path),
        "--method", method, "--epsilon", "0.001", "--out", str(out),
    ]
    if method == "needd":
        args += ["--frame", str(frame_path)]
    if method == "svd-proj":
        args += ["--n-keep", "40"]
    assert run_cli(*args) == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 513
    vals = np.array([float(r["fhat"]) for r in rows])
    assert np.isfinite(vals).all() and np.abs(vals[:30]).max() > 0.1


def test_estimate_direct_needd_at_tiny_epsilon(tmp_path, capsys):
    # the top level is taken in log space: at 1e-200 the power
    # t_eps^{-2/(1+2nu)} overflowed with nu = 0; below the smallest normal
    # float 1/epsilon overflows, which is refused by name
    obs_path = tmp_path / "obs.csv"
    _write_observation(obs_path, kmax=63)
    frame_path = tmp_path / "f.ndlt"
    assert run_cli("frame", "build", "--jmax", "4", "--out", str(frame_path)) == 0
    out = tmp_path / "fhat.csv"
    args = ["estimate", "--model", "direct", "--method", "needd", "--frame", str(frame_path),
            "--input", str(obs_path), "--out", str(out), "--epsilon"]
    assert run_cli(*args, "1e-200") == 0
    vals = np.array([float(r["fhat"]) for r in csv.DictReader(open(out))])
    assert vals.shape == (64,) and np.isfinite(vals).all()
    capsys.readouterr()
    for eps in ("1e-310", "5e-324"):
        assert run_cli(*args, eps) == 1
        assert f"epsilon must be 0 or in [2.2250738585072014e-308, 1), got {eps}" in capsys.readouterr().err


def test_estimate_adaptive_zero_noise_is_capped_projection(tmp_path):
    # the zero-noise limit of the blockwise filter keeps every index up to
    # the n/2 cap: at --grid-n 1024 that is index 512, the whole observation
    y = forward(wicksell_model(512), 1.0 / (1.0 + np.arange(513)) ** 1.5)
    obs_path = tmp_path / "obs.csv"
    obs_path.write_text("k,y\n" + "".join(f"{k},{float(v)!r}\n" for k, v in enumerate(y)))

    def estimate(name, *method):
        out = tmp_path / f"{name}.csv"
        assert run_cli("estimate", "--input", str(obs_path), "--epsilon", "0",
                       "--out", str(out), "--method", *method) == 0
        return out.read_bytes()

    adapt = estimate("adapt", "svd-adapt", "--grid-n", "1024")
    assert adapt == estimate("proj512", "svd-proj", "--n-keep", "512")
    assert adapt != estimate("proj256", "svd-proj", "--n-keep", "256")


def test_estimate_needd_requires_frame(tmp_path):
    obs_path = tmp_path / "obs.csv"
    _write_observation(obs_path)
    assert (
        run_cli(
            "estimate", "--model", "wicksell", "--input", str(obs_path),
            "--method", "needd", "--epsilon", "0.001", "--out", str(tmp_path / "o.csv"),
        )
        == 1
    )


@pytest.mark.parametrize("method, flags, named", [
    # the frame file was never opened, so a missing one went unnoticed
    ("svd-proj", ["--kappa", "7", "--gamma", "3", "--grid-n", "5", "--frame", "absent.bin"],
     "--frame, --kappa, --gamma, --grid-n"),
    ("svd-adapt", ["--n-keep", "4"], "--n-keep"),
    ("svd-adapt", ["--kappa", "7"], "--kappa"),
    ("needd", ["--frame", "absent.bin", "--grid-n", "5", "--n-keep", "4"], "--n-keep, --grid-n"),
    ("needd", ["--frame", "absent.bin", "--gamma", "0.2"], "--gamma"),
])
def test_estimate_refuses_another_methods_flags(tmp_path, capsys, method, flags, named):
    obs_path = tmp_path / "obs.csv"
    _write_observation(obs_path, kmax=64)
    out = tmp_path / "fhat.csv"
    argv = ["estimate", "--input", str(obs_path), "--method", method, "--epsilon", "0.01", "--out", str(out)]
    assert run_cli(*argv, *flags) == 1
    assert capsys.readouterr().err == f"error: --method {method} takes no {named}\n"
    assert not out.exists()


def test_estimate_needd_names_a_frame_larger_than_the_input(tmp_path, capsys):
    # the model is built at the observation's length, so a frame whose
    # budget is larger used to fail naming singular values never supplied
    obs_path = tmp_path / "obs.csv"
    _write_observation(obs_path, kmax=63)
    frame_path = tmp_path / "f.ndlt"
    assert run_cli("frame", "build", "--jmax", "6", "--out", str(frame_path)) == 0
    capsys.readouterr()
    out = tmp_path / "fhat.csv"
    assert run_cli(
        "estimate", "--input", str(obs_path), "--method", "needd", "--frame", str(frame_path),
        "--epsilon", "0.01", "--out", str(out),
    ) == 1
    want = f"error: {obs_path} holds 64 coefficients, but frame {frame_path} (j_max 6) needs 128\n"
    assert capsys.readouterr().err == want
    assert not out.exists()


def test_estimate_reads_a_file_that_opens_with_a_byte_order_mark(tmp_path):
    # the mark made row 0 look like a header, so it was dropped and the
    # indices no longer covered 0..kmax
    rows = "".join(f"{k},{0.1 / (1 + k)!r}\n" for k in range(64))
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(rows, encoding="utf-8")
    marked.write_text(rows, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf0,0.1")

    def estimate(path):
        out = tmp_path / f"{path.stem}.out"
        assert run_cli("estimate", "--input", str(path), "--method", "svd-proj",
                       "--epsilon", "0.01", "--out", str(out)) == 0
        return out.read_bytes()

    assert estimate(marked) == estimate(plain)


def test_estimate_rejects_gappy_input(tmp_path):
    obs_path = tmp_path / "obs.csv"
    with open(obs_path, "w") as fh:
        fh.write("k,y\n0,1.0\n2,0.5\n")
    assert (
        run_cli(
            "estimate", "--model", "wicksell", "--input", str(obs_path),
            "--method", "svd-proj", "--epsilon", "0.01", "--n-keep", "1",
            "--out", str(obs_path) + ".out",
        )
        == 1
    )


@pytest.mark.parametrize("bad", ["1", "1,0.5,7", "x,0.5"])
def test_estimate_rejects_malformed_row(tmp_path, capsys, bad):
    # only the first row may be a header; a later row that is not k,y is
    # refused by line, not read in part, skipped or left to an IndexError
    obs_path = tmp_path / "obs.csv"
    obs_path.write_text(f"k,y\n0,1.0\n\n{bad}\n2,0.5\n")
    assert run_cli(
        "estimate", "--input", str(obs_path), "--method", "svd-proj", "--epsilon", "0.01",
        "--n-keep", "1", "--out", str(tmp_path / "o.csv"),
    ) == 1
    assert capsys.readouterr().err == f"error: {obs_path} line 4: expected 'k,y', got {bad!r}\n"


def test_estimate_refuses_a_malformed_first_row(tmp_path, capsys):
    # a first row that opens with an index is data, not a header to drop
    obs_path = tmp_path / "obs.csv"
    obs_path.write_text("0,1.0e\n1,0.5\n")
    assert run_cli(
        "estimate", "--input", str(obs_path), "--method", "svd-proj", "--epsilon", "0.01",
        "--out", str(tmp_path / "o.csv"),
    ) == 1
    assert capsys.readouterr().err == f"error: {obs_path} line 1: expected 'k,y', got '0,1.0e'\n"


def test_estimate_missing_file(tmp_path):
    assert (
        run_cli(
            "estimate", "--model", "wicksell", "--input", str(tmp_path / "absent.csv"),
            "--method", "svd-proj", "--epsilon", "0.01", "--out", str(tmp_path / "o.csv"),
        )
        == 1
    )


def _table_case(command, tmp_path):
    """argv, output file (None: stdout), header and the API's rows of one table command."""
    if command == "quad dump":
        rule = needlets.gauss_jacobi_rule(jacobi_basis(0, 1), 7)
        argv = ["quad", "dump", "--alpha", "0", "--beta", "1", "--n", "7"]
        return argv, None, ["index", "node", "weight"], zip(range(7), rule.nodes, rule.weights)
    if command == "filter plot":
        xi = np.linspace(0.0, 2.5, 37)
        argv = ["filter", "plot", "--m", "3", "--points", "37", "--out", str(tmp_path / "a.csv")]
        return argv, tmp_path / "a.csv", ["xi", "a"], zip(xi, needlets.filter_a(needlets.FrameSpec(m=3).filt, xi))
    if command == "model dump":
        argv = ["model", "dump", "--kind", "direct", "--kmax", "9"]
        return argv, None, ["k", "b"], enumerate(needlets.direct_model(9).b)
    if command == "rates":
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"frame": {"jmax": 5}, "runs": 10, "n": 256}))
        eps = [3e-2, 1e-2, 3e-3, 1e-3]
        config = needlets.load_config(cfg_path, needlets.RatesConfig)
        models = [make(config.frame.budget) for make in needlets.cli.MODELS.values()]
        studies = needlets.rate_study(
            models, config.frame.build(models[0].basis), config.target, eps, config.runs,
            n=config.n, kappa=config.needd.kappa, master_seed=config.seed,
        )
        argv = ["rates", "--config", str(cfg_path), "--out", str(tmp_path / "rates.csv")]
        argv += [a for e in eps for a in ("--eps", repr(e))]
        rows = [
            [m.kind, e, r, s.slope, s.slope_stderr]
            for m, s in zip(models, studies)
            for e, r in zip(s.eps, s.mean_rmse)
        ]
        return argv, tmp_path / "rates.csv", ["model", "eps", "mean_rmse", "slope", "slope_stderr"], rows
    # estimate, whose --render table is written beside the coefficients
    obs_path = tmp_path / "obs.csv"
    _write_observation(obs_path, epsilon=0.001, kmax=64)
    y = np.array([float(r["y"]) for r in csv.DictReader(open(obs_path))])
    model = wicksell_model(64)
    fhat = needlets.svd_projection(model, needlets.SequenceObservation(y, 0.001), 20)
    argv = [
        "estimate", "--input", str(obs_path), "--method", "svd-proj", "--epsilon", "0.001",
        "--n-keep", "20", "--out", str(tmp_path / "fhat.csv"), "--render", str(tmp_path / "render.csv"),
        "--points", "16",
    ]
    if command == "estimate":
        return argv, tmp_path / "fhat.csv", ["i", "fhat"], enumerate(fhat)
    x = np.arange(1, 17) / 16
    return argv, tmp_path / "render.csv", ["x", "fhat"], zip(x, fhat @ needlets.eval_e(model, 64, x))


# frame render is pinned the same way by test_frame_build_check_render
@pytest.mark.parametrize(
    "command", ["quad dump", "filter plot", "model dump", "estimate", "estimate --render", "rates"]
)
def test_table_cells_are_plain_ints_and_17_digit_floats(tmp_path, capsys, command):
    # every float cell reads back to the API's float; indices stay integers
    argv, out, header, want = _table_case(command, tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == 0
    text = capsys.readouterr().out if out is None else out.read_text(encoding="utf-8")
    rows = list(csv.reader(text.splitlines()))
    want = [list(row) for row in want]
    assert rows[0] == header and len(rows) == len(want) + 1
    for row, values in zip(rows[1:], want):
        for cell, value in zip(row, values, strict=True):
            if isinstance(value, float):  # numpy float64 too
                assert cell == f"{value:.17g}"
            elif isinstance(value, int):
                assert cell == str(value) and cell.isdigit()
            else:
                assert cell == value


def test_simulate_and_rates(tmp_path):
    cfg = {
        "targets": ["heavisine"],
        "rsnr": [5.0],
        "n": 256,
        "runs": 2,
        "estimators": ["needd"],
        "seed": 7,
        "frame": {"jmax": 6, "m": 2, "nodes-per-level": "exact"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path / "sim")) == 0
    assert (tmp_path / "sim_L1.csv").exists()
    assert (tmp_path / "sim_RMSE.csv").exists()
    assert (tmp_path / "sim.json").exists()

    bad = dict(cfg)
    bad["runs"] = 0
    cfg_path.write_text(json.dumps(bad))
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x")) == 1


@pytest.mark.parametrize("command", ["simulate", "rates"])
def test_config_that_is_not_json_exits_1(tmp_path, capsys, command):
    # json.JSONDecodeError is a ValueError, so main reports it as an input error
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"runs": 10,}')
    assert run_cli(command, "--config", str(cfg_path), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Expecting property name enclosed in double quotes")
    assert err.endswith(f" in config {cfg_path}\n")


def test_simulate_reads_a_config_that_opens_with_a_byte_order_mark(tmp_path):
    # the mark made the config exit 1 with "Unexpected UTF-8 BOM"
    text = '{"runs": 2, "estimators": ["svd-proj"]}'
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())

    def simulate(path):
        assert run_cli("simulate", "--config", str(path), "--out", str(tmp_path / path.stem)) == 0
        return [(tmp_path / f"{path.stem}{suffix}").read_bytes() for suffix in ("_L1.csv", "_RMSE.csv")]

    assert simulate(marked) == simulate(plain)


@pytest.mark.parametrize("key", ["alpha", "beta"])
def test_simulate_refuses_a_frame_basis(tmp_path, capsys, key):
    # the basis is the model's: naming one is refused even when no frame is built
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"frame": {key: 0.5}, "estimators": ["svd-proj"]}))
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path / "sim")) == 1
    assert capsys.readouterr().err == f"error: unknown frame config keys: ['{key}']\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_simulate_refuses_an_adaptive_log_base(tmp_path, capsys):
    # the adaptive filter's logs are natural: a log base, even e, is an unknown key
    cfg = {"adaptive": {"gamma": 0.1, "logbase": math.e}, "runs": 1, "targets": ["blocks"],
           "rsnr": [5], "estimators": ["svd-adapt"], "n": 256, "frame": {"jmax": 6}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path / "sim")) == 1
    assert capsys.readouterr().err == "error: unknown adaptive config keys: ['logbase']\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_simulate_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    # an array too large to allocate (say at {"n": 100000000}) is a
    # configuration error; the stand-in raises without allocating anything
    message = "Unable to allocate 382. GiB for an array with shape (513, 100000000)"

    def out_of_memory(config):
        raise MemoryError(message)

    monkeypatch.setattr("needlets.cli.run_experiment", out_of_memory)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{}")
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path / "sim")) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_rates_refuses_repeated_levels(tmp_path, capsys):
    # four equal levels used to run the whole study and then exit 2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"frame": {"jmax": 5}}))
    out = tmp_path / "rates.csv"
    assert run_cli("rates", "--config", str(cfg_path), *["--eps", "0.1"] * 4, "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: noise levels must be distinct, repeated: 0.1\n"


def test_rates_refuses_a_bad_ladder_before_building_the_frame(tmp_path, capsys, monkeypatch):
    # at jmax 10 the frame and both schedules took 0.65 s before the
    # repeated levels were refused
    def never(*args, **kwargs):
        raise AssertionError("the frame was built")

    monkeypatch.setattr(needlets.simlab.FrameSpec, "build", never)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"frame": {"jmax": 10}}))
    out = tmp_path / "rates.csv"
    assert run_cli("rates", "--config", str(cfg_path), *["--eps", "0.1"] * 4, "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: noise levels must be distinct, repeated: 0.1\n"
    assert not out.exists()


def test_rates_names_a_level_outside_0_1(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"frame": {"jmax": 5}}))
    levels = [arg for e in ("0.1", "0.01", "1.5", "nan") for arg in ("--eps", e)]
    assert run_cli("rates", "--config", str(cfg_path), *levels, "--out", str(tmp_path / "r.csv")) == 1
    assert capsys.readouterr().err == f"error: every noise level must be in [{sys.float_info.min}, 1), got 1.5\n"


def test_rates_smoke(tmp_path, capsys):
    cfg = {
        "n": 1024,
        "runs": 10,
        "seed": 11,
        "frame": {"jmax": 8, "m": 2, "nodes-per-level": "exact"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "rates.csv"
    rc = run_cli(
        "rates", "--config", str(cfg_path),
        "--eps", "3e-2", "--eps", "1e-2", "--eps", "3e-3", "--eps", "1e-3",
        "--out", str(out),
    )
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    kinds = {r["model"] for r in rows}
    assert kinds == {"wicksell", "direct"}
    slopes = {r["model"]: float(r["slope"]) for r in rows}
    assert slopes["direct"] > slopes["wicksell"] > 0.0
    # one line per model with its fitted slope, and no theory exponent
    firsts = rows[:: len(rows) // 2]
    assert capsys.readouterr().out.splitlines() == [
        f"{r['model']}: slope={float(r['slope']):.4f} (stderr {float(r['slope_stderr']):.4f})"
        for r in firsts
    ]


@pytest.mark.parametrize("key, value", [
    ("targets", ["blocks"]),
    ("rsnr", [99]),
    ("estimators", ["svd-proj"]),
    ("adaptive", {"gamma": 0.2}),
    ("epsilon-override", 0.5),
])
def test_rates_refuses_the_keys_it_does_not_read(tmp_path, capsys, key, value):
    # its target and noise ladder are fixed: such a config used to write the
    # default rates.csv
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"frame": {"jmax": 5}, key: value}))
    out = tmp_path / "rates.csv"
    assert run_cli("rates", "--config", str(cfg_path), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: unknown config keys: ['{key}']\n"
    assert not out.exists()


def test_rates_is_deterministic(tmp_path, capsys):
    # criterion 12 covers simulate: two rates runs of the default ladder in
    # one process write the same bytes
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"frame": {"jmax": 8}, "runs": 10}))
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert run_cli("rates", "--config", str(cfg_path), "--out", str(out)) == 0
    first, second = (out.read_bytes() for out in outs)
    assert first == second
    assert len(first.decode("utf-8").splitlines()) == 1 + 2 * len(needlets.cli.RATE_EPS_DEFAULT)


def test_unknown_subcommand():
    assert run_cli("transmogrify") == 1


def test_console_script_installed():
    r = subprocess.run(
        [sys.executable, "-m", "needlets", "model", "dump", "--kind", "direct", "--kmax", "2"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert r.stdout.strip().splitlines()[1] == "0,1"


def _readme_usage_lines():
    """Every `needlets ...` command of the README's command-line block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [
        line.strip()
        for line in block.replace("\\\n", " ").splitlines()
        if line.strip().startswith("needlets ")
    ]


def test_readme_usage_lines_parse():
    lines = _readme_usage_lines()
    assert len(lines) >= 8
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README usage line does not parse: {line}")


def test_simulate_tables_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the cell scoring multiplies each cell's estimators as one stack; its
    # rows, and so the CSV tables, keep their bytes at 1 and 2 BLAS threads.
    # The variable acts only if set before numpy loads, so each count runs
    # in its own process. sim.json may still differ in its last digits
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    tables = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=str(Path(needlets.__file__).resolve().parents[1]),
        )
        stem = tmp_path / f"sim{threads}"
        r = subprocess.run(
            [sys.executable, "-m", "needlets", "simulate", "--config", str(cfg), "--out", str(stem)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert r.returncode == 0, r.stderr
        tables.append([Path(f"{stem}_{loss}.csv").read_bytes() for loss in ("L1", "RMSE")])
    assert tables[0] == tables[1]


def test_runtime_imports_no_scipy():
    # scipy is a test oracle only; the command line must start without it
    env = dict(os.environ, PYTHONPATH=str(Path(needlets.__file__).resolve().parents[1]))
    code = "import sys, needlets.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_frame_commands_load_no_random_or_openssl(tmp_path):
    # numpy.random loads OpenSSL's libcrypto (through secrets and hmac), as
    # hashlib does, and numpy.polynomial serves the panel quadrature: frame
    # build and check use none of them, and simulate loads them when it draws
    code = """if True:
        import json, sys
        from needlets import cli

        def loaded():
            return [m for m in ("numpy.random", "hashlib", "_hashlib", "numpy.polynomial") if m in sys.modules]

        assert cli.main(["frame", "build", "--jmax", "3", "--out", "f.ndlt"]) == 0
        assert cli.main(["frame", "check", "f.ndlt"]) == 0
        after_frame = loaded()
        with open("cfg.json", "w") as fh:
            json.dump({"targets": ["blocks"], "rsnr": [5], "runs": 1, "n": 64, "frame": {"jmax": 3}}, fh)
        assert cli.main(["simulate", "--config", "cfg.json", "--out", "sim"]) == 0
        print(after_frame, loaded())
    """
    env = dict(os.environ, PYTHONPATH=str(Path(needlets.__file__).resolve().parents[1]))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[] ['numpy.random', 'hashlib', '_hashlib', 'numpy.polynomial']"
