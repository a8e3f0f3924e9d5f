"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py

They run real workers on small ops, so they take a few seconds each.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import tracing
from workloads import DEFAULT_SEED, WORKLOADS, RatesJ10

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _worker_environment(monkeypatch):
    for key, value in run.worker_env().items():
        monkeypatch.setenv(key, value)
    monkeypatch.syspath_prepend(str(ROOT / "src"))


class QuadDump:
    """A cheap op that still crosses a traced layer (the Gauss-Jacobi rule)."""

    name = "quad-dump"
    outputs = ("q.csv",)

    def inputs(self, seed):
        return {}

    def argv(self):
        return [["quad", "dump", "--alpha", "0", "--beta", "1", "--n", "8", "--out", "q.csv"]]

    def check(self, op_dir, seed, state):
        return None if (op_dir / "q.csv").stat().st_size > 0 else "empty output"


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert bench["run_seconds"] == run.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in tracing.per_layer_metrics()
    ]


def test_untraced_ops_see_no_wrappers():
    _, ops = run.measure(QuadDump(), DEFAULT_SEED, 0, trace=True)
    untraced, traced = ops
    assert not untraced["traced"] and untraced["problem"] is None
    assert untraced["wrapped_before"] == untraced["wrapped_after"] == 0
    assert untraced["spans"] == []
    assert traced["traced"] and traced["problem"] is None
    assert traced["wrapped_after"] == 0
    names = {span[0] for span in traced["spans"]}
    assert {"cli.main", "jacobi.gauss_jacobi_rule"} <= names


def test_tracer_rebinds_every_import_and_restores_it():
    import needlets
    from needlets import estimators, frame, simlab

    original = frame.analyze
    tracer = tracing.Tracer(op_id=0)
    tracer.install()
    try:
        assert tracing.count_wrapped() > 0
        assert estimators.analyze is frame.analyze is needlets.analyze is not original
        assert simlab.build_frame is frame.build_frame
    finally:
        tracer.remove()
    assert tracing.count_wrapped() == 0
    assert estimators.analyze is frame.analyze is needlets.analyze is original


def test_self_time_subtracts_child_spans():
    spans = [
        ["a", 0.0, 10.0, -1, 0, None],
        ["b", 1.0, 3.0, 0, 0, None],
        ["c", 4.0, 6.0, 0, 0, None],
        ["d", 4.5, 5.0, 2, 0, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.5, 0.5])


def test_corrupted_output_counts_as_failed(monkeypatch):
    real_spawn = run.spawn_worker

    def spawn_and_corrupt(op_dir, env):
        result = real_spawn(op_dir, env)
        table = op_dir / "rates.csv"
        lines = table.read_text(encoding="utf-8").splitlines()
        fields = lines[1].split(",")
        fields[3] = "nan"  # the slope column
        lines[1] = ",".join(fields)
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return result

    monkeypatch.setattr(run, "spawn_worker", spawn_and_corrupt)
    wl = RatesJ10()
    _, ops = run.measure(wl, DEFAULT_SEED, 0, trace=False)
    summary = run.summarize(wl, ops, trace=False)
    assert summary["attempted"] == 1 and summary["failed"] == 1
    assert summary["failed_frac"] == 1.0
    assert "non-finite" in summary["problems"][0]
    assert summary["metrics"] == {}


def test_corrupted_frame_fails_its_check(tmp_path):
    import numpy as np
    from needlets import build_frame, jacobi_basis, make_filter, make_profile
    from needlets.frameio import save_frame

    import workloads

    filt = make_filter(make_profile("polynomial-shape", 2))
    frame = build_frame(jacobi_basis(0.0, 1.0), filt, workloads.FRAME_JMAX)
    path = tmp_path / "frame.bin"
    save_frame(frame, path)
    assert workloads.check_frame_file(path) is None

    top = frame.levels[-1].psi
    data = bytearray(path.read_bytes())
    # the top level's psi is the last block of the container
    psi = np.frombuffer(data, dtype="<f8", offset=len(data) - top.nbytes).reshape(top.shape)
    for scale, verdict in ((1e-15, None), (1e-9, "psi")):
        psi[:] = top * (1.0 + scale)
        path.write_bytes(bytes(data))
        problem = workloads.check_frame_file(path)
        assert problem is None if verdict is None else verdict in problem


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_only_the_config_seed(name):
    wl = WORKLOADS[name]
    a, b = wl.inputs(1), wl.inputs(2)
    assert a.keys() == b.keys()
    for fname in a:
        ca, cb = json.loads(a[fname]), json.loads(b[fname])
        assert (ca.pop("seed"), cb.pop("seed")) == (1, 2)
        assert ca == cb


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "simulate", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
