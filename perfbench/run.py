"""Benchmark of the `needlets` command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S [--trace 1] [--save OUT.json]
    python3 perfbench/run.py --compare NEW.json OLD.json

Run from the root of a checkout; the package is imported from `src/`. Each op
runs in a fresh worker process (`worker.py`), one op at a time (closed loop,
one client), until `--seconds` have passed. Every op's output is checked
(`workloads.py`); an op fails if it exits nonzero, raises, or fails its check.

With `--trace 0` the last line of stdout is a JSON object whose metrics are
the end-to-end ones: median op wall time, median worker set-up time (importing
`needlets` and writing the generated inputs), median worker peak RSS, median
bytes the op wrote, and the share of ops that passed their checks. Quartiles,
sample counts and the failure fraction are printed above it.

With `--trace 1` ops alternate between untraced and traced workers, and the
metrics are the per-layer ones: per-op self time, call and work counts of each
wrapped public function (see `tracing.py`), and the tracing overhead (median
traced minus median untraced op wall time).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracing
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
# one BLAS thread per worker, pinned to one CPU (see worker.pin_to_one_cpu)
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 60  # ops take under 10 s; a run must end within 180 s
RUN_SECONDS = 36  # as in BENCHMARK.json

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_bytes", "bytes"),
    ("ok_frac", "ratio"),
)


def worker_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def environment(env: dict) -> dict:
    """The workers' environment record; the call also compiles and caches the package."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--env"], cwd=WORK, env=env,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(proc.stdout)


def check_op(wl, result: dict, op_dir: Path, seed: int, state: dict) -> str | None:
    """The first reason the op failed, or None."""
    if result["error"]:
        return result["error"].strip().splitlines()[-1]
    if any(code != 0 for code in result["codes"]) or len(result["codes"]) != len(wl.argv()):
        return f"exit codes {result['codes']}"
    if result["wrapped_before"] or result["wrapped_after"]:
        return "tracing wrappers present outside the traced op"
    try:
        return wl.check(op_dir, seed, state)
    except Exception as exc:  # a malformed output is a failed op, not a crash
        return f"output check raised {type(exc).__name__}: {exc}"


def spawn_worker(op_dir: Path, env: dict) -> dict:
    """Run the worker on `op_dir/spec.json`; its result, or a record of why there is none."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "spec.json"],
            cwd=op_dir, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"problem": "worker timed out"}
    result_path = op_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"problem": f"worker exited {proc.returncode}: {tail[0]}"}
    return json.loads(result_path.read_text(encoding="utf-8"))


def run_op(wl, seed: int, op_id: int, traced: bool, env: dict, state: dict) -> dict:
    """Run one op in a fresh worker and check its output."""
    op_dir = WORK / f"op{op_id}"
    op_dir.mkdir()
    spec = {
        "op_id": op_id,
        "trace": traced,
        "inputs": wl.inputs(seed),
        "argv": wl.argv(),
        "outputs": list(wl.outputs),
    }
    (op_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    try:
        result = spawn_worker(op_dir, env)
        if "problem" not in result:
            result["problem"] = check_op(wl, result, op_dir, seed, state)
        result.update(op_id=op_id, traced=traced)
        return result
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)


def measure(wl, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict]]:
    """Closed loop of ops for `seconds`; with trace, every second op is traced.

    Returns the environment record and one result per op.
    """
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    env = worker_env()
    ops: list[dict] = []
    state: dict = {}
    try:
        record = environment(env)
        start = time.perf_counter()
        while True:
            op_id = len(ops)
            ops.append(run_op(wl, seed, op_id, trace and op_id % 2 == 1, env, state))
            if time.perf_counter() - start >= seconds and len(ops) >= (2 if trace else 1):
                break
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return record, ops


def stats(values: list[float]) -> dict:
    """Median, quartiles, count, and the highest percentile with >= 10 samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    for pct in (99, 95, 90, 75, 50):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


def summarize(wl, ops: list[dict], trace: bool) -> dict:
    untraced = [o for o in ops if not o["traced"]]
    traced = [o for o in ops if o["traced"]]
    good = [o for o in untraced if o["problem"] is None]
    good_traced = [o for o in traced if o["problem"] is None]
    failed = sum(o["problem"] is not None for o in ops)
    summary = {
        "workload": wl.name,
        "attempted": len(ops),
        "failed": failed,
        "failed_frac": failed / len(ops),
        "problems": sorted({o["problem"] for o in ops if o["problem"]}),
        "stats": {},
        "metrics": {},
    }
    if not good or (trace and not good_traced):
        return summary
    for name, unit in END_TO_END:
        if name == "ok_frac":
            summary["stats"][name] = {"n": len(untraced), "median": len(good) / len(untraced)}
        else:
            summary["stats"][name] = stats([o[name] for o in good])
        summary["stats"][name]["unit"] = unit
    if not trace:
        summary["metrics"] = {
            name: {"value": summary["stats"][name]["median"], "unit": unit}
            for name, unit in END_TO_END
        }
        return summary

    per_op = []
    for o in good_traced:
        agg = defaultdict(float)
        for span, self_s in zip(o["spans"], tracing.self_times(o["spans"])):
            agg[f"{span[0]}.self_s"] += self_s
            agg[f"{span[0]}.calls"] += 1
            for key, value in (span[5] or {}).items():
                agg[f"{span[0]}.{key}"] += value
        per_op.append(agg)
    summary["per_op_self_s"] = {
        k: statistics.median(a[k] for a in per_op)
        for k in sorted({k for a in per_op for k in a if k.endswith(".self_s")})
    }
    overhead = statistics.median(o["wall_s"] for o in good_traced) - summary["stats"]["wall_s"]["median"]
    for name, unit, _ in tracing.per_layer_metrics():
        if name == tracing.OVERHEAD_METRIC[0]:
            value = overhead
        elif name.endswith(".useful_psi_frac"):
            base = name[: -len("useful_psi_frac")]
            total = sum(a[base + "psi_bytes"] for a in per_op)
            value = sum(a[base + "useful_psi_bytes"] for a in per_op) / total if total else 0.0
        else:
            value = statistics.median(a[name] for a in per_op)
        summary["metrics"][name] = {"value": value, "unit": unit}
    return summary


def print_summary(summary: dict, trace: bool) -> None:
    print(f"== {summary['workload']}: {summary['attempted']} ops")
    print(f"   {'failed_frac':14s} {summary['failed_frac']:.6g} ratio  "
          f"({summary['failed']} of {summary['attempted']} ops failed)")
    for problem in summary["problems"]:
        print(f"   failure: {problem}")
    for name, st in summary["stats"].items():
        parts = [f"median {st['median']:.6g} {st['unit']}", f"n={st['n']}"]
        if "q1" in st:
            parts.insert(1, f"q1 {st['q1']:.6g} q3 {st['q3']:.6g}")
        parts += [f"{k} {v:.6g}" for k, v in st.items() if k.startswith("p") and k[1:].isdigit()]
        print(f"   {name:14s} " + "  ".join(parts))
    if trace and summary["metrics"]:
        top = sorted(summary["per_op_self_s"].items(), key=lambda kv: -kv[1])[:6]
        print("   largest self times per op: "
              + ", ".join(f"{k[:-len('.self_s')]} {v:.3f} s" for k, v in top))
        for name, metric in summary["metrics"].items():
            label = "  (computed)" if name.rsplit(".", 1)[-1] in tracing.COMPUTED_FIELDS else ""
            print(f"   {name:44s} {metric['value']:.6g} {metric['unit']}{label}")


def design_checks(by_name: dict) -> list[tuple[str, bool]]:
    """The claims the workload choice rests on, from traced summaries."""

    def self_s(workload, name):
        return by_name[workload]["metrics"][f"{name}.self_s"]["value"]

    def largest(workload):
        per_op = by_name[workload]["per_op_self_s"]
        return max(per_op, key=per_op.get)[: -len(".self_s")]

    level_ops = ("frame.analyze", "frame.synthesize", "frame.level_sigma")
    return [
        ("simlab.run_experiment has the largest self time on simulate",
         largest("simulate") == "simlab.run_experiment"),
        ("analyze+synthesize+level_sigma self time is larger on rates-j10 than on simulate",
         sum(self_s("rates-j10", n) for n in level_ops) > sum(self_s("simulate", n) for n in level_ops)),
        ("jacobi.gauss_jacobi_rule has the largest self time on frame-build-j11",
         largest("frame-build-j11") == "jacobi.gauss_jacobi_rule"),
    ]


def _cell(value) -> str:
    return f"{'-':>14s}" if value is None else f"{value:14.6g}"


def compare(new_path: str, old_path: str) -> int:
    """Print every metric of every workload in two saved results as new, old, new/old."""
    new, old = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (new_path, old_path))
    print(f"new: {new_path} {new['env']}")
    print(f"old: {old_path} {old['env']}")
    print(f"{'workload':16s} {'metric':44s} {'new':>14s} {'old':>14s} {'new/old':>9s}")
    for wname in sorted(set(new["workloads"]) | set(old["workloads"])):
        nm = new["workloads"].get(wname, {}).get("metrics", {})
        om = old["workloads"].get(wname, {}).get("metrics", {})
        for metric in list(nm) + [m for m in om if m not in nm]:
            a = nm.get(metric, {}).get("value")
            b = om.get(metric, {}).get("value")
            ratio = f"{a / b:9.4f}" if a is not None and b else f"{'-':>9s}"
            print(f"{wname:16s} {metric:44s} {_cell(a)} {_cell(b)} {ratio}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="also write the full result (env, stats, metrics) here")
    parser.add_argument("--compare", nargs=2, metavar=("NEW", "OLD"), help="compare two saved results")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "needlets" / "cli.py").is_file():
        print(f"error: no needlets sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    os.environ.update(worker_env())  # for the output checks that start a process
    trace = bool(args.trace)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    by_name = {}
    for name in names:
        wl = WORKLOADS[name]
        env, ops = measure(wl, args.seed, args.seconds, trace)
        summary = summarize(wl, ops, trace)
        summary.update(seed=args.seed, seconds=args.seconds, trace=args.trace)
        print_summary(summary, trace)
        if not summary["metrics"]:
            print(f"error: no op of {name} passed its checks", file=sys.stderr)
            return 1
        by_name[name] = summary
    if trace and len(by_name) == len(WORKLOADS):
        for claim, holds in design_checks(by_name):
            print(f"design check: {'HOLDS' if holds else 'DOES NOT HOLD'}: {claim}")
    print("env: " + json.dumps(env))
    if args.save:
        Path(args.save).write_text(json.dumps({"env": env, "workloads": by_name}, indent=1) + "\n",
                                   encoding="utf-8")

    if len(names) == 1:
        metrics = by_name[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, s in by_name.items() for k, v in s["metrics"].items()}
    attempted = sum(s["attempted"] for s in by_name.values())
    failed = sum(s["failed"] for s in by_name.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
