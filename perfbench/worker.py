"""One benchmark op in a fresh interpreter.

Usage: python3 worker.py SPEC.json, run with the op directory as the working
directory and `src/` on PYTHONPATH. The spec names the input files to write,
the `needlets` command lines to run in order, the files the op writes, the
op id and whether to trace. The worker writes `result.json` next to the spec:
set-up and op times, peak RSS, output bytes, exit codes and, when
traced, the op's spans. `python3 worker.py --env` prints the
environment record (versions, BLAS, threads, cores, L3 size) as JSON.

A fresh process per op is what a command-line user pays for (imports and
cold allocations), and it is the only way `ru_maxrss` is a per-op peak.
Linux carries the spawning process's peak into the child's `ru_maxrss`, so
the benchmark's parent process imports nothing large.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback

import tracing


def environment() -> dict:
    import numpy
    import scipy

    import needlets

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    try:
        out = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        ).stdout.strip()
        l3_bytes = int(out) if out.isdigit() else None
    except (OSError, subprocess.TimeoutExpired):
        l3_bytes = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "needlets": needlets.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "worker_cpu": max(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes,
    }


def pin_to_one_cpu() -> None:
    """Run this process on the highest-numbered CPU it may use.

    With one BLAS thread on one fixed CPU, op times on a shared two-core VM
    spread about half as much from run to run as with two unpinned threads.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(spec_path: str) -> int:
    pin_to_one_cpu()
    t0 = time.perf_counter()
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from needlets import cli

    for name, text in spec["inputs"].items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    setup_s = time.perf_counter() - t0

    tracer = tracing.Tracer(spec["op_id"]) if spec["trace"] else None
    wrapped_before = tracing.count_wrapped()
    if tracer is not None:
        tracer.install()
    codes, error = [], None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in spec["argv"]:
                codes.append(cli.main(argv))
                if codes[-1] != 0:
                    break
    except Exception:  # the op's failure is a result to report, not a crash
        error = traceback.format_exc()
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.remove()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "output_bytes": sum(os.path.getsize(p) for p in spec["outputs"] if os.path.exists(p)),
        "codes": codes,
        "error": error,
        "wrapped_before": wrapped_before,
        "wrapped_after": tracing.count_wrapped(),
        "spans": tracer.spans if tracer is not None else [],
    }
    with open(os.path.join(os.path.dirname(spec_path), "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "--env":
        print(json.dumps(environment()))
        sys.exit(0)
    sys.exit(main(sys.argv[1]))
