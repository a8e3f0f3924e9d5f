"""Record the values the output checks compare against.

    python3 perfbench/make_reference.py

Runs each workload's command lines once at DEFAULT_SEED with the package in
`src/` and writes `reference.json` (simulate cells, rate slopes) and
`frame_j11.npz` (every level's rule nodes and weights, and a fixed random
sample of its `psi` entries). The recorded values are the gates later
changes are held to, so rerun this only when a change is meant to move them,
and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

from run import BLAS_THREADS, BLAS_VARS, ROOT, WORK
from workloads import DEFAULT_SEED, FRAME_JMAX, HERE, SIM_STEM, WORKLOADS, psi_sample


def _run(name: str) -> None:
    from needlets import cli

    wl = WORKLOADS[name]
    for fname, text in wl.inputs(DEFAULT_SEED).items():
        with open(fname, "w", encoding="utf-8") as fh:
            fh.write(text)
    for argv in wl.argv():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise SystemExit(f"{name}: {argv} failed")


def main() -> int:
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from needlets.frameio import load_frame

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(WORK)
    try:
        _run("simulate")
        with open(f"{SIM_STEM}.json", encoding="utf-8") as fh:
            cells = [
                {k: c[k] for k in ("target", "rsnr", "estimator", "n_star", "mean_rmse")}
                for c in json.load(fh)["cells"]
            ]
        _run("rates-j10")
        with open("rates.csv", encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        slopes = {r[0]: float(r[3]) for r in rows}
        _run("frame-build-j11")
        arrays = {}
        for lev in load_frame("frame.bin").levels:
            arrays[f"j{lev.j}_nodes"] = lev.nodes
            arrays[f"j{lev.j}_weights"] = lev.weights
            arrays[f"j{lev.j}_psi"] = lev.psi.ravel()[psi_sample(lev.j, lev.psi.size)]
    finally:
        os.chdir(cwd)
        shutil.rmtree(WORK, ignore_errors=True)

    np.savez(HERE / "frame_j11.npz", **arrays)
    reference = {
        "seed": DEFAULT_SEED,
        "simulate": {"cells": cells},
        "rates-j10": {"slopes": slopes},
        "frame-build-j11": {"jmax": FRAME_JMAX, "file": "frame_j11.npz"},
    }
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
