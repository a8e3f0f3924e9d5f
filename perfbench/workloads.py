"""The benchmark's workloads: generated inputs, command lines and output checks.

Each workload is chosen so that a layer later work is likely to change does
most of the work in it and little in another workload:

- `simulate`: the paper's estimator bake-off on the default config. Most time
  is the projection-cutoff sweep in `simlab` and the coefficient quadrature
  in `jacobi`/`models`; `frame` and `estimators` do little.
- `rates-j10`: the rate study with the frame at jmax 10. The dense level
  products (`analyze`, `synthesize`, `level_sigma`) and the jmax-10 rules do
  most of the work; there is no projection sweep and no quadrature.
- `frame-build-j11`: build a jmax-11 frame, write it, and run the invariant
  suite on the file. The Gauss-Jacobi rule, the Gram self-check and frame I/O
  dominate; the Monte-Carlo layers do nothing. It reads its levels once,
  where `rates-j10` reads them hundreds of times, so a storage change that
  saves memory here but slows repeated reads shows on the other workload.

The benchmark seed is written into the generated configs and changes
nothing else. The recorded values in `reference.json` and `frame_j11.npz`
were taken at DEFAULT_SEED by `make_reference.py`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 65537
SIM_STEM = "sim"
FRAME_JMAX = 11
RULE_TOL = 1e-14
PSI_TOL = 1e-12
PSI_SAMPLE = 1024  # psi entries recorded per level; the whole frame is 134 MB
VALUE_RTOL = 1e-10


def _reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def _rel_err(new: float, old: float) -> float:
    return abs(new - old) / max(abs(old), 1e-300)


def _same_bytes(state: dict, name: str, data: bytes) -> str | None:
    first = state.setdefault(name, data)
    return None if first == data else f"{name} differs from the first op of this run"


class Simulate:
    name = "simulate"
    why = "paper's estimator bake-off on the default config: projection sweep and coefficient quadrature dominate"
    outputs = (f"{SIM_STEM}_L1.csv", f"{SIM_STEM}_RMSE.csv", f"{SIM_STEM}.json")

    def inputs(self, seed: int) -> dict:
        return {"config.json": json.dumps({"seed": seed})}

    def argv(self) -> list:
        return [["simulate", "--config", "config.json", "--out", SIM_STEM]]

    def check(self, op_dir: Path, seed: int, state: dict) -> str | None:
        for table in self.outputs[:2]:
            data = (op_dir / table).read_bytes()
            rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
            if len(rows) != 5 or any(len(r) != 10 for r in rows):
                return f"{table} is not a 4x9 table"
            if not all(math.isfinite(float(v)) for r in rows[1:] for v in r[1:]):
                return f"{table} has a non-finite cell"
            problem = _same_bytes(state, table, data)
            if problem:
                return problem
        with open(op_dir / self.outputs[2], encoding="utf-8") as fh:
            cells = json.load(fh)["cells"]
        if len(cells) != 36:
            return f"expected 36 cells, got {len(cells)}"
        for c in cells:
            values = c["l1"] + c["rmse"] + [c["mean_l1"], c["mean_rmse"], c["epsilon"]]
            if not all(math.isfinite(v) for v in values):
                return f"non-finite value in cell {c['target']}/{c['rsnr']}/{c['estimator']}"
        if seed != DEFAULT_SEED:
            return None
        recorded = {
            (c["target"], c["rsnr"], c["estimator"]): c for c in _reference()["simulate"]["cells"]
        }
        for c in cells:
            ref = recorded[(c["target"], c["rsnr"], c["estimator"])]
            if c["n_star"] != ref["n_star"]:
                return f"n_star {c['n_star']} != recorded {ref['n_star']} in {c['target']}/{c['rsnr']}"
            if _rel_err(c["mean_rmse"], ref["mean_rmse"]) > VALUE_RTOL:
                return f"mean RMSE {c['mean_rmse']!r} != recorded {ref['mean_rmse']!r} in {c['target']}/{c['rsnr']}/{c['estimator']}"
        return None


class RatesJ10:
    name = "rates-j10"
    why = "rate study at frame jmax 10: dense analyze/synthesize/level_sigma over 33.5 MB of psi, no sweep"
    outputs = ("rates.csv",)

    def inputs(self, seed: int) -> dict:
        return {"config.json": json.dumps({"seed": seed, "frame": {"jmax": 10}})}

    def argv(self) -> list:
        return [["rates", "--config", "config.json", "--out", "rates.csv"]]

    def check(self, op_dir: Path, seed: int, state: dict) -> str | None:
        data = (op_dir / "rates.csv").read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        if len(rows) != 18:
            return f"expected 18 rate rows, got {len(rows)}"
        slopes = {}
        for r in rows:
            values = [float(r[k]) for k in ("eps", "mean_rmse", "slope", "slope_stderr")]
            if not all(math.isfinite(v) for v in values):
                return f"non-finite value in the {r['model']} rows"
            slopes[r["model"]] = float(r["slope"])
        problem = _same_bytes(state, "rates.csv", data)
        if problem:
            return problem
        if seed == DEFAULT_SEED:
            for model, ref in _reference()["rates-j10"]["slopes"].items():
                if _rel_err(slopes[model], ref) > VALUE_RTOL:
                    return f"{model} slope {slopes[model]!r} != recorded {ref!r}"
        return None


class FrameBuildJ11:
    name = "frame-build-j11"
    why = "build, write and check a jmax-11 frame: Gauss-Jacobi rules, Gram self-check and frame I/O dominate"
    outputs = ("frame.bin",)

    def inputs(self, seed: int) -> dict:
        return {}

    def argv(self) -> list:
        return [
            ["frame", "build", "--jmax", str(FRAME_JMAX), "--out", "frame.bin"],
            ["frame", "check", "frame.bin"],
        ]

    def check(self, op_dir: Path, seed: int, state: dict) -> str | None:
        # reading the frame needs numpy and the package; doing it in a child
        # keeps the benchmark's own process small (see worker.py)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), str(op_dir / "frame.bin")],
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            lines = (proc.stdout + proc.stderr).strip().splitlines()
            return lines[-1] if lines else f"frame check exited {proc.returncode}"
        return None


def check_frame_file(path) -> str | None:
    """Compare a written frame with the recorded rule and sampled psi entries.

    The frame does not depend on the seed, so the record applies to every run.
    """
    import numpy as np
    from needlets.frameio import load_frame

    frame = load_frame(path)
    ref = np.load(HERE / "frame_j11.npz")
    if len(frame.levels) != FRAME_JMAX + 2:
        return f"expected {FRAME_JMAX + 2} levels, got {len(frame.levels)}"
    for lev in frame.levels:
        key = f"j{lev.j}"
        for field in ("nodes", "weights"):
            got, want = getattr(lev, field), ref[f"{key}_{field}"]
            if got.shape != want.shape or np.max(np.abs(got - want)) > RULE_TOL:
                return f"level {lev.j} {field} differ from the recorded rule by more than {RULE_TOL}"
        got = lev.psi.ravel()[psi_sample(lev.j, lev.psi.size)]
        want = ref[f"{key}_psi"]
        if got.shape != want.shape or np.max(np.abs(got - want)) > PSI_TOL:
            return f"level {lev.j} psi differs from the recorded entries by more than {PSI_TOL}"
    return None


def psi_sample(j: int, size: int):
    """Fixed random flat indices of the level-j psi entries that are recorded."""
    import numpy as np

    rng = np.random.default_rng([FRAME_JMAX, j + 1])
    return np.sort(rng.choice(size, size=min(size, PSI_SAMPLE), replace=False))


WORKLOADS = {w.name: w for w in (Simulate(), RatesJ10(), FrameBuildJ11())}


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    problem = check_frame_file(sys.argv[1])
    if problem:
        print(problem)
    sys.exit(1 if problem else 0)
