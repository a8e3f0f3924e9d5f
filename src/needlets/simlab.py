"""Monte-Carlo harness: calibrated noise, three estimators, loss tables.

One experiment sweeps (target, noise level) settings. Per setting it
calibrates epsilon from the target's blurred signal, draws `runs`
independent observations with derived per-run seeds, runs each configured
estimator on the same draws, and scores both weighted losses against the
true target values on the grid (so truncation bias is charged honestly).
Everything downstream of the config and master seed is deterministic.

The projection estimator's cutoff is chosen per setting: the N minimizing
the mean weighted RMSE over the setting's runs, mimicking a tuning curve
read off at its minimum, with ties going to the smaller N. The adaptive
filter and the thresholding estimator use their own data-driven rules.

The cutoff sweep never forms a partial sum on the grid. With G = E W E^T
and c = E W f, the Gram identity of estimators.projection_cutoff gives
every run's squared error at every cutoff from one (R, K) @ (K, K) product
and one cumulative sum. G is formed once per experiment, as the diagonal
and the transposed strict lower triangle that the sweep reads, by
projection_gram in blocks of rows straight into those two arrays. 214 of
its 263,169 entries at jmax 8 differ by one or two ulps from one whole
product, and no cutoff moves on the default config. The
identity subtracts numbers of the size of ||f||_w^2, so each squared error
Q carries an absolute rounding error of a small multiple of
||f||_w^2 * 1e-16; on the default config and seed it measures at most
1.2e-13 * ||f||_w^2. That is harmless because every Q is far larger: there
Q >= 0.013 while ||f||_w^2 is about 1, and the best and second-best cutoff
scores of a setting differ by at least 1.4e-4 relative. The losses
reported at the chosen cutoff are computed directly, not from Q.

The standard targets' coefficients come from one coeffs_from_function
call: all four, whichever the config lists, on one rule split at the union
of their breakpoints, so the recurrence runs once per experiment and a
target's coefficients do not depend on the config's other targets.

A setting's runs go through every estimator as one (R, K) stack, with one
seeded generator per run. The estimators' stacks are scored together: one
(E R, K) @ (K, n) product and one row-wise losses.weighted_loss call per
loss, split back per estimator. Each row keeps the bits of its estimator's
own product.

The rate study stacks further: a model's whole noise ladder is cut by
estimators.ladder_blocks into stacks of whole levels, at most STACK_ROWS
runs each and ordered by j_top, and each stack is thresholded by one
need_d_stack and scored with one product. The grid table e_k(grid) is
formed once per rate_study call, which takes one model or a sequence of
them. Run seeds are keyed on each noise level's repr.

The JSON config and report formats are the dataclasses themselves: a
config is SimulationConfig (RatesConfig, a subset, for the rate study)
and its group specs field by field, in field order, with '-' for '_' in
keys; a report cell is CellResult's fields plus its means and standard
errors. The frame group names no basis, since the frame is built on the
model's: a config or report that names one is refused as an unknown key.
Parsing maps keys back through the same fields, so a field added to a
dataclass is written and read with no other edit.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import typing
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .errors import InvariantError
from .estimators import (
    GAMMA_DEFAULT,
    GRID_N_DEFAULT,
    KAPPA_DEFAULT,
    _check_gamma,
    _check_kappa,
    ladder_blocks,
    make_adaptive_config,
    make_threshold_plan,
    need_d,
    need_d_stack,
    projection_cutoff,
    projection_gram,
    svd_adaptive,
    svd_projection,
)
from .filters import POLYNOMIAL_SHAPE, Filter, make_filter, make_profile
from .frame import NODES_EXACT, NeedletFrame, _check_node_mode, build_frame, check_j_max
from .jacobi import JacobiBasis
from .losses import _check_grid_n, grid_points, weighted_loss
from .models import (
    SequenceObservation,
    SvdModel,
    _check_noise_level,
    _check_rsnr,
    calibrate_epsilon,
    coeffs_from_function,
    derive_seed,
    eval_e,
    sample_observation,
    wicksell_model,
)
from .targets import TARGET_NAMES, target_breakpoints, target_function, target_raw

__all__ = [
    "ESTIMATOR_NAMES",
    "FrameSpec",
    "AdaptiveSpec",
    "NeedDSpec",
    "SimulationConfig",
    "RatesConfig",
    "load_config",
    "CellResult",
    "SimulationReport",
    "RateStudy",
    "run_experiment",
    "rate_study",
    "check_rate_ladder",
    "RUNS_DEFAULT",
    "SEED_DEFAULT",
    "emit_report",
    "write_csv",
    "load_report",
]

ESTIMATOR_NAMES = ("svd-proj", "svd-adapt", "needd")
# Monte-Carlo runs per setting and the master seed their seeds derive from
RUNS_DEFAULT = 20
SEED_DEFAULT = 65537


@dataclass(frozen=True)
class FrameSpec:
    """Top level, cutoff order and node mode of one frame; build takes the model's basis."""

    jmax: int = 8
    m: int = 2
    nodes_per_level: str = NODES_EXACT

    def __post_init__(self):
        check_j_max(self.jmax)
        _check_node_mode(self.nodes_per_level)
        make_profile(POLYNOMIAL_SHAPE, self.m)  # refuses an m out of range

    @property
    def budget(self) -> int:
        """2^(jmax+1), the frame's coefficient budget and the kmax of the models it serves."""
        return 2 ** (self.jmax + 1)

    @property
    def filt(self) -> Filter:
        """The order-m polynomial-shape filter."""
        return make_filter(make_profile(POLYNOMIAL_SHAPE, self.m))

    def build(self, basis: JacobiBasis) -> NeedletFrame:
        """The frame on basis with filt."""
        return build_frame(basis, self.filt, self.jmax, self.nodes_per_level)


@dataclass(frozen=True)
class AdaptiveSpec:
    """The svd-adapt filter's gamma; its block growth takes natural logs (make_blocks)."""

    gamma: float = GAMMA_DEFAULT

    def __post_init__(self):
        _check_gamma(self.gamma)


@dataclass(frozen=True)
class NeedDSpec:
    kappa: float = KAPPA_DEFAULT

    def __post_init__(self):
        _check_kappa(self.kappa)


@dataclass(frozen=True)
class SimulationConfig:
    """Full experiment description; the constructor validates shape invariants.

    `targets` normally names the standard test signals; run_experiment also
    accepts synthetic coefficient targets under extra names (used by the
    noise-free exactness checks), so membership in the standard set is
    enforced when parsing external configs, not here.
    """

    targets: tuple[str, ...] = TARGET_NAMES
    rsnr: tuple[float, ...] = (3.0, 5.0, 7.0)
    n: int = GRID_N_DEFAULT
    runs: int = RUNS_DEFAULT
    estimators: tuple[str, ...] = ESTIMATOR_NAMES
    seed: int = SEED_DEFAULT
    frame: FrameSpec = field(default_factory=FrameSpec)
    adaptive: AdaptiveSpec = field(default_factory=AdaptiveSpec)
    needd: NeedDSpec = field(default_factory=NeedDSpec)
    epsilon_override: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "rsnr", tuple(float(r) for r in self.rsnr))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.epsilon_override is not None:
            object.__setattr__(self, "epsilon_override", float(self.epsilon_override))
            _check_noise_level(self.epsilon_override, "epsilon override")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        _check_grid_n(self.n)
        if not self.targets or len(set(self.targets)) != len(self.targets):
            raise ValueError("targets must be a nonempty list without repeats")
        if not self.rsnr:
            raise ValueError("rsnr must hold at least one level")
        _check_rsnr(self.rsnr)
        bad = [e for e in self.estimators if e not in ESTIMATOR_NAMES]
        if bad or not self.estimators:
            raise ValueError(f"unknown estimators {bad}; choose from {ESTIMATOR_NAMES}")

    def to_dict(self) -> dict:
        """The config as JSON: the dataclass fields in order, '_' written as '-' in keys."""
        return _json_keys(asdict(self))

    @classmethod
    def from_dict(cls, raw: dict) -> "SimulationConfig":
        """Parse an external config mapping; unknown keys, mistyped values or targets are errors."""
        config = _from_json(cls, raw, "")
        for name in config.targets:
            target_raw(name)  # refuses a name that is not a standard target
        return config


# coefficients of the rate study's target, which every frame budget of `rates` must hold
RATE_TARGET_SIZE = 64


@dataclass(frozen=True)
class RatesConfig:
    """The config keys `rates` reads, with SimulationConfig's defaults; its target and noise are fixed."""

    frame: FrameSpec = field(default_factory=FrameSpec)
    runs: int = RUNS_DEFAULT
    n: int = GRID_N_DEFAULT
    seed: int = SEED_DEFAULT
    needd: NeedDSpec = field(default_factory=NeedDSpec)

    def __post_init__(self):
        _check_grid_n(self.n)
        if self.frame.budget < RATE_TARGET_SIZE:
            least = math.ceil(math.log2(RATE_TARGET_SIZE)) - 1
            raise ValueError(
                f"config key 'frame.jmax' must be >= {least} to hold the "
                f"{RATE_TARGET_SIZE}-coefficient rate target, got {self.frame.jmax}"
            )

    @property
    def target(self) -> np.ndarray:
        """The rate study's target: exp(-k/4) for k < RATE_TARGET_SIZE, at unit norm."""
        coeffs = np.exp(-np.arange(RATE_TARGET_SIZE) / 4.0)
        return coeffs / math.sqrt(float(np.sum(coeffs**2)))

    @classmethod
    def from_dict(cls, raw: dict) -> "RatesConfig":
        return _from_json(cls, raw, "")


def load_config(path, kind=SimulationConfig):
    """kind (SimulationConfig or RatesConfig) parsed from the JSON file at path."""
    # utf-8-sig drops a byte-order mark, as estimate's observation reader does
    with open(path, encoding="utf-8-sig") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ValueError(f"{exc} in config {path}") from None
    return kind.from_dict(raw)


def _json_keys(d: dict) -> dict:
    return {k.replace("_", "-"): _json_keys(v) if isinstance(v, dict) else v for k, v in d.items()}


# JSON values accepted for each scalar field type; bool is an int subclass
# in Python but never a number in a config
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _json_value(key: str, value, hint):
    """value if it is JSON of the field type hint, else a ValueError naming key and value."""
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        expected = f"a list of {item.__name__}"
        ok = isinstance(value, (list, tuple)) and all(_json_scalar(v, item) for v in value)
    else:
        # float | None: the first type, or null
        kinds = typing.get_args(hint) or (hint,)
        expected = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
        ok = (value is None and type(None) in kinds) or _json_scalar(value, kinds[0])
    if not ok:
        raise ValueError(f"config key {key!r} must be {expected}, got {value!r}")
    return value


def _json_scalar(value, kind) -> bool:
    return isinstance(value, _JSON_TYPES[kind]) and not isinstance(value, bool)


def _from_json(spec_cls, raw, group: str):
    """spec_cls from a mapping keyed by its field names with '-' for '_'.

    A field that is itself a dataclass (a config group) takes a nested
    mapping, parsed the same way; null stands for its defaults.
    """
    if not isinstance(raw, dict):
        where = f"key {group!r}" if group else "file"
        raise ValueError(f"config {where} must be a mapping, got {raw!r}")
    hints = typing.get_type_hints(spec_cls)
    names = {f.name.replace("_", "-"): f.name for f in fields(spec_cls)}
    extra = set(raw) - set(names)
    if extra:
        raise ValueError(f"unknown {group + ' ' if group else ''}config keys: {sorted(extra)}")
    kwargs = {}
    for key, value in raw.items():
        hint = hints[names[key]]
        if is_dataclass(hint):
            kwargs[names[key]] = _from_json(hint, {} if value is None else value, key)
        else:
            kwargs[names[key]] = _json_value(f"{group}.{key}" if group else key, value, hint)
    return spec_cls(**kwargs)


@dataclass(frozen=True)
class CellResult:
    """Per-run losses of one estimator in one (target, noise) setting.

    The constructor takes seeds and losses as any sequences, as load_report
    passes them from JSON, and stores a tuple and float arrays.
    """

    target: str
    rsnr: float
    estimator: str
    epsilon: float
    seeds: tuple[int, ...]
    l1: np.ndarray
    rmse: np.ndarray
    n_star: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "l1", np.asarray(self.l1, dtype=float))
        object.__setattr__(self, "rmse", np.asarray(self.rmse, dtype=float))

    @property
    def mean_l1(self) -> float:
        return float(np.mean(self.l1))

    @property
    def mean_rmse(self) -> float:
        return float(np.mean(self.rmse))

    @property
    def stderr_l1(self) -> float:
        return _stderr(self.l1)

    @property
    def stderr_rmse(self) -> float:
        return _stderr(self.rmse)


def _stderr(x: np.ndarray) -> float:
    if x.size < 2:
        return 0.0
    return float(np.std(x, ddof=1) / math.sqrt(x.size))


@dataclass(frozen=True)
class SimulationReport:
    config: SimulationConfig
    cells: tuple[CellResult, ...]

    def cell(self, target: str, rsnr: float, estimator: str) -> CellResult:
        for c in self.cells:
            if c.target == target and c.estimator == estimator and c.rsnr == rsnr:
                return c
        raise KeyError((target, rsnr, estimator))


def _pad(coeffs: np.ndarray, size: int) -> np.ndarray:
    if coeffs.shape[-1] > size:
        # only an identically-zero tail may be dropped; anything else would
        # silently change the target
        if np.any(coeffs[..., size:]):
            raise ValueError(
                f"coefficient target has support beyond index {size - 1}, "
                "outside the frame budget"
            )
        return np.asarray(coeffs[..., :size], dtype=float)
    out = np.zeros(coeffs.shape[:-1] + (size,))
    out[..., : coeffs.shape[-1]] = coeffs
    return out


def _draw_runs(model, f_coeffs, epsilon, master_seed, runs, target_id, noise_id):
    """Per-run seeds and the runs drawn from them, stacked as one (runs, K) observation."""
    from numpy.random import default_rng  # on first draw: it loads OpenSSL, as hashlib does

    seeds = tuple(derive_seed(master_seed, r, target_id, noise_id) for r in range(runs))
    y = np.stack([
        sample_observation(model, f_coeffs, epsilon, default_rng(s)).y for s in seeds
    ])
    return seeds, SequenceObservation(y, float(epsilon))


def run_experiment(config: SimulationConfig, coefficient_targets: dict | None = None) -> SimulationReport:
    """Run the full (target x noise x estimator) sweep of the config.

    coefficient_targets maps extra target names to coefficient vectors,
    letting tests probe exactly representable signals; their true grid
    values come from the basis expansion instead of a closed formula.

    Every target is calibrated before any run is drawn, so each table that
    depends only on (model, frame, grid) is formed once per experiment; the
    frame is built only when needd is configured.
    """
    coefficient_targets = coefficient_targets or {}
    model = wicksell_model(kmax=config.frame.budget)
    n = config.n
    grid = grid_points(n)
    e_vals = eval_e(model, model.kmax, grid)
    gram = projection_gram(e_vals) if "svd-proj" in config.estimators else None

    if any(t in TARGET_NAMES and t not in coefficient_targets for t in config.targets):
        # every standard target, whichever the config lists: a stack's rows
        # keep their bits only at one stack width
        fs = [target_function(t) for t in TARGET_NAMES]
        breakpoints = [b for t in TARGET_NAMES for b in target_breakpoints(t)]
        stack = coeffs_from_function(model, fs, model.kmax, breakpoints)
        standard = dict(zip(TARGET_NAMES, zip(fs, stack)))
    truths = []
    for target in config.targets:
        if target in coefficient_targets:
            f_coeffs = _pad(np.asarray(coefficient_targets[target], dtype=float), model.kmax + 1)
            truths.append((f_coeffs, f_coeffs @ e_vals))
        elif target in TARGET_NAMES:
            f, f_coeffs = standard[target]
            truths.append((f_coeffs, f(grid)))
        else:
            raise ValueError(f"unknown target {target!r} and no coefficients supplied")
    if config.epsilon_override is not None:
        epsilons = [[config.epsilon_override] * len(config.rsnr)] * len(truths)
    else:
        # sd(Kf) depends on the target only: one table, one sd per target
        stack = np.stack([f_coeffs for f_coeffs, _ in truths])
        epsilons = calibrate_epsilon(model, stack, np.asarray(config.rsnr), n).tolist()
    if "needd" in config.estimators:
        frame = config.frame.build(model.basis)
        every_eps = [e for row in epsilons for e in row]
        plan_for = dict(zip(every_eps, make_threshold_plan(frame, model, every_eps, config.needd.kappa)))

    cells = []
    for target, (f_coeffs, true_vals), target_eps in zip(config.targets, truths, epsilons):
        for rsnr, epsilon in zip(config.rsnr, target_eps):
            seeds, obs = _draw_runs(
                model, f_coeffs, epsilon, config.seed, config.runs, target, f"rsnr={rsnr:g}"
            )
            estimates, n_stars = [], []
            for estimator in config.estimators:
                n_star = None
                if estimator == "svd-proj":
                    n_star = projection_cutoff(obs.y / model.b, e_vals, true_vals, gram)
                    coeffs = svd_projection(model, obs, n_star)
                elif estimator == "needd":
                    coeffs = need_d(frame, model, obs, plan_for[epsilon]).coeffs
                else:
                    adapt_cfg = make_adaptive_config(model, epsilon, n, config.adaptive.gamma)
                    coeffs = svd_adaptive(model, obs, adapt_cfg)
                estimates.append(coeffs)
                n_stars.append(n_star)
            # one product and one loss call per p for the cell's whole stack
            fhat_vals = np.concatenate(estimates) @ e_vals
            l1s, rmses = (
                np.split(weighted_loss(true_vals, fhat_vals, n, p), len(estimates)) for p in (1, 2)
            )
            for estimator, n_star, l1, rmse in zip(config.estimators, n_stars, l1s, rmses):
                cells.append(
                    CellResult(target, rsnr, estimator, float(epsilon), seeds, l1, rmse, n_star)
                )
    return SimulationReport(config, tuple(cells))


@dataclass(frozen=True)
class RateStudy:
    eps: tuple[float, ...]
    mean_rmse: tuple[float, ...]
    slope: float
    slope_stderr: float


def check_rate_ladder(eps_list, runs: int) -> list[float]:
    """The noise levels of a rate study as floats, refused unless there are at least 4,
    all distinct and in [smallest normal float, 1), with at least 10 runs each."""
    eps = [float(e) for e in eps_list]
    if len(eps) < 4:
        raise ValueError(f"need at least 4 noise levels, got {len(eps)}")
    if repeated := sorted({e for e in eps if eps.count(e) > 1}, reverse=True):
        raise ValueError(f"noise levels must be distinct, repeated: {', '.join(map(str, repeated))}")
    for e in eps:
        _check_noise_level(e, "every noise level", zero=False)
    if runs < 10:
        raise ValueError(f"need at least 10 runs per level, got {runs}")
    return eps


def rate_study(
    model: SvdModel | Sequence[SvdModel],
    frame: NeedletFrame,
    target_coeffs,
    eps_list,
    runs: int,
    *,
    n: int = GRID_N_DEFAULT,
    kappa: float = KAPPA_DEFAULT,
    master_seed: int = SEED_DEFAULT,
) -> RateStudy | tuple[RateStudy, ...]:
    """Fit the log-log slope of mean thresholding RMSE against noise level.

    target_coeffs must be in-budget (exactly representable) so the measured
    decay reflects the noise, not a fixed truncation floor. The noise levels
    and runs must pass check_rate_ladder: a repeated level would redraw the
    same seeded runs.
    A sequence of models gives a tuple of studies sharing one grid table;
    each model's ladder is thresholded in the stacks of ladder_blocks.
    """
    eps = check_rate_ladder(eps_list, runs)

    models = (model,) if isinstance(model, SvdModel) else tuple(model)
    # the plans check each model against the frame's basis, so one table serves all
    plans = [make_threshold_plan(frame, m, eps, kappa) for m in models]
    e_all = eval_e(models[0], max(m.kmax for m in models), grid_points(n))

    studies = []
    for m, m_plans in zip(models, plans):
        f_coeffs = _pad(np.asarray(target_coeffs, dtype=float), m.kmax + 1)
        e_vals = e_all[: m.kmax + 1]
        true_vals = f_coeffs @ e_vals
        means = [0.0] * len(eps)
        for block in ladder_blocks(m_plans, runs):
            # the seed key is the level's repr, so distinct levels never share runs
            draws = [
                _draw_runs(m, f_coeffs, eps[i], master_seed, runs, f"rate-{m.kind}", f"eps={eps[i]!r}")[1]
                for i in block
            ]
            coeffs = need_d_stack(frame, m, draws, [m_plans[i] for i in block]).coeffs
            rmse = weighted_loss(true_vals, coeffs @ e_vals, n, 2)
            for i, level_rmse in zip(block, np.split(rmse, len(block))):
                means[i] = float(np.mean(level_rmse))
        studies.append(_rate_fit(eps, means))
    return studies[0] if isinstance(model, SvdModel) else tuple(studies)


def _rate_fit(eps: list, means: list) -> RateStudy:
    if any(m <= 0.0 for m in means):
        raise InvariantError("degenerate fit: a mean RMSE vanished, log is undefined")
    x = np.log(np.asarray(eps))
    y = np.log(np.asarray(means))
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx <= 0.0:
        raise InvariantError("degenerate fit: noise levels do not vary")
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    resid = y - (y.mean() + slope * (x - x.mean()))
    stderr = float(math.sqrt(float(np.sum(resid**2)) / (len(eps) - 2) / sxx))
    return RateStudy(tuple(eps), tuple(means), slope, stderr)


def _strip_suffix(stem: str) -> str:
    for suffix in (".csv", ".json"):
        if stem.endswith(suffix):
            return stem[: -len(suffix)]
    return stem


def write_csv(path, header, rows) -> None:
    """header and rows as UTF-8 CSV at path (stdout if None), every float cell to 17 significant digits."""
    fh = sys.stdout if path is None else open(path, "w", newline="", encoding="utf-8")
    try:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)
    finally:
        if fh is not sys.stdout:
            fh.close()


def _csv_table(path, report: SimulationReport, loss: str) -> None:
    cfg = report.config
    rows = []
    reported = {c.target for c in report.cells}
    for target in cfg.targets:
        if target not in reported:
            continue
        row = [target]
        for est in cfg.estimators:
            for r in cfg.rsnr:
                cell = report.cell(target, r, est)
                value = cell.mean_l1 if loss == "l1" else cell.mean_rmse
                row.append(f"{value:.6g}")
        rows.append(row)
    write_csv(path, ["target"] + [f"{est}/rsnr={r:g}" for est in cfg.estimators for r in cfg.rsnr], rows)


def emit_report(report: SimulationReport, stem: str) -> list[str]:
    """Write the two loss tables and the JSON config and cells; return their paths in that order."""
    stem = _strip_suffix(stem)
    paths = [f"{stem}_L1.csv", f"{stem}_RMSE.csv", f"{stem}.json"]
    _csv_table(paths[0], report, "l1")
    _csv_table(paths[1], report, "rmse")
    payload = {
        "config": report.config.to_dict(),
        "cells": [
            {
                **asdict(c),
                "mean_l1": c.mean_l1,
                "mean_rmse": c.mean_rmse,
                "stderr_l1": c.stderr_l1,
                "stderr_rmse": c.stderr_rmse,
            }
            for c in report.cells
        ],
    }
    with open(paths[2], "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, default=np.ndarray.tolist)
        fh.write("\n")
    return paths


def load_report(path) -> SimulationReport:
    """Rebuild a SimulationReport from an emitted json file."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    config = SimulationConfig.from_dict(payload["config"])
    names = [f.name for f in fields(CellResult)]
    # a missing key with no default fails in the constructor, which names it
    cells = tuple(CellResult(**{k: c[k] for k in names if k in c}) for c in payload["cells"])
    return SimulationReport(config, cells)
