"""Command-line front end.

Subcommands mirror the package layers: `quad dump` and `filter plot` for
inspecting the building blocks, `frame build/check/render` for persisted
frames, `model dump` for singular values, `estimate` for one observation
file, and `simulate`/`rates` for the Monte-Carlo studies. All tabular
output is plain CSV (UTF-8, '.' decimal point), to stdout unless --out is
given. Exit codes: 0 success, 1 for I/O, configuration or allocation
problems, 2 when a mathematical invariant fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .errors import InvariantError, NormResolutionError, UnresolvedIntegrandError
from .estimators import (
    KAPPA_DEFAULT,
    make_adaptive_config,
    make_threshold_plan,
    need_d,
    svd_adaptive,
    svd_projection,
)
from .filters import POLYNOMIAL_SHAPE, filter_a, make_filter, make_profile
from .frame import NODES_EXACT, NODES_PAPER, frame_invariants, frame_levels, needlet_values
from .frameio import load_frame, open_frame, write_levels
from .jacobi import gauss_jacobi_rule, jacobi_basis
from .models import SequenceObservation, direct_model, eval_e, wicksell_model
from .simlab import (
    FrameSpec,
    SimulationConfig,
    emit_report,
    rate_study,
    run_experiment,
)

# four decades so the fitted slope is past the threshold-regime transient
RATE_EPS_DEFAULT = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5)

# model constructors (of kmax) by kind; the first is the default, and rates runs all in order
MODELS = {"wicksell": wicksell_model, "direct": direct_model}


def _write_csv(path, header, rows):
    fh = sys.stdout if path is None else open(path, "w", newline="", encoding="utf-8")
    try:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if fh is not sys.stdout:
            fh.close()


def _cmd_quad_dump(args) -> int:
    rule = gauss_jacobi_rule(jacobi_basis(args.alpha, args.beta), args.n)
    _write_csv(
        args.out,
        ["index", "node", "weight"],
        (
            [i, f"{x:.17g}", f"{w:.17g}"]
            for i, (x, w) in enumerate(zip(rule.nodes, rule.weights))
        ),
    )
    return 0


def _cmd_filter_plot(args) -> int:
    filt = make_filter(make_profile(POLYNOMIAL_SHAPE, args.m))
    xi = np.linspace(0.0, 2.5, args.points)
    a = filter_a(filt, xi)
    _write_csv(
        args.out,
        ["xi", "a"],
        ([f"{x:.17g}", f"{v:.17g}"] for x, v in zip(xi, a)),
    )
    return 0


def _cmd_frame_build(args) -> int:
    # each level is written once its self-check passes and dropped before
    # the next is built; a failed level leaves --out as it was
    spec = FrameSpec(args.jmax, args.m, args.nodes_per_level)
    params = (jacobi_basis(args.alpha, args.beta), spec.filt, spec.jmax, spec.nodes_per_level)
    defect = write_levels(args.out, *params, frame_levels(*params))
    print(
        f"wrote {args.out}: basis=jacobi j_max={spec.jmax} "
        f"budget={2 ** (spec.jmax + 1)} defect={defect:.3g}"
    )
    return 0


def _cmd_frame_check(args) -> int:
    # levels are read, checked and dropped one at a time
    with open_frame(args.path) as (frame, levels):
        rows = frame_invariants(frame, levels)
    failed = False
    print(f"frame {args.path}: basis=jacobi j_max={frame.j_max} "
          f"nodes={frame.nodes_per_level}")
    for name, value, tol in rows:
        ok = value <= tol
        failed |= not ok
        print(f"  {name:24s} {value:12.3e}  tol {tol:8.1e}  {'PASS' if ok else 'FAIL'}")
    if failed:
        raise InvariantError("frame invariant suite failed")
    return 0


def _cmd_frame_render(args) -> int:
    frame = load_frame(args.frame)
    x = np.linspace(-1.0, 1.0, args.points)
    psi_vals = needlet_values(frame, args.j, args.nu, x)
    _write_csv(
        args.out,
        ["x", "psi"],
        ([f"{a:.17g}", f"{b:.17g}"] for a, b in zip(x, psi_vals)),
    )
    return 0


def _cmd_model_dump(args) -> int:
    model = MODELS[args.kind](args.kmax)
    _write_csv(
        args.out,
        ["k", "b"],
        ([k, f"{b:.17g}"] for k, b in enumerate(model.b)),
    )
    return 0


def _read_observation(path, epsilon) -> SequenceObservation:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for n, row in enumerate(r for r in reader if "".join(r).strip()):
            try:
                k, y = row
                rows.append((int(k), float(y)))
            except ValueError:
                if n > 0:  # only the first non-blank row may be a header
                    raise ValueError(
                        f"{path} line {reader.line_num}: expected 'k,y', got {','.join(row)!r}"
                    ) from None
    if not rows:
        raise ValueError(f"no observation rows in {path}")
    rows.sort()
    indices = [i for i, _ in rows]
    if indices != list(range(len(rows))):
        raise ValueError("observation indices must cover 0..kmax exactly once")
    return SequenceObservation(np.asarray([y for _, y in rows]), epsilon)


def _cmd_estimate(args) -> int:
    obs = _read_observation(args.input, args.epsilon)
    kmax = obs.kmax
    model = MODELS[args.model](kmax)

    if args.method == "needd":
        if args.frame is None:
            raise ValueError("--frame is required for the thresholding method")
        frame = load_frame(args.frame)
        plan = make_threshold_plan(frame, model, args.epsilon, kappa=args.kappa)
        fhat = need_d(frame, model, obs, plan).coeffs
    elif args.method == "svd-proj":
        n_keep = args.n_keep if args.n_keep is not None else kmax // 2
        fhat = svd_projection(model, obs, n_keep)
    else:
        config = make_adaptive_config(model, args.epsilon, args.grid_n, args.gamma)
        fhat = svd_adaptive(model, obs, config)

    _write_csv(
        args.out,
        ["i", "fhat"],
        ([i, f"{v:.17g}"] for i, v in enumerate(fhat)),
    )
    if args.render is not None:
        x = np.arange(1, args.points + 1) / args.points
        vals = np.asarray(fhat) @ eval_e(model, len(fhat) - 1, x)
        _write_csv(
            args.render,
            ["x", "fhat"],
            ([f"{a:.17g}", f"{b:.17g}"] for a, b in zip(x, vals)),
        )
    return 0


def _load_config(path) -> SimulationConfig:
    with open(path, encoding="utf-8") as fh:
        return SimulationConfig.from_dict(json.load(fh))


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    report = run_experiment(config)
    print("wrote " + ", ".join(emit_report(report, args.out)))
    return 0


def _cmd_rates(args) -> int:
    config = _load_config(args.config)
    models = [make(2 ** (config.frame.jmax + 1)) for make in MODELS.values()]
    frame = config.frame.build(models[0].basis)
    eps_list = tuple(args.eps) if args.eps else RATE_EPS_DEFAULT
    coeffs = np.exp(-np.arange(64) / 4.0)
    coeffs /= math.sqrt(float(np.sum(coeffs**2)))
    studies = rate_study(
        models,
        frame,
        coeffs,
        eps_list,
        config.runs,
        n=config.n,
        kappa=config.needd.kappa,
        master_seed=config.seed,
    )
    rows = [
        [model.kind, f"{e:.17g}", f"{m:.17g}", f"{study.slope:.17g}", f"{study.slope_stderr:.17g}"]
        for model, study in zip(models, studies)
        for e, m in zip(study.eps, study.mean_rmse)
    ]
    _write_csv(args.out, ["model", "eps", "mean_rmse", "slope", "slope_stderr"], rows)
    for model, study in zip(models, studies):
        print(f"{model.kind}: slope={study.slope:.4f} (stderr {study.slope_stderr:.4f})")
    return 0


def _point_count(text: str) -> int:
    """Parse a --points value: a whole number >= 1 (one point gives a one-row table)."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number >= 1, got {text}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="needlets", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    quad = sub.add_parser("quad", help="quadrature rules").add_subparsers(
        dest="action", required=True
    )
    p = quad.add_parser("dump", help="emit nodes and weights as CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_quad_dump)

    filt = sub.add_parser("filter", help="dyadic filters").add_subparsers(
        dest="action", required=True
    )
    p = filt.add_parser("plot", help="emit (xi, a(xi)) samples as CSV")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--points", type=_point_count, default=501)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_filter_plot)

    frame = sub.add_parser("frame", help="needlet frames").add_subparsers(
        dest="action", required=True
    )
    p = frame.add_parser("build", help="build a frame and save it")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--jmax", type=int, default=7)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--nodes-per-level", choices=(NODES_EXACT, NODES_PAPER), default=NODES_EXACT)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_frame_build)
    p = frame.add_parser("check", help="run the frame invariant suite")
    p.add_argument("path")
    p.set_defaults(func=_cmd_frame_check)
    p = frame.add_parser("render", help="emit one needlet's graph as CSV")
    p.add_argument("--frame", required=True, help="saved frame (see frame build)")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--nu", type=int, required=True, help="1-based node index within the level")
    p.add_argument("--points", type=_point_count, default=1001)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_frame_render)

    model = sub.add_parser("model", help="sequence models").add_subparsers(
        dest="action", required=True
    )
    p = model.add_parser("dump", help="emit singular values as CSV")
    p.add_argument("--kind", choices=tuple(MODELS), default=next(iter(MODELS)))
    p.add_argument("--kmax", type=int, default=512)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_model_dump)

    p = sub.add_parser("estimate", help="estimate one observation file")
    p.add_argument("--model", choices=tuple(MODELS), default=next(iter(MODELS)))
    p.add_argument("--frame", help="saved frame (required for needd)")
    p.add_argument("--input", required=True, help="CSV with rows (i, Y_i)")
    p.add_argument("--method", choices=("needd", "svd-proj", "svd-adapt"), required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--kappa", type=float, default=KAPPA_DEFAULT)
    p.add_argument("--n-keep", type=int, default=None, help="projection cutoff index")
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--grid-n", type=int, default=1024, help="grid resolution bounding the adaptive cutoff")
    p.add_argument("--out", required=True)
    p.add_argument("--render", help="also write the natural-domain rendering (x, fhat(x))")
    p.add_argument("--points", type=_point_count, default=512, help="rendering grid size")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="run the Monte-Carlo bake-off")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output stem; writes <stem>_L1.csv, <stem>_RMSE.csv, <stem>.json")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("rates", help="noise-decay rate study (thresholding estimator)")
    p.add_argument("--config", required=True)
    p.add_argument("--eps", type=float, action="append", help="noise level (repeatable); default pinned ladder")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rates)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (InvariantError, NormResolutionError, UnresolvedIntegrandError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
