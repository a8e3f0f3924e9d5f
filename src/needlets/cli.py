"""Command-line front end.

Subcommands mirror the package layers: `quad dump` and `filter plot` for
inspecting the building blocks, `frame build/check/render` for persisted
frames, `model dump` for singular values, `estimate` for one observation
file, and `simulate`/`rates` for the Monte-Carlo studies. All tabular
output is plain CSV written by simlab.write_csv, to stdout unless --out is
given. Exit codes: 0 success, 1 for I/O, configuration or allocation
problems, 2 when a mathematical invariant fails.
"""

from __future__ import annotations

import argparse
import csv
import sys
from functools import partial

import numpy as np

from .errors import InvariantError, NormResolutionError, UnresolvedIntegrandError
from .estimators import (
    GAMMA_DEFAULT,
    GRID_N_DEFAULT,
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
from .losses import grid_points
from .models import POWER_LAWS, SequenceObservation, eval_e, power_model
from .simlab import (
    FrameSpec,
    RatesConfig,
    check_rate_ladder,
    emit_report,
    load_config,
    rate_study,
    run_experiment,
    write_csv,
)

# four decades so the fitted slope is past the threshold-regime transient
RATE_EPS_DEFAULT = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5)

# power_model constructors of kmax by kind (POWER_LAWS); the first is the default, rates runs all
MODELS = {kind: partial(power_model, kind, nu, scale) for kind, (nu, scale) in POWER_LAWS.items()}

# the estimate flags that belong to one method each, with their defaults;
# a flag of another method than the one run is refused by name
METHOD_FLAGS = {
    "needd": {"frame": None, "kappa": KAPPA_DEFAULT},
    "svd-proj": {"n_keep": None},
    "svd-adapt": {"gamma": GAMMA_DEFAULT, "grid_n": GRID_N_DEFAULT},
}


def _cmd_quad_dump(args) -> int:
    rule = gauss_jacobi_rule(jacobi_basis(args.alpha, args.beta), args.n)
    write_csv(args.out, ["index", "node", "weight"], zip(range(rule.order), rule.nodes, rule.weights))
    return 0


def _cmd_filter_plot(args) -> int:
    filt = make_filter(make_profile(POLYNOMIAL_SHAPE, args.m))
    xi = np.linspace(0.0, 2.5, args.points)
    write_csv(args.out, ["xi", "a"], zip(xi, filter_a(filt, xi)))
    return 0


def _cmd_frame_build(args) -> int:
    # each level is written once its self-check passes and dropped before
    # the next is built; a failed level leaves --out as it was
    spec = FrameSpec(args.jmax, args.m, args.nodes_per_level)
    params = (jacobi_basis(args.alpha, args.beta), spec.filt, spec.jmax, spec.nodes_per_level)
    defect = write_levels(args.out, *params, frame_levels(*params))
    print(f"wrote {args.out}: basis=jacobi j_max={spec.jmax} budget={spec.budget} defect={defect:.3g}")
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
    write_csv(args.out, ["x", "psi"], zip(x, needlet_values(frame, args.j, args.nu, x)))
    return 0


def _cmd_model_dump(args) -> int:
    model = MODELS[args.kind](args.kmax)
    write_csv(args.out, ["k", "b"], enumerate(model.b))
    return 0


def _read_observation(path, epsilon) -> SequenceObservation:
    rows = []
    # utf-8-sig drops a byte-order mark, which would make row 0 read as a header
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for n, row in enumerate(r for r in reader if "".join(r).strip()):
            try:
                k, y = row
                rows.append((int(k), float(y)))
            except ValueError:
                # only the first non-blank row may be a header, and only if it opens with no index
                if n > 0 or row[0].strip().lstrip("+-").isdecimal():
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


def _method_flags(args) -> None:
    """Refuse the flags of the methods args.method is not, and default its own."""
    stray = [
        "--" + name.replace("_", "-")
        for method, flags in METHOD_FLAGS.items()
        if method != args.method
        for name in flags
        if getattr(args, name) is not None
    ]
    if stray:
        raise ValueError(f"--method {args.method} takes no {', '.join(stray)}")
    for name, default in METHOD_FLAGS[args.method].items():
        if getattr(args, name) is None:
            setattr(args, name, default)


def _cmd_estimate(args) -> int:
    _method_flags(args)
    obs = _read_observation(args.input, args.epsilon)
    kmax = obs.kmax
    model = MODELS[args.model](kmax)

    if args.method == "needd":
        if args.frame is None:
            raise ValueError("--frame is required for the thresholding method")
        frame = load_frame(args.frame)
        if kmax + 1 < frame.budget:
            raise ValueError(
                f"{args.input} holds {kmax + 1} coefficients, but frame {args.frame} "
                f"(j_max {frame.j_max}) needs {frame.budget}"
            )
        plan = make_threshold_plan(frame, model, args.epsilon, kappa=args.kappa)
        fhat = need_d(frame, model, obs, plan).coeffs
    elif args.method == "svd-proj":
        n_keep = args.n_keep if args.n_keep is not None else kmax // 2
        fhat = svd_projection(model, obs, n_keep)
    else:
        config = make_adaptive_config(model, args.epsilon, args.grid_n, args.gamma)
        fhat = svd_adaptive(model, obs, config)

    write_csv(args.out, ["i", "fhat"], enumerate(fhat))
    if args.render is not None:
        x = grid_points(args.points)
        write_csv(args.render, ["x", "fhat"], zip(x, np.asarray(fhat) @ eval_e(model, len(fhat) - 1, x)))
    return 0


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    report = run_experiment(config)
    print("wrote " + ", ".join(emit_report(report, args.out)))
    return 0


def _cmd_rates(args) -> int:
    config = load_config(args.config, RatesConfig)
    # the ladder is refused before the models and the frame are built
    eps_list = check_rate_ladder(args.eps or RATE_EPS_DEFAULT, config.runs)
    models = [make(config.frame.budget) for make in MODELS.values()]
    frame = config.frame.build(models[0].basis)
    studies = rate_study(
        models, frame, config.target, eps_list, config.runs,
        n=config.n, kappa=config.needd.kappa, master_seed=config.seed,
    )
    write_csv(args.out, ["model", "eps", "mean_rmse", "slope", "slope_stderr"], (
        [model.kind, e, m, study.slope, study.slope_stderr]
        for model, study in zip(models, studies)
        for e, m in zip(study.eps, study.mean_rmse)
    ))
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
    p.add_argument("--frame", help="saved frame (needd, required)")
    p.add_argument("--input", required=True, help="CSV with rows (i, Y_i)")
    p.add_argument("--method", choices=tuple(METHOD_FLAGS), required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--kappa", type=float, help=f"threshold constant (needd; default {KAPPA_DEFAULT})")
    p.add_argument("--n-keep", type=int, help="projection cutoff index (svd-proj; default kmax // 2)")
    p.add_argument("--gamma", type=float, help=f"block filter constant in (0, 1/2) (svd-adapt; default {GAMMA_DEFAULT})")
    p.add_argument("--grid-n", type=int, help=f"grid resolution bounding the adaptive cutoff (svd-adapt; default {GRID_N_DEFAULT})")
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
    except (OSError, ValueError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
