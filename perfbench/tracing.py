"""Per-layer spans recorded from outside the package.

The traced worker wraps each public function listed in TARGETS and rebinds
the wrapper under every name that holds the original in a `needlets`
module namespace, so calls made through `from .frame import analyze` are
seen as well as calls through the defining module. Nothing under `src/`
knows about this. `Tracer.remove` puts every original back.

A span is `[name, start, end, parent, op_id, counts]`: `parent` is the index
of the enclosing span in the same op (-1 at the top), `counts` the work
counts of that call. Counts are computed from argument and result shapes
(bytes of `psi` levels touched, rule nodes, table sizes); they are not
measured traffic.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

_MARK = "__perfbench_wrapped__"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rule_nodes(args, kwargs, result):
    return {"nodes": int(result.order)}


def _table_values(args, kwargs, result):
    return {"values": int(result.size)}


def _psi_bytes(args, kwargs, result):
    frame = _arg(args, kwargs, 0, "frame")
    return {"psi_bytes": sum(int(lev.psi.nbytes) for lev in frame.levels)}


def _need_d_psi(args, kwargs, result):
    frame = _arg(args, kwargs, 0, "frame")
    plan = _arg(args, kwargs, 3, "plan")
    sizes = [(lev.j, int(lev.psi.nbytes)) for lev in frame.levels]
    return {
        "psi_bytes": sum(b for _, b in sizes),
        "useful_psi_bytes": sum(b for j, b in sizes if j <= plan.j_top),
    }


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _loaded_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _report_bytes(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


def _sweep_bytes(args, kwargs, result):
    # _projection_cell builds one cumulative (budget+1, n) float64 table per
    # run of every projection cell; budget = 2^(jmax+1) for a jacobi frame
    config = _arg(args, kwargs, 0, "config")
    if "svd-proj" not in config.estimators:
        return {"sweep_bytes": 0}
    cells = len(config.targets) * len(config.rsnr)
    rows = 2 ** (config.frame.jmax + 1) + 1
    return {"sweep_bytes": cells * config.runs * rows * config.n * 8}


# (module, function, counter, exported per-layer fields besides self_s)
TARGETS = (
    ("needlets.jacobi", "gauss_jacobi_rule", _rule_nodes, ("calls", "nodes")),
    ("needlets.jacobi", "jacobi_eval_all", _table_values, ("values",)),
    ("needlets.frame", "build_frame", None, ()),
    ("needlets.frame", "analyze", _psi_bytes, ("calls", "psi_bytes")),
    ("needlets.frame", "synthesize", _psi_bytes, ("calls", "psi_bytes")),
    ("needlets.frame", "level_sigma", None, ("calls",)),
    ("needlets.frameio", "save_frame", _saved_bytes, ("bytes",)),
    ("needlets.frameio", "load_frame", _loaded_bytes, ("bytes",)),
    ("needlets.models", "coeffs_from_function", None, ("calls",)),
    ("needlets.models", "calibrate_epsilon", None, ()),
    ("needlets.models", "eval_e", None, ()),
    ("needlets.models", "sample_observation", None, ("calls",)),
    ("needlets.estimators", "need_d", _need_d_psi, ("calls", "useful_psi_frac")),
    ("needlets.estimators", "make_threshold_plan", None, ()),
    ("needlets.estimators", "svd_adaptive", None, ("calls",)),
    ("needlets.losses", "weighted_loss", None, ("calls",)),
    ("needlets.simlab", "run_experiment", _sweep_bytes, ("sweep_bytes",)),
    ("needlets.simlab", "rate_study", None, ()),
    ("needlets.simlab", "emit_report", _report_bytes, ("bytes",)),
    ("needlets.cli", "main", None, ()),
)

_UNITS = {
    "self_s": ("s", "lower"),
    "calls": ("count", "lower"),
    "nodes": ("count", "lower"),
    "values": ("count", "lower"),
    "psi_bytes": ("bytes", "lower"),
    "sweep_bytes": ("bytes", "lower"),
    "bytes": ("bytes", "lower"),
    "useful_psi_frac": ("ratio", "higher"),
}

# fields derived from argument and result shapes, not measured
COMPUTED_FIELDS = ("nodes", "values", "psi_bytes", "sweep_bytes", "useful_psi_frac")

OVERHEAD_METRIC = ("trace.overhead_s", "s", "lower")


def span_name(module: str, func: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{func}"


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, func, _, fields in TARGETS:
        for field in ("self_s",) + fields:
            out.append((f"{span_name(module, func)}.{field}",) + _UNITS[field])
    out.append(OVERHEAD_METRIC)
    return out


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "needlets" or n.startswith("needlets.")]


def count_wrapped() -> int:
    """Names in `needlets` module namespaces that are currently bound to a wrapper."""
    return sum(
        1
        for mod in _package_modules()
        for value in vars(mod).values()
        if getattr(value, _MARK, False)
    )


class Tracer:
    """Installs span-recording wrappers for one op and keeps its spans."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, counter):
        spans, stack, op_id = self.spans, self._stack, self.op_id

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module, _, _, _ in TARGETS:
            importlib.import_module(module)
        modules = _package_modules()
        for module, func, counter, _ in TARGETS:
            original = getattr(sys.modules[module], func)
            wrapper = self._wrap(span_name(module, func), original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._saved.append((mod, attr, original))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans.

    `spans` holds the spans of one op, indexed as their `parent` fields are.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span[1]
        for start, end in sorted(children.get(i, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(span[2] - span[1] - covered)
    return out
