"""Outside-in tracing of dscat's layers, for the benchmark's traced run.

While a traced pass runs, the public functions of each layer module are
replaced by wrappers that record one span per call: name, start, end and the
span that called it.  Names that other modules bound with `from .x import y`
are replaced too, since every attribute of a dscat module that is the original
function object gets the wrapper.  The DP5 integrator's `field` and `on_step`
arguments are wrapped to count field evaluations and accepted steps.  Spans are
kept in memory; self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Layer module -> functions wrapped.  `errors` and `__init__` do no work.
LAYERS = {
    "_rk": ("integrate_polyline", "integrate_polyline_rk4"),
    "curve": ("validate_path", "canonical_paths", "transport_w"),
    "transport": ("integrate_frame", "reference_frame", "scalar_ode_residual"),
    "monodromy": (
        "half_path_frames",
        "direct_loop_holonomy",
        "assemble_monodromies",
        "structure_defect",
        "period_functions",
    ),
    "period": (
        "scan_c",
        "refine_root",
        "bracketed_root",
        "_periods_at",
        "solve_gauge",
        "gauged_residuals",
        "verify_solution",
    ),
    "ends": (
        "end_loop_check",
        "lift_independence_check",
        "classify_end",
        "end_conjugacy_type",
        "indicial_exponent",
    ),
    "geometry": (
        "build_mesh",
        "symmetry_curves",
        "frame_at",
        "schwarzian_check",
        "small_formula_check",
    ),
    "linalg2c": (
        "mat2c",
        "det2",
        "max_abs",
        "su11_distance",
        "su11_distance_rel",
        "classify_su11",
        "eigenvalues",
        "sort_eigenvalues",
        "mobius_star",
    ),
    "cli": (
        "main",
        "cmd_scan",
        "cmd_solve",
        "cmd_classify",
        "cmd_mesh",
        "cmd_verify",
        "run_invariant_suite",
        "_solve_near",
        "_write_atomic",
        "_mesh_obj",
        "_mesh_csv",
        "_curves_csv",
    ),
}

# Counts recorded at a span's end, from the call's arguments and result.
OBSERVERS = {
    "geometry.build_mesh": lambda args, kw, res: {
        "nodes": 2 * args[1] * args[2], "holes": res.holes
    },
    "cli.run_invariant_suite": lambda args, kw, res: {"checks": len(res)},
    "cli._write_atomic": lambda args, kw, res: {"bytes": len(args[1].encode())},
    "monodromy.half_path_frames": lambda args, kw, res: {"ac": (args[0].a, args[0].c)},
}

# Units of the metrics that are wall times; every other metric is derived from
# counts alone and repeats exactly between traced runs of the same inputs.
TIMED_UNITS = ("s", "us")

# Span fields.  OP is the index of the op's root span, shared by every span
# of one op.
NAME, START, END, PARENT, OP, EXTRA = range(6)


class Tracer:
    """Collects spans of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        op = self.spans[parent][OP] if parent >= 0 else idx
        self.spans.append([name, time.perf_counter(), 0.0, parent, op, None])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, observe=None):
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if observe is not None:
                self.spans[idx][EXTRA] = observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_dp5(self, fn):
        """integrate_polyline, counting field evaluations and accepted steps."""

        def wrapper(waypoints, y0, field, **kwargs):
            evals = accepted = 0
            user = kwargs.get("on_step")

            def counted_field(z, u, y):
                nonlocal evals
                evals += 1
                return field(z, u, y)

            def counted_step(z, y):
                nonlocal accepted
                accepted += 1
                if user is not None:
                    user(z, y)

            kwargs["on_step"] = counted_step
            segments = sum(1 for p, q in zip(waypoints[:-1], waypoints[1:]) if q != p)
            idx = self._enter("_rk.integrate_polyline")
            try:
                return fn(waypoints, y0, counted_field, **kwargs)
            finally:
                self._exit(idx)
                self.spans[idx][EXTRA] = {
                    "evals": evals, "accepted": accepted, "segments": segments
                }

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Replace every dscat binding of the traced functions, restore on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "dscat" or n.startswith("dscat.")]
        replaced: list = []
        try:
            for layer, names in LAYERS.items():
                module = sys.modules[f"dscat.{layer}"]
                for fname in names:
                    orig = getattr(module, fname)
                    name = f"{layer}.{fname}"
                    if name == "_rk.integrate_polyline":
                        wrapper = self._wrap_dp5(orig)
                    else:
                        wrapper = self._wrap(name, orig, OBSERVERS.get(name))
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, attr, wrapper)
                                replaced.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(replaced):
                setattr(mod, attr, orig)


def _ancestors(spans: list, idx: int):
    parent = spans[idx][PARENT]
    while parent >= 0:
        yield spans[parent][NAME]
        parent = spans[parent][PARENT]


def layer_metrics(spans: list, n_ops: int) -> dict:
    """Per-layer metrics (value, unit) of the spans of one traced pass."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    calls: Counter = Counter()
    busy: dict = defaultdict(float)
    layer_self: dict = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s[NAME]] += 1
        busy[s[NAME]] += s[END] - s[START]
        layer_self[s[NAME].split(".")[0]] += s[END] - s[START] - child[i]

    def extras(name: str, key: str) -> list:
        return [s[EXTRA][key] for s in spans if s[NAME] == name and s[EXTRA]]

    def inside(name: str, outer: str) -> int:
        return sum(1 for i, s in enumerate(spans)
                   if s[NAME] == name and outer in _ancestors(spans, i))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    dp5 = "_rk.integrate_polyline"
    evals = sum(extras(dp5, "evals"))
    accepted = sum(extras(dp5, "accepted"))
    # DP5 makes six field calls per attempted step plus one restart call at the
    # start of every non-empty segment.
    attempted = (evals - sum(extras(dp5, "segments"))) // 6
    frame_steps = sum(s[EXTRA]["accepted"] for s in spans
                      if s[NAME] == dp5 and s[PARENT] >= 0
                      and spans[s[PARENT]][NAME] == "transport.integrate_frame")
    half_paths = extras("monodromy.half_path_frames", "ac")
    nodes = sum(extras("geometry.build_mesh", "nodes"))
    integrations = calls[dp5] + calls["_rk.integrate_polyline_rk4"]
    linalg = [n for n in calls if n.startswith("linalg2c.")]

    return {
        "rk.calls": (calls[dp5], "count"),
        "rk.busy_s": (busy[dp5], "s"),
        "rk.field_evals": (evals, "count"),
        "rk.us_per_field_eval": (ratio(busy[dp5], evals) * 1e6, "us"),
        "rk.accepted_steps": (accepted, "count"),
        "rk.rejected_steps": (attempted - accepted, "count"),
        "rk.accept_ratio": (ratio(accepted, attempted), "ratio"),
        "rk.rk4_calls": (calls["_rk.integrate_polyline_rk4"], "count"),
        "rk.rk4_busy_s": (busy["_rk.integrate_polyline_rk4"], "s"),
        "curve.validate_path_calls": (calls["curve.validate_path"], "count"),
        "curve.validate_path_s": (busy["curve.validate_path"], "s"),
        "curve.canonical_paths_calls": (calls["curve.canonical_paths"], "count"),
        "curve.canonical_paths_s": (busy["curve.canonical_paths"], "s"),
        "curve.transport_w_calls": (calls["curve.transport_w"], "count"),
        "transport.integrate_frame_calls": (calls["transport.integrate_frame"], "count"),
        "transport.reference_frame_calls": (calls["transport.reference_frame"], "count"),
        "transport.steps_per_call": (
            ratio(frame_steps, calls["transport.integrate_frame"]), "ratio"),
        "transport.self_s": (layer_self["transport"], "s"),
        "monodromy.half_path_calls": (calls["monodromy.half_path_frames"], "count"),
        "monodromy.direct_loop_calls": (calls["monodromy.direct_loop_holonomy"], "count"),
        "monodromy.self_s": (layer_self["monodromy"], "s"),
        "period.evals": (calls["period._periods_at"], "count"),
        "period.evals_per_bracket": (
            ratio(inside("period._periods_at", "period.refine_root"),
                  calls["period.refine_root"]), "ratio"),
        "period.distinct_c_ratio": (ratio(len(set(half_paths)), len(half_paths)), "ratio"),
        "period.scan_s": (busy["period.scan_c"], "s"),
        "period.refine_s": (busy["period.refine_root"], "s"),
        "period.verify_s": (busy["period.verify_solution"], "s"),
        "ends.end_loop_calls": (calls["ends.end_loop_check"], "count"),
        "ends.self_s": (layer_self["ends"], "s"),
        "geometry.mesh_s": (busy["geometry.build_mesh"], "s"),
        "geometry.mesh_nodes": (nodes, "count"),
        "geometry.integrations_per_node": (
            ratio(inside("transport.integrate_frame", "geometry.build_mesh"), nodes),
            "ratio"),
        "geometry.holes": (sum(extras("geometry.build_mesh", "holes")), "count"),
        "geometry.diag_s": (
            busy["geometry.schwarzian_check"] + busy["geometry.small_formula_check"], "s"),
        "linalg2c.calls": (sum(calls[n] for n in linalg), "count"),
        "linalg2c.s": (sum(busy[n] for n in linalg), "s"),
        "cli.self_s": (layer_self["cli"], "s"),
        "cli.checks_run": (sum(extras("cli.run_invariant_suite", "checks")), "count"),
        "cli.bytes_written": (sum(extras("cli._write_atomic", "bytes")), "bytes"),
        "cli.integrations_per_op": (ratio(integrations, n_ops), "ratio"),
    }
