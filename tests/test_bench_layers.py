"""The benchmark's traced run (perfbench/tracing.py) wraps dscat functions by
name, so every name it lists must exist in its dscat module, and its counters
must agree with what the kernels do untraced."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from dscat import _worker, checks, monodromy, period, transport
from dscat.curve import CurveParams, canonical_paths

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    tracing = _load_tracing()
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"dscat.{layer}"), name, None))
    ]
    assert missing == []


def test_traced_counts_match_untraced_integration():
    tracing = _load_tracing()
    params = CurveParams(2.0, -1.526035)
    path = canonical_paths(params).gamma1
    steps = []
    untraced = transport.integrate_frame(path, params, on_step=lambda z, y: steps.append(z))
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = transport.integrate_frame(path, params)
    (span,) = [s for s in tracer.spans if s[tracing.NAME] == "_rk.integrate_polyline"]
    counts = span[tracing.EXTRA]
    assert counts["accepted"] == len(steps) > 0
    # layer_metrics counts attempted steps as (evals - segments) / 6.
    assert (counts["evals"] - counts["segments"]) % 6 == 0
    assert (counts["evals"] - counts["segments"]) // 6 >= counts["accepted"]
    assert np.array_equal(traced.F, untraced.F)
    assert traced.point == untraced.point


def test_traced_reference_agreement_records_two_rk4_calls():
    # rk.rk4_calls and rk.rk4_busy_s of the benchmark count the spans of
    # _rk.integrate_polyline_rk4, which exist only while reference_frame calls
    # the kernel through that module attribute.
    tracing = _load_tracing()
    ctx = checks.CheckContext(2.0, -1.526035, transport.DEFAULT_CONFIG)
    tracer = tracing.Tracer()
    with tracer.installed():
        ok, _ = checks._reference_agreement(ctx)
    assert ok
    name = "_rk.integrate_polyline_rk4"
    rk4 = [i for i, s in enumerate(tracer.spans) if s[tracing.NAME] == name]
    assert len(rk4) == 2
    assert all(
        tracer.spans[tracer.spans[i][tracing.PARENT]][tracing.NAME] == "transport.reference_frame"
        for i in rk4
    )


def test_traced_calls_through_the_worker_return_untraced_results():
    # The tracer replaces module functions with closures, which cannot be
    # pickled; the worker receives the function's name and looks it up in
    # its own copy of the package, so traced half paths and scans still run
    # there.  The worker is forked once before the tracer is installed (as
    # in the benchmark, whose untraced pass comes first) and once while it
    # is installed.
    tracing = _load_tracing()
    params = CurveParams(2.0, -1.526035)
    paths = canonical_paths(params)

    def run():
        h = monodromy.half_path_frames(params, paths=paths)
        return h.F_c1.tobytes(), h.F_c2.tobytes(), period.scan_c(2.0, -6.4, -3.8, 27)

    _worker.shutdown()
    untraced = run()
    try:
        for fork_while_traced in (False, True):
            if fork_while_traced:
                _worker.shutdown()
            tracer = tracing.Tracer()
            with tracer.installed():
                assert run() == untraced
            if _worker._current:
                # c1 ran in the worker: the tracer saw only c2
                frames = [s for s in tracer.spans if s[tracing.NAME] == "transport.integrate_frame"]
                assert len(frames) == 1
    finally:
        _worker.shutdown()
