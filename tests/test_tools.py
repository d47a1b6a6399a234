"""Every script under tools/ loads, and the dscat internals it reaches by name
resolve; bench_compare's summary is checked on canned pairs.
mesh_symmetry.py and output_digest.py have tests of their own."""

import importlib.util
import math
import os
import sys
from pathlib import Path

import pytest

from dscat import _rk, _worker, cli, curve, geometry, monodromy, transport

ROOT = Path(__file__).resolve().parents[1]
TOOLS, BENCH = ROOT / "tools", ROOT / "perfbench"


@pytest.fixture
def load(monkeypatch):
    """Load tools/<name>.py as a module, its `main` unrun; the sys.path
    entries it adds and the perfbench modules it imports go afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)

    def loader(name: str):
        spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    yield loader
    for name in set(sys.modules) - before:
        if Path(getattr(sys.modules[name], "__file__", None) or "").parent == BENCH:
            del sys.modules[name]


def test_op_costs_wraps_the_parts_it_times(load):
    op_costs = load("op_costs")
    parts = [
        (cli, "build_parser"),
        (curve, "canonical_paths"),
        (_worker, "pair"),
        (monodromy, "period_values"),
        (geometry, "build_mesh"),
        (_rk, "integrate_polyline_lanes"),
        (_rk, "integrate_polyline"),
        (transport, "transfer"),
        (cli, "_write_atomic"),
    ]
    originals = [getattr(module, name) for module, name in parts]
    with op_costs.timing(op_costs.Clock()):
        assert all(getattr(m, n) is not f for (m, n), f in zip(parts, originals))
    assert all(getattr(m, n) is f for (m, n), f in zip(parts, originals))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="overlap forks")
def test_op_costs_overlap_is_a_ratio_of_wall_times(load):
    ratio = load("op_costs").overlap(10_000)
    assert math.isfinite(ratio) and ratio > 0.0


def test_scan_shares_captures_each_blocks_pair(load):
    scan_shares = load("scan_shares")
    pair = _worker.pair
    [(there, here)] = scan_shares.scan_blocks(2.0, -9.0, -6.4, 27)
    assert _worker.pair is pair
    paths = curve.canonical_paths(2.0)
    assert there[:2] == (paths.c1, 2.0) and here[:2] == (paths.c2, 2.0)
    assert there[2].size == here[2].size == 27


def test_scan_accuracy_loads(load):
    scan_accuracy = load("scan_accuracy")
    assert callable(scan_accuracy.main) and scan_accuracy.REFERENCE.rel_tol == 1e-13


def test_bench_compare_summarizes_pairs(load):
    summarize = load("bench_compare").summarize

    def result(work, rss, failed=0):
        return {"correct": failed == 0, "attempted": 10, "failed": failed,
                "metrics": {"work_per_s": {"value": work, "unit": "1/s"},
                            "peak_rss_mb": {"value": rss, "unit": "MB"}}}

    # this checkout loses the third solve pair on work_per_s, and its median
    # peak RSS is 10.6% above the reference's, beyond the bound of 10%
    pairs = [
        {"workload": "solve", "seed": 4, "overlap": overlap,
         "ref": result(r_work, 40.0), "this": result(t_work, t_rss)}
        for overlap, r_work, t_work, t_rss in (
            (1.0, 6.0, 11.0, 44.0), (2.0, 5.0, 12.0, 45.0), (1.2, 7.0, 6.9, 44.5),
            (1.1, 6.5, 11.5, 39.0))
    ] + [{"workload": "mesh", "seed": 4, "overlap": 1.5,
          "ref": result(3800.0, 40.0), "this": result(5000.0, 40.0, failed=1)}]
    end_to_end = [{"name": "work_per_s", "better": "higher", "bound": 0.24},
                  {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    summary = summarize(pairs, end_to_end)
    assert list(summary) == ["solve", "mesh"]
    solve = summary["solve"]
    assert solve["pairs"] == 4
    assert solve["overlap"] == pytest.approx({"median": 1.15, "q1": 1.075, "q3": 1.4})
    assert solve["correct"] == {"ref": True, "this": True}
    work = solve["metrics"]["work_per_s"]
    # inclusive quartiles of 5, 6, 6.5, 7 and of 6.9, 11, 11.5, 12
    assert work["ref"] == pytest.approx({"median": 6.25, "q1": 5.75, "q3": 6.625})
    assert work["this"] == pytest.approx({"median": 11.25, "q1": 9.975, "q3": 11.625})
    assert work["wins"] == 3 and work["change"] == pytest.approx(0.8)
    assert work["beyond_ref_iqr"] and work["within_bound"]
    rss = solve["metrics"]["peak_rss_mb"]
    assert rss["ref"] == {"median": 40.0, "q1": 40.0, "q3": 40.0}
    assert rss["this"]["median"] == pytest.approx(44.25)
    assert rss["wins"] == 1 and rss["change"] == pytest.approx(0.10625)
    assert not rss["beyond_ref_iqr"] and not rss["within_bound"]
    # one pair: each spread is its value; the failed op is counted
    mesh = summary["mesh"]
    assert mesh["correct"] == {"ref": True, "this": False}
    assert mesh["failed"] == {"ref": 0, "this": 1}
    assert mesh["metrics"]["work_per_s"]["this"] == {"median": 5000.0, "q1": 5000.0, "q3": 5000.0}
    assert mesh["metrics"]["work_per_s"]["wins"] == 1
