"""Every script under tools/ loads, and the dscat internals it reaches by name
resolve.  mesh_symmetry.py and output_digest.py have tests of their own."""

import importlib.util
import math
import os
import sys
from pathlib import Path

import pytest

from dscat import _rk, _worker, cli, curve, geometry, monodromy

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
