"""Every script under tools/ loads, and the dscat internals it reaches by name
resolve.  mesh_symmetry.py and output_digest.py have tests of their own."""

import importlib.util
import sys
from pathlib import Path

import pytest

from dscat import _rk, _worker, cli, curve, geometry, monodromy, period

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


def test_scan_shares_captures_the_planned_jobs(load):
    scan_shares = load("scan_shares")
    plan_all = period._transfer_all
    jobs = scan_shares.planned_jobs(2.0, -9.0, -6.4, 27)
    assert period._transfer_all is plan_all
    assert jobs and all(len(cs) for _, cs in jobs)


def test_scan_accuracy_loads(load):
    scan_accuracy = load("scan_accuracy")
    assert callable(scan_accuracy.main) and scan_accuracy.REFERENCE.rel_tol == 1e-13
