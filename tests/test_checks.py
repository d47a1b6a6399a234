"""The check context: checks that read the states of integrations the context
has run already give what they gave with integrations of their own, and
integrate nothing more.  The suite, with the checks run in the worker process
on a pickled copy of the context and geometry-invariants with its mesh run
here, gives the results of a serial run."""

import os
import pickle

import numpy as np
import pytest
from conftest import one_cpu, serially, two_cpus

from dscat import _rk, _worker, checks, geometry, transport
from dscat.errors import ContinuationError
from dscat.monodromy import direct_loop_holonomy

A, C = 2.0, -1.526035


@pytest.fixture
def ctx():
    return checks.CheckContext(A, C, transport.DEFAULT_CONFIG)


@pytest.fixture
def dp5_calls(monkeypatch):
    calls = []
    kernel = _rk.integrate_polyline

    def counted(*args, **kwargs):
        calls.append(args[0])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(_rk, "integrate_polyline", counted)
    return calls


def test_checks_reuse_context_integrations(ctx, dp5_calls):
    ctx.holonomy("gamma2")
    ctx.half_paths()
    built = len(dp5_calls)
    for check in (checks._det_preservation, checks._scalar_residual):
        assert check(ctx)[0]
    assert len(dp5_calls) == built
    # lift-independence integrates only the lift from B.
    assert checks._lift_independence(ctx)[0]
    assert dp5_calls[built:] == [ctx.paths.gamma2.waypoints]


def test_captured_states_match_own_integrations(ctx):
    for name in ("gamma2", "c1", "c2"):
        own = []
        transport.integrate_frame(
            getattr(ctx.paths, name), ctx.params, on_step=lambda z, y: own.append((z, y))
        )
        assert ctx.states(name) == own, name
    for name in ("c1", "c2"):
        path = getattr(ctx.paths, name)
        assert transport.row_equation_residual(ctx.states(name), ctx.params) == (
            transport.scalar_ode_residual(path, ctx.params)
        )
    assert np.array_equal(
        ctx.holonomy("gamma2"), direct_loop_holonomy(ctx.paths.gamma2, ctx.params)
    )


def suite(c: float = C, deep: bool = False) -> list:
    return checks.run_invariant_suite(A, c, transport.DEFAULT_CONFIG, deep=deep)


def patched_mesh(monkeypatch, error=None) -> list:
    """Replace geometry.build_mesh by one that records the pid it runs in and
    raises error, if one is given; returns the record of this process."""
    calls = []
    real = geometry.build_mesh

    def build_mesh(*args, **kwargs):
        calls.append(os.getpid())
        if error is not None:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(geometry, "build_mesh", build_mesh)
    return calls


@two_cpus
@pytest.mark.usefixtures("fresh_worker")
@pytest.mark.parametrize(
    "c, deep, solved",
    [(C, True, True), (3.5, False, False), (-0.55, False, False)],
    ids=["root-deep", "no-crossing", "pole"],
)
def test_suite_in_two_processes_equals_serial(monkeypatch, c, deep, solved):
    sent = []
    pair = _worker.pair

    def recorded(name, there, here):
        if name == "dscat.checks._run_checks":
            # the context goes out with its root refined, or its error cached
            sent.append(("root" in there[0]._built, [check for check, _ in here[1]]))
        else:
            assert name == "dscat.transport.integrate_frame"
        return pair(name, there, here)

    monkeypatch.setattr(_worker, "pair", recorded)
    calls = patched_mesh(monkeypatch)
    parallel = suite(c, deep)
    assert isinstance(_worker._current, _worker._Worker)
    # refinement sends its half paths; the suite sends its checks once,
    # whether or not the root has a solution, and keeps geometry-invariants
    assert sent == [(True, ["geometry-invariants"])]
    # the mesh was built here, or not at all
    assert calls == ([os.getpid()] if solved else [])
    registry = checks.CHECKS + (checks.DEEP_CHECKS if deep else ())
    assert [name for name, _, _ in parallel] == [name for name, _ in registry]
    assert parallel == serially(monkeypatch, lambda: suite(c, deep))


@two_cpus
@pytest.mark.usefixtures("fresh_worker")
def test_mesh_error_fails_geometry_invariants_alone(monkeypatch):
    calls = patched_mesh(monkeypatch, ContinuationError("no mesh here"))
    parallel = suite()
    assert calls == [os.getpid()]
    serial = serially(monkeypatch, suite)
    assert calls == [os.getpid()] * 2
    assert parallel == serial
    assert [name for name, ok, _ in parallel if not ok] == ["geometry-invariants"]
    assert dict((name, detail) for name, _, detail in parallel)["geometry-invariants"] == (
        "ContinuationError: no mesh here"
    )


@two_cpus
@pytest.mark.usefixtures("fresh_worker")
def test_other_mesh_errors_propagate(monkeypatch):
    calls = patched_mesh(monkeypatch, RuntimeError("a bug"))
    with pytest.raises(RuntimeError, match="a bug"):
        suite()
    assert calls == [os.getpid()]
    with pytest.raises(RuntimeError, match="a bug"):
        serially(monkeypatch, suite)
    assert calls == [os.getpid()] * 2


def test_period_crossing_fails_where_the_window_contains_zero():
    # near(0.004) = (-0.006, 0.014) contains c = 0, which refine_root rejects
    ctx = checks.CheckContext(A, 0.004, transport.DEFAULT_CONFIG)
    registry = tuple(pair for pair in checks.CHECKS if pair[0] == "period-crossing")
    [(_, ok, detail)] = checks._run_checks(ctx, registry)
    assert not ok
    assert detail == (
        "DomainError: bracket [-0.006, 0.014] contains c = 0, which is neither a root nor a pole"
    )


def test_mesh_is_built_once(monkeypatch, ctx):
    calls = patched_mesh(monkeypatch)
    assert ctx.mesh() is ctx.mesh()
    assert len(calls) == 1
    one_cpu(monkeypatch)
    suite()
    assert len(calls) == 2


def test_pickled_context_keeps_what_it_built(monkeypatch, ctx):
    calls = patched_mesh(monkeypatch, ContinuationError("no mesh here"))
    assert ctx.maybe(ctx.mesh) is None
    copy = pickle.loads(pickle.dumps(ctx, pickle.HIGHEST_PROTOCOL))
    assert sorted(copy._built) == ["gauge", "mesh", "root", "solution"]
    for name in ("root", "gauge", "solution"):
        assert pickle.dumps(getattr(copy, name)()) == pickle.dumps(getattr(ctx, name)())
    # the cached error is raised again, not rebuilt
    with pytest.raises(ContinuationError, match="no mesh here"):
        copy.mesh()
    assert len(calls) == 1
    assert checks._run_checks(copy, checks.CHECKS) == checks._run_checks(ctx, checks.CHECKS)
