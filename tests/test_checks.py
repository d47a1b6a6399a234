"""The check context: checks that read the states of integrations the context
has run already give what they gave with integrations of their own, and
integrate nothing more."""

import numpy as np
import pytest

from dscat import _rk, checks, transport
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
