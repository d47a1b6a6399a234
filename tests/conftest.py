import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dscat import _rk, _worker
from dscat.geometry import build_mesh
from dscat.period import solve_at_bracket

settings.register_profile(
    "pkg",
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("pkg")

two_cpus = pytest.mark.skipif(
    not hasattr(os, "fork") or len(os.sched_getaffinity(0)) < 2,
    reason="the worker needs fork and a second CPU",
)


@pytest.fixture
def fresh_worker():
    """The test starts without a worker and leaves none behind."""
    _worker.shutdown()
    yield
    _worker.shutdown()


def one_cpu(monkeypatch):
    """Hide the second CPU, which disables the worker of _worker.pair."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def serially(monkeypatch, call):
    """call() with the worker disabled."""
    with monkeypatch.context() as m:
        one_cpu(m)
        return call()


def pid_and_pair(nested: bool) -> tuple:
    """(pid, None), or with nested (pid, the pair of two pid_and_pair(False)
    calls): a named function whose call makes a pair of its own."""
    inner = _worker.pair("conftest.pid_and_pair", (False,), (False,)) if nested else None
    return os.getpid(), inner


def logged(log: list, value):
    """value, appended to log first; raised where it is an exception."""
    log.append(value)
    if isinstance(value, Exception):
        raise value
    return value


def scan_bytes(result) -> tuple:
    """The bytes of each array of a ScanResult, NaN at skipped points
    included: equal for two scans that agree bit for bit."""
    return tuple(getattr(result, f.name).tobytes() for f in dataclasses.fields(result))


def quadric_residuals(X: np.ndarray) -> np.ndarray:
    """|<X, X> - 1| of each row of X, normalized by its squared Euclidean
    size.  Surface points satisfy <X, X> = 1; near the ends the components
    grow without bound and the absolute defect is floored at size^2 * 1e-16,
    hence the normalization."""
    lorentz = -X[:, 0] ** 2 + (X[:, 1:] ** 2).sum(axis=1)
    return np.abs(lorentz - 1.0) / np.maximum(1.0, (X ** 2).sum(axis=1))


# The fraction of the step at which each of the stages 2-7 of
# reference_lanes evaluates its field.
_STAGE_NODES = (0.2, 0.3, 0.8, 8 / 9, 1.0, 1.0)


def reference_lanes(waypoints, y0, field, *, cfg=_rk.DEFAULT_CONFIG, on_step=None):
    """The lane kernel as it was when it took its field as an argument:
    dy/ds = field(z, u, y) for an (n, n_lanes) array y of states, any n,
    one call of field per stage, the tableau of _rk and its controller
    _rk._drive.  The reference whose bits _rk.integrate_polyline_lanes must
    give on the frame field, and the generic kernel of the controller tests."""
    y = np.array(y0, dtype=complex)
    return _rk._drive(waypoints, y, field, _reference_lane_step(y), cfg, on_step)


def _reference_lane_step(y0: np.ndarray):
    """The DP5 step of reference_lanes from the start state y0.  k[j] holds
    k_{j+1}; k7 is returned as the view k[6], and a k1 not yet in k[0] is
    copied there, so a rejected step copies nothing.  |y| is kept from the
    step that produced y, and the error is the worst lane's."""
    n = y0.shape[0]
    k = np.empty((7,) + y0.shape, dtype=complex)
    y_abs = np.abs(y0)
    k1_in = last = last_abs = None

    def step(field, z0, u, h, y, k1, rel_tol, abs_tol):
        nonlocal k1_in, y_abs, last, last_abs
        if k1 is not k1_in:
            k[0] = k1_in = k1
        if y is last:  # the last step was accepted
            y_abs = last_abs
        for j, node in enumerate(_STAGE_NODES):
            y_j = y + h * np.add.reduce(_rk._STAGE_W[j, : j + 1] * k[: j + 1])
            k[j + 1] = field(z0 + node * h * u, u, y_j)
        e = h * np.add.reduce(_rk._ERR_W * k)
        last, last_abs = y_j, np.abs(y_j)
        ratio = np.abs(e) / (abs_tol + rel_tol * np.maximum(y_abs, last_abs))
        return y_j, k[6], math.sqrt(float((ratio * ratio).sum(axis=0).max()) / n)

    return step


def segment_distance(p: complex, q: complex, b: complex) -> float:
    """Distance from point b to the segment [p, q], one segment at a time:
    the reference for curve._segment_distances."""
    d = q - p
    dd = (d * d.conjugate()).real
    if dd == 0.0:
        return abs(b - p)
    if not math.isfinite(dd):  # |d|^2 overflows: project on the unit direction
        half = q / 2 - p / 2
        u = half / abs(half)
        t = min(2 * abs(half), max(0.0, ((b - p) * u.conjugate()).real))
        return abs(b - (p + t * u))
    t = ((b - p) * d.conjugate()).real / dd
    t = min(1.0, max(0.0, t))
    return abs(b - (p + t * d))


# Sign-change brackets of the four closable crossings at a = 2.
BRACKETS = {
    "deep_elliptic": (-7.65, -7.58),
    "mid_elliptic": (-4.10, -4.02),
    "shallow_elliptic": (-1.55, -1.50),
    "hyperbolic": (1.25, 1.29),
}


@pytest.fixture(scope="session")
def shallow_solution():
    return solve_at_bracket(2.0, BRACKETS["shallow_elliptic"], tol_c=1e-12)


@pytest.fixture(scope="session")
def hyperbolic_solution():
    return solve_at_bracket(2.0, BRACKETS["hyperbolic"], tol_c=1e-12)


@pytest.fixture(scope="session")
def deep_solution():
    return solve_at_bracket(2.0, BRACKETS["deep_elliptic"], tol_c=1e-12)


@pytest.fixture(scope="session")
def mid_solution():
    return solve_at_bracket(2.0, BRACKETS["mid_elliptic"], tol_c=1e-12)


@pytest.fixture(scope="session")
def shallow_mesh(shallow_solution):
    return build_mesh(shallow_solution, 10, 12)


@pytest.fixture(scope="session")
def deep_mesh(deep_solution):
    return build_mesh(deep_solution, 10, 12)
