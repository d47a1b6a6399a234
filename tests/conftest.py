import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dscat import _worker
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
