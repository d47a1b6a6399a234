"""The half paths integrated in two processes give the results of a serial run.

_worker.pair runs c1 (or the scan's c1 lane call) in a persistent worker
process while the caller integrates c2.  Every result here is compared with
== against the same call with the worker disabled, which is what a patched
os.sched_getaffinity returning one CPU does.
"""

import dataclasses
import os
import signal
import sys
import threading

import pytest

from dscat import _worker
from dscat.curve import CurveParams, PathSpec, base_point, canonical_paths
from dscat.errors import DomainError, PathError
from dscat.monodromy import half_path_frames
from dscat.period import scan_c

ROOTS = (-7.611914, -4.06015, -1.526035, 1.26988, 5.33317)

two_cpus = pytest.mark.skipif(
    not hasattr(os, "fork") or len(os.sched_getaffinity(0)) < 2,
    reason="the worker needs fork and a second CPU",
)


@pytest.fixture(autouse=True)
def fresh_worker():
    """Each test starts without a worker and leaves none behind."""
    _worker.shutdown()
    yield
    _worker.shutdown()


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def serially(monkeypatch, call):
    """call() with the worker disabled."""
    with monkeypatch.context() as m:
        one_cpu(m)
        return call()


def frames(c: float):
    params = CurveParams(2.0, c)
    h = half_path_frames(params, paths=canonical_paths(params))
    return h.F_c1, h.F_c2


def worker_pid() -> int:
    assert isinstance(_worker._current, _worker._Worker)
    return _worker._current.pid


def reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@two_cpus
@pytest.mark.parametrize("c", ROOTS)
def test_half_path_frames_equal_serial(monkeypatch, c):
    F1, F2 = frames(c)
    worker_pid()
    S1, S2 = serially(monkeypatch, lambda: frames(c))
    assert F1.tobytes() == S1.tobytes() and F2.tobytes() == S2.tobytes()


@two_cpus
def test_scan_chunk_across_the_pole_equals_serial(monkeypatch):
    # the benchmark's chunk [-6.4, -3.8] holds the pole of f2 near -4.80
    parallel = scan_c(2.0, -6.4, -3.8, 27)
    worker_pid()
    serial = serially(monkeypatch, lambda: scan_c(2.0, -6.4, -3.8, 27))
    assert any(r.c < -4.8 for r in serial.records) and any(r.c > -4.8 for r in serial.records)
    assert parallel.records == serial.records
    assert parallel.brackets == serial.brackets
    assert parallel.skipped == serial.skipped


def bad_paths(c1_goes_to=None, c2_goes_to=None) -> tuple:
    """params at a root and its canonical paths with c1 and/or c2 replaced by
    a segment from the base point through a branch point."""
    params = CurveParams(2.0, -1.526035)
    paths = canonical_paths(params)
    changes = {
        name: PathSpec(base_point(+1), (0j, complex(end)))
        for name, end in (("c1", c1_goes_to), ("c2", c2_goes_to))
        if end is not None
    }
    return params, dataclasses.replace(paths, **changes)


def error_of(call) -> tuple:
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@two_cpus
@pytest.mark.parametrize(
    "bad, branch",
    [
        # both fail: c1's error wins, as in serial order
        ({"c1_goes_to": 1.5, "c2_goes_to": -2.5}, "1.0"),
        # only the worker's call fails: its error crosses with type and message
        ({"c1_goes_to": 1.5}, "1.0"),
        # only the caller's call fails, after the worker's succeeded
        ({"c2_goes_to": -2.5}, "-1.0"),
    ],
    ids=["both", "c1-in-worker", "c2-in-caller"],
)
def test_half_path_errors_follow_serial_order(monkeypatch, bad, branch):
    # c1 passes branch point 1, c2 branch point -1: different messages
    params, paths = bad_paths(**bad)
    serial = serially(monkeypatch, lambda: error_of(lambda: half_path_frames(params, paths=paths)))
    assert serial[0] is PathError and f"branch point {branch}" in serial[1]
    assert error_of(lambda: half_path_frames(params, paths=paths)) == serial
    # the worker's reply was collected: the next call, at another c, reads
    # its own
    S1, S2 = serially(monkeypatch, lambda: frames(1.26988))
    F1, F2 = frames(1.26988)
    worker_pid()
    assert F1.tobytes() == S1.tobytes() and F2.tobytes() == S2.tobytes()


@two_cpus
def test_killed_worker_leaves_the_next_call_correct(monkeypatch):
    frames(1.26988)
    pid = worker_pid()
    os.kill(pid, signal.SIGKILL)
    F1, F2 = frames(-4.06015)
    S1, S2 = serially(monkeypatch, lambda: frames(-4.06015))
    assert F1.tobytes() == S1.tobytes() and F2.tobytes() == S2.tobytes()
    assert reaped(pid)
    # later calls run serially
    assert _worker._current is False
    F1, F2 = frames(5.33317)
    assert _worker._current is False


def test_one_visible_cpu_starts_no_worker(monkeypatch):
    one_cpu(monkeypatch)
    frames(-7.611914)
    scan_c(2.0, -1.2, 1.4, 27)
    assert _worker._current is None


@two_cpus
def test_forked_child_runs_serially():
    F1, F2 = frames(-1.526035)
    pid = worker_pid()
    child = os.fork()
    if child == 0:
        try:
            # the child must neither use the parent's worker nor fork its own
            _worker._Worker.send = lambda self, request: os._exit(3)
            C1, C2 = frames(-1.526035)
            same = C1.tobytes() == F1.tobytes() and C2.tobytes() == F2.tobytes()
            try:
                os.waitpid(-1, os.WNOHANG)
                forked = True
            except ChildProcessError:
                forked = False
            os._exit(0 if same and not forked else 1)
        finally:
            os._exit(2)
    assert os.waitpid(child, 0)[1] == 0
    # the child left the parent's worker alone
    G1, G2 = frames(-1.526035)
    assert worker_pid() == pid
    assert G1.tobytes() == F1.tobytes() and G2.tobytes() == F2.tobytes()


@two_cpus
def test_interrupt_discards_the_worker():
    frames(-1.526035)
    pid = worker_pid()

    def interrupted():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        _worker.pair("dscat.curve.rational_rhs", interrupted, 0.5j, 2.0)
    assert _worker._current is False
    assert reaped(pid)


@two_cpus
def test_worker_ignores_sigint_and_exits_when_the_pipe_closes():
    frames(-1.526035)
    pid = worker_pid()
    os.kill(pid, signal.SIGINT)
    remote, local = _worker.pair("dscat.curve.rational_rhs", lambda: 1, 0.5j, 2.0)
    assert worker_pid() == pid
    assert remote == (0.5j + 1) * (0.5j - 2.0) / ((0.5j - 1) * (0.5j + 2.0))
    _worker.shutdown()
    assert reaped(pid)
    assert _worker._current is None


@two_cpus
def test_threads_share_the_worker_and_get_their_own_results(monkeypatch):
    # More threads than cores call at once: one holds the worker, the others
    # run serially meanwhile; every thread must get the frames of its own c.
    expected = {c: serially(monkeypatch, lambda: frames(c)) for c in ROOTS}
    failures = []

    def caller(c):
        for _ in range(4):
            F1, F2 = frames(c)
            S1, S2 = expected[c]
            if not (F1.tobytes() == S1.tobytes() and F2.tobytes() == S2.tobytes()):
                failures.append(c)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(c,)) for c in ROOTS]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    worker_pid()


def test_pair_keeps_serial_order_without_a_worker(monkeypatch):
    one_cpu(monkeypatch)
    order = []

    def local():
        order.append("local")
        return 1

    assert _worker.pair("numpy.add", local, 2, 3) == (5, 1)
    with pytest.raises(DomainError):
        _worker.pair("dscat.curve.rational_rhs", local, 1.0, 2.0)
    assert order == ["local"]
