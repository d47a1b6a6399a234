"""The half paths integrated in two processes give the results of a serial run.

_worker.pair runs c1 in a persistent worker process while the caller
integrates c2; a scan pairs the c1 and c2 transfers of each of its blocks the
same way, one pair call per block.  Every result here is compared with ==
against the same call with the worker disabled, which is what a patched
os.sched_getaffinity returning one CPU does.
"""

import dataclasses
import os
import pickle
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from conftest import one_cpu, scan_bytes, serially, two_cpus

from dscat import _worker, period
from dscat.curve import CurveParams, PathSpec, canonical_paths, rational_rhs
from dscat.errors import DomainError, PathError, StepLimitExceeded
from dscat.monodromy import half_path_frames
from dscat.period import scan_c
from dscat.transport import IntegratorConfig, transfer

ROOTS = (-7.611914, -4.06015, -1.526035, 1.26988, 5.33317)
SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.usefixtures("fresh_worker")


def frames(c: float):
    params = CurveParams(2.0, c)
    h = half_path_frames(params, paths=canonical_paths(params.a))
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
    kept = serial.c[serial.kept]
    assert (kept < -4.8).any() and (kept > -4.8).any()
    assert scan_bytes(parallel) == scan_bytes(serial)


@two_cpus
@pytest.mark.parametrize("name", ["c1", "c2"])
def test_transfer_in_the_worker_equals_serial(monkeypatch, name):
    a, cs = 2.0, np.linspace(-9.0, 4.0, 27)
    path = getattr(canonical_paths(a), name)
    (F, w), (G, v) = _worker.pair("dscat.transport.transfer", (path, a, cs), (path, a, cs))
    worker_pid()
    S, w_serial = serially(monkeypatch, lambda: transfer(path, a, cs))
    assert F.tobytes() == G.tobytes() == S.tobytes() and w == v == w_serial


def spy_on_pairs(monkeypatch) -> list:
    """The (name, there, here, result) of each _worker.pair call from now on;
    a call that raises is logged with result None."""
    calls = []
    pair = _worker.pair

    def spy(name, there, here):
        calls.append([name, there, here, None])
        calls[-1][3] = pair(name, there, here)
        return calls[-1][3]

    monkeypatch.setattr(_worker, "pair", spy)
    return calls


@two_cpus
def test_each_scan_block_pairs_its_half_paths(monkeypatch):
    # 27 c 0.5 apart over [-9, 4], c = 0 skipped, in blocks of 9: three
    # blocks, each one pair call with c1 in the worker and c2 here, as
    # half_path_frames pairs them
    a = 2.0
    monkeypatch.setattr(period, "SCAN_BLOCK", 9)
    paths = canonical_paths(a)
    with monkeypatch.context() as m:
        calls = spy_on_pairs(m)
        parallel = scan_c(a, -9.0, 4.0, 27)
    worker_pid()
    serial = serially(monkeypatch, lambda: scan_c(a, -9.0, 4.0, 27))
    assert scan_bytes(parallel) == scan_bytes(serial)
    c = parallel.c
    blocks = [c[:9], c[9:18], c[19:]]
    assert len(calls) == len(blocks)
    for (name, there, here, ((F1, _), (F2, _))), cs in zip(calls, blocks):
        assert name == "dscat.transport.transfer"
        assert there[:2] == (paths.c1, a) and here[:2] == (paths.c2, a)
        assert there[2].tobytes() == here[2].tobytes() == cs.tobytes()
        assert F1.tobytes() == transfer(paths.c1, a, cs)[0].tobytes()
        assert F2.tobytes() == transfer(paths.c2, a, cs)[0].tobytes()


H = 8.0 / 19  # the spacing of 20 c over an interval of length 8


@pytest.mark.parametrize(
    "c_min, c_max, early, pairs",
    [
        # the blocks of c = -9 and -6.89 fail: the first block ends the scan
        (-9.0, -1.0, -9.0, 1),
        # the blocks of c = 6.89 and 9 fail: the third block ends the scan
        (1.0, 9.0, 1.0 + 14 * H, 3),
    ],
    ids=["first-block", "third-block"],
)
def test_scan_errors_name_the_first_failing_block(monkeypatch, c_min, c_max, early, pairs):
    # four blocks of five c at a = 2: with max_steps 340 the refined grids of
    # c2 for the two blocks of largest |c| (435 and 373 steps) fail, naming
    # the c of largest modulus in the block, and all other grids (at most
    # 305 steps) pass.  The error is the earlier block's, and the serial
    # run's, and no later block is integrated.
    monkeypatch.setattr(period, "SCAN_BLOCK", 5)
    cfg = IntegratorConfig(max_steps=340)
    with monkeypatch.context() as m:
        calls = spy_on_pairs(m)
        error = error_of(lambda: scan_c(2.0, c_min, c_max, 20, cfg))
    assert len(calls) == pairs and calls[-1][3] is None
    assert serially(monkeypatch, lambda: error_of(lambda: scan_c(2.0, c_min, c_max, 20, cfg))) == error
    assert error[0] is StepLimitExceeded
    head, _, c = error[1].partition(" for c = ")
    assert head.startswith("Magnus grid exceeds 340 steps by z = ") and float(c) == early


def test_a_block_failing_on_both_half_paths_raises_c1s_error(monkeypatch):
    # with max_steps 100 both half paths of the one block fail at c = -9,
    # c1 at its waypoint 0.75+0.8j and c2 at 2+0.8j; pair keeps serial order
    a, cfg = 2.0, IntegratorConfig(max_steps=100)
    paths, cs = canonical_paths(a), np.linspace(-9.0, 4.0, 27)
    live = cs[np.abs(cs) >= period.SKIP_HALFWIDTH]
    c1, c2 = (error_of(lambda: transfer(path, a, live, cfg)) for path in (paths.c1, paths.c2))
    assert c1[0] is c2[0] is StepLimitExceeded and c1[1] != c2[1]
    error = error_of(lambda: scan_c(a, -9.0, 4.0, 27, cfg))
    assert error == c1
    assert serially(monkeypatch, lambda: error_of(lambda: scan_c(a, -9.0, 4.0, 27, cfg))) == c1


def bad_paths(c1_goes_to=None, c2_goes_to=None) -> tuple:
    """params at a root and its canonical paths with c1 and/or c2 replaced by
    a segment from the base point through a branch point."""
    params = CurveParams(2.0, -1.526035)
    paths = canonical_paths(params.a)
    changes = {
        name: PathSpec(complex(+1), (0j, complex(end)))
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
    # the worker ignores the SIGINT it raises; the caller's raises KeyboardInterrupt
    with pytest.raises(KeyboardInterrupt):
        _worker.pair("signal.raise_signal", (signal.SIGINT,), (signal.SIGINT,))
    assert _worker._current is False
    assert reaped(pid)


@two_cpus
def test_worker_ignores_sigint_and_exits_when_the_pipe_closes():
    frames(-1.526035)
    pid = worker_pid()
    os.kill(pid, signal.SIGINT)
    remote, local = _worker.pair("dscat.curve.rational_rhs", (0.5j, 2.0), (0.5j, 2.0))
    assert worker_pid() == pid
    assert remote == local == (0.5j + 1) * (0.5j - 2.0) / ((0.5j - 1) * (0.5j + 2.0))
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


@two_cpus
def test_pair_inside_the_callers_call_runs_serially_in_the_caller():
    frames(-1.526035)
    pid = worker_pid()
    remote, local = _worker.pair("conftest.pid_and_pair", (False,), (True,))
    here = os.getpid()
    assert remote == (pid, None)
    assert local == (here, ((here, None), (here, None)))
    assert worker_pid() == pid


def test_pair_keeps_serial_order_without_a_worker(monkeypatch):
    one_cpu(monkeypatch)
    log = []
    assert _worker.pair("conftest.logged", (log, "there"), (log, "here")) == ("there", "here")
    assert log == ["there", "here"]
    # the first call's error ends the pair: the second call is not made
    log.clear()
    error = DomainError("first")
    with pytest.raises(DomainError):
        _worker.pair("conftest.logged", (log, error), (log, "here"))
    assert log == [error]


def half_a_reply(requests, replies):
    """A worker loop that answers its first request with the first half of
    its pickled reply, then exits."""
    name, args = pickle.load(requests)
    reply = pickle.dumps((True, _worker._resolve(name)(*args)), pickle.HIGHEST_PROTOCOL)
    replies.write(reply[: len(reply) // 2])
    replies.flush()


@two_cpus
def test_a_reply_cut_short_reads_as_a_dead_worker(monkeypatch):
    args = (0.5j, 2.0)
    value = rational_rhs(*args)
    reply = pickle.dumps((True, value), pickle.HIGHEST_PROTOCOL)
    with pytest.raises(pickle.UnpicklingError):  # not the EOFError of an empty pipe
        pickle.loads(reply[: len(reply) // 2])
    monkeypatch.setattr(_worker, "_serve", half_a_reply)
    assert _worker.pair("dscat.curve.rational_rhs", args, args) == (value, value)
    assert _worker._current is False
    # later calls run serially
    assert _worker.pair("dscat.curve.rational_rhs", args, args) == (value, value)
    assert _worker._current is False


@two_cpus
def test_the_worker_closes_its_pipe_ends(tmp_path):
    # mesh first refines the root near c, its half paths in two processes,
    # and at c = -3e5 an integration fails (exit 3); a pipe end left open in
    # the worker would print "Exception ignored ... ResourceWarning" as the
    # worker exits, which -W error makes visible
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "dscat", "mesh", "--a", "2", "--c=-3e5",
         "--nu", "4", "--nv", "4", "--out", "m.obj"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: integration failed: step size underflow at z = ")
    assert "Exception ignored" not in proc.stderr and "ResourceWarning" not in proc.stderr
