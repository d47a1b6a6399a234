"""The two shares of work of the scan and of verify, as planned and as measured.

    python3 tools/scan_shares.py

Run it from any directory: it imports dscat from the src/ of the checkout that
holds it.  scan_c gives every block of its grid two jobs, a transport.transfer
along c1 and one along c2 over the block's c, and packs all the jobs of a scan
onto this process and the worker (period._plan) by an estimate of their work
(period._work).  For the benchmark's 15 scan blocks (27 c from each of the
chunks of [-9, 4] at a = 1.5, 2 and 3) and for 2600-point scans of [-9, 4] at
a = 1.5, 2 and 3, this prints each process's planned share: its estimated
work and its time, the share timed alone in this process (the best of
REPEATS runs of period._transfer_each), and the idle time of the pair, the
difference of the two shares' times.  For the 2600-point scans it prints each
job's estimate and time too.

`dscat verify --deep` splits in two as well (checks.run_invariant_suite):
once the root is refined, the worker runs every check but geometry-invariants
on a pickled copy of the context, and the caller runs geometry-invariants,
its 8 x 12 mesh and the frame_at normals of five nodes.  For the a = 2 roots
in VERIFY_ROOTS this captures the two shares of the suite's pair call,
pickled as the call sends them, and times each alone on a fresh unpickled
copy with the process pinned to one core.  It prints which share the suite
gives the worker next to which share is shorter, the one _worker's rule
would give it.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dscat import _worker, checks, period  # noqa: E402
from dscat.transport import DEFAULT_CONFIG  # noqa: E402

A_VALUES = (1.5, 2.0, 3.0)
BLOCK_EDGES = (-9.0, -6.4, -3.8, -1.2, 1.4, 4.0)
REPEATS = 7
VERIFY_ROOTS = (-7.611914, -1.526035, 1.26988)


def planned_jobs(a: float, c_min: float, c_max: float, steps: int) -> list:
    """The jobs scan_c hands to its planner for this scan."""
    seen = []
    plan_all = period._transfer_all

    def capture(jobs, *args):
        seen.append(jobs)
        return plan_all(jobs, *args)

    period._transfer_all = capture
    try:
        period.scan_c(a, c_min, c_max, steps)
    finally:
        period._transfer_all = plan_all
    return seen[0]


def best_time(call) -> float:
    """The shortest of REPEATS wall times of call(), in ms."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def shares(a: float, jobs: list) -> tuple:
    """(estimate, ms) of this process's share and of the worker's."""
    work = [period._work(path, a, cs) for path, cs in jobs]
    return tuple(
        (sum(work[j] for j in share),
         best_time(lambda: period._transfer_each([jobs[j] for j in share], a, DEFAULT_CONFIG)))
        for share in period._plan(work)
    )


def row(name: str, here: tuple, there: tuple) -> str:
    return (f"{name:<28} {here[0]:>9.0f} {here[1]:>8.2f}   {there[0]:>9.0f} {there[1]:>8.2f}"
            f"   {abs(here[1] - there[1]):>7.2f}")


def verify_shares(c: float) -> tuple:
    """The two shares of the pair call of `verify --deep` at a = 2, each
    pickled as (context, checks): the worker's, then the caller's."""
    seen = []
    pair = _worker.pair

    def capture(name, there, here, **kwargs):
        if name == "dscat.checks._run_checks":
            seen.append(tuple(pickle.dumps(share, pickle.HIGHEST_PROTOCOL) for share in (there, here)))
        return pair(name, there, here, **kwargs)

    _worker.pair = capture
    try:
        checks.run_invariant_suite(2.0, c, DEFAULT_CONFIG, deep=True)
    finally:
        _worker.pair = pair
    return seen[0]


def share_name(blob: bytes) -> str:
    """"mesh" for the share that runs geometry-invariants, else "checks"."""
    _, entries = pickle.loads(blob)
    return "mesh" if "geometry-invariants" in (name for name, _ in entries) else "checks"


def main() -> int:
    header = f"{'scan':<28} {'here: est':>9} {'ms':>8}   {'worker: est':>9} {'ms':>8}   {'idle ms':>7}"
    print(header)
    totals = [0.0, 0.0, 0.0]
    for a in A_VALUES:
        for lo, hi in zip(BLOCK_EDGES[:-1], BLOCK_EDGES[1:]):
            here, there = shares(a, planned_jobs(a, lo, hi, 27))
            print(row(f"a={a:g} c={lo:g}..{hi:g}, 27", here, there))
            totals = [t + x for t, x in zip(totals, (here[1], there[1], abs(here[1] - there[1])))]
    print(f"the 15 blocks: here {totals[0]:.1f} ms, worker {totals[1]:.1f} ms, idle {totals[2]:.1f} ms")
    print()
    print(header)
    for a in A_VALUES:
        jobs = planned_jobs(a, -9.0, 4.0, 2600)
        here, there = shares(a, jobs)
        print(row(f"a={a:g} c=-9..4, 2600", here, there))
        plan = period._plan([period._work(path, a, cs) for path, cs in jobs])
        for j, (path, cs) in enumerate(jobs):
            where = "here" if j in plan[0] else "worker"
            name = "c1" if path.waypoints[-1] == (1.0 + a) / 2 else "c2"
            ms = best_time(lambda: period._transfer_each([(path, cs)], a, DEFAULT_CONFIG))
            print(f"  block {j // 2 + 1} {name}, {cs.size:>4} c up to |c| = {max(abs(cs)):<5.2f}"
                  f" est {period._work(path, a, cs):>8.0f}  {ms:>7.2f} ms  {where}")
    print()
    print(f"{'verify --deep, a=2':<28} {'sent B':>9} {'worker ms':>10} {'here ms':>8}"
          f"   {'worker':<7} shorter")
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        for c in VERIFY_ROOTS:
            there, here = verify_shares(c)
            there_ms, here_ms = (best_time(lambda: checks._run_checks(*pickle.loads(blob)))
                                 for blob in (there, here))
            shorter = there if there_ms < here_ms else here
            print(f"{f'c={c}':<28} {len(there):>9} {there_ms:>10.1f} {here_ms:>8.1f}"
                  f"   {share_name(there):<7} {share_name(shorter)}")
    finally:
        os.sched_setaffinity(0, cpus)
    return 0


if __name__ == "__main__":
    sys.exit(main())
