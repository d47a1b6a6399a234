"""The two shares of work of the scan and of verify, as the pair calls hand
them out, timed one at a time.

    python3 tools/scan_shares.py

Run it from any directory: it imports dscat from the src/ of the checkout that
holds it.  scan_c pairs the half paths of each block of its grid as
half_path_frames does: one _worker.pair call per block, a transport.transfer
along c1 over the block's c in the worker and one along c2 in the caller.
For the benchmark's 15 scan blocks (27 c from each of the chunks of [-9, 4] at
a = 1.5, 2 and 3) and for the blocks of 2600-point scans of [-9, 4] at
a = 1.5, 2 and 3, this captures the arguments of each block's pair call and
prints the time of c1 (the worker's call) and of c2 (the caller's), each
the best of REPEATS runs in this process, and the idle time of the pair, the
difference of the two.

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

from dscat import _worker, checks, period, transport  # noqa: E402
from dscat.transport import DEFAULT_CONFIG  # noqa: E402

A_VALUES = (1.5, 2.0, 3.0)
BLOCK_EDGES = (-9.0, -6.4, -3.8, -1.2, 1.4, 4.0)
REPEATS = 7
VERIFY_ROOTS = (-7.611914, -1.526035, 1.26988)


def scan_blocks(a: float, c_min: float, c_max: float, steps: int) -> list:
    """(there, here), the arguments of transfer along c1 and along c2, of
    each block's pair call in this scan, in grid order."""
    seen = []
    pair = _worker.pair

    def capture(name, there, here):
        if name == "dscat.transport.transfer":
            seen.append((there, here))
        return pair(name, there, here)

    _worker.pair = capture
    try:
        period.scan_c(a, c_min, c_max, steps)
    finally:
        _worker.pair = pair
    return seen


def best_time(call) -> float:
    """The shortest of REPEATS wall times of call(), in ms."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def row(name: str, there: tuple, here: tuple) -> tuple:
    """The line of one block, and its (c1 ms, c2 ms, idle ms)."""
    times = [best_time(lambda: transport.transfer(*args)) for args in (there, here)]
    times.append(abs(times[0] - times[1]))
    cs = there[2]
    name = f"{name}, {cs.size} c up to |c| = {max(abs(cs)):.2f}"
    return f"{name:<52} {times[0]:>8.2f} {times[1]:>8.2f} {times[2]:>8.2f}", times


def verify_shares(c: float) -> tuple:
    """The two shares of the pair call of `verify --deep` at a = 2, each
    pickled as (context, checks): the worker's, then the caller's."""
    seen = []
    pair = _worker.pair

    def capture(name, there, here):
        if name == "dscat.checks._run_checks":
            seen.append(tuple(pickle.dumps(share, pickle.HIGHEST_PROTOCOL) for share in (there, here)))
        return pair(name, there, here)

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
    header = f"{'scan block':<52} {'c1 ms':>8} {'c2 ms':>8} {'idle ms':>8}"
    print(f"{header}   (c1 in the worker, c2 here)")
    totals = [0.0, 0.0, 0.0]
    for a in A_VALUES:
        for lo, hi in zip(BLOCK_EDGES[:-1], BLOCK_EDGES[1:]):
            [(there, here)] = scan_blocks(a, lo, hi, 27)
            line, times = row(f"a={a:g} c={lo:g}..{hi:g}", there, here)
            print(line)
            totals = [t + x for t, x in zip(totals, times)]
    print(f"the 15 blocks: c1 {totals[0]:.1f} ms, c2 {totals[1]:.1f} ms, idle {totals[2]:.1f} ms")
    print()
    print(header)
    for a in A_VALUES:
        totals = [0.0, 0.0, 0.0]
        for j, (there, here) in enumerate(scan_blocks(a, -9.0, 4.0, 2600)):
            line, times = row(f"a={a:g} c=-9..4, 2600: block {j + 1}", there, here)
            print(line)
            totals = [t + x for t, x in zip(totals, times)]
        print(f"a={a:g}, 2600: c1 {totals[0]:.1f} ms, c2 {totals[1]:.1f} ms, idle {totals[2]:.1f} ms")
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
