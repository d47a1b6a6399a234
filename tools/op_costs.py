"""What one op of each benchmark workload spends its time on.

    python3 tools/op_costs.py [scan|solve|mesh|verify ...]

Run it from any directory: it imports dscat from the src/ of the checkout that
holds it, and the benchmark's own modules from its perfbench/.  For the first
op of each named workload (all four by default) it runs the op as
perfbench/run.py does, in this process through dscat.cli.main with
gc.collect() before it, once to warm up and then REPEATS times, and checks
each run's output against the benchmark's references.  It prints the median
op time and the median time spent in each part:

  parser           cli.build_parser and ArgumentParser.parse_args
  canonical_paths  curve.canonical_paths
  _worker.pair     _worker.pair, less the parts timed inside it
  period_values    monodromy.period_values
  build_mesh       geometry.build_mesh, less the kernels' calls in it
  lane_kernel      _rk.integrate_polyline_lanes, the DP5 lane kernel that
                   moves a mesh's rings
  dp5_kernel       _rk.integrate_polyline, the scalar DP5 kernel of one c: half
                   paths, loops, end loops and sheet roots
  magnus_kernel    transport.transfer, the Magnus kernel of the scan's blocks
                   and of refinement's iterates
  _write_atomic    cli._write_atomic
  rest             the op's time less all the parts above

Each part's time is its own: a part timed inside another counts once, in the
inner part, so the parts and the rest add up to the op.  So a mesh op splits
into its refinement (_worker.pair and period_values, with the iterates' c2
transfers in magnus_kernel and the DP5 half paths of the root in dp5_kernel),
its mesh (build_mesh and lane_kernel, with its sheet roots in dp5_kernel) and
its output.  The benchmark's tracer does not see the
lane kernel; this does.  Times are wall times on this machine, not scaled to the
benchmark's nominal speed.  Work done in the worker process is not timed: it
shows as the caller's wait inside _worker.pair.

Before the table it prints overlap(OVERLAP_LOOPS): the wall time of two
forked copies of a fixed pure-Python loop run at once over that of one copy.
It reads about 1 where the machine runs two processes side by side and about
2 where it makes them take turns; a 2-vCPU virtual machine may switch between
the two within minutes, and every timing that pairs c1 in the worker with c2
in the caller means something only beside it.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

REPEATS = {"scan": 41, "solve": 9, "mesh": 9, "verify": 9}
# Iterations of overlap's loop: about 0.1 s for one copy on a 2-vCPU x86 VM, Python 3.11.
OVERLAP_LOOPS = 5_000_000
PARTS = ("parser", "canonical_paths", "_worker.pair", "period_values", "build_mesh",
         "lane_kernel", "dp5_kernel", "magnus_kernel", "_write_atomic")


class Clock:
    """Own time of each part over one op: a part's wall time less that of
    the parts called inside it."""

    def __init__(self) -> None:
        self.own = dict.fromkeys(PARTS, 0.0)
        self._inner = [0.0]

    def wrap(self, part: str, fn):
        def timed(*args, **kwargs):
            self._inner.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self.own[part] += took - self._inner.pop()
                self._inner[-1] += took

        return timed


@contextmanager
def timing(clock: Clock):
    """Every binding of the parts' functions, in every dscat module and on
    ArgumentParser, replaced by clock's wrappers until exit."""
    from dscat import _rk, _worker, cli, curve, geometry, monodromy, transport

    targets = [
        ("parser", cli.build_parser),
        ("canonical_paths", curve.canonical_paths),
        ("_worker.pair", _worker.pair),
        ("period_values", monodromy.period_values),
        ("build_mesh", geometry.build_mesh),
        ("lane_kernel", _rk.integrate_polyline_lanes),
        ("dp5_kernel", _rk.integrate_polyline),
        ("magnus_kernel", transport.transfer),
        ("_write_atomic", cli._write_atomic),
    ]
    modules = [m for n, m in list(sys.modules.items()) if n == "dscat" or n.startswith("dscat.")]
    replaced = [(argparse.ArgumentParser, "parse_args", argparse.ArgumentParser.parse_args)]
    argparse.ArgumentParser.parse_args = clock.wrap("parser", argparse.ArgumentParser.parse_args)
    try:
        for part, fn in targets:
            wrapper = clock.wrap(part, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        replaced.append((module, attr, fn))
        yield clock
    finally:
        for owner, attr, fn in reversed(replaced):
            setattr(owner, attr, fn)


def overlap(loops: int) -> float:
    """Wall time of two forked copies of a loop of loops iterations, run at
    once, over that of one forked copy."""
    return _forked(loops, 2) / _forked(loops, 1)


def _forked(loops: int, copies: int) -> float:
    """Wall time from forking copies children, each counting to loops, to
    the end of the last."""
    start = time.perf_counter()
    children = []
    for _ in range(copies):
        pid = os.fork()
        if pid == 0:
            try:
                for _ in range(loops):
                    pass
            finally:
                os._exit(0)
        children.append(pid)
    for pid in children:
        os.waitpid(pid, 0)
    return time.perf_counter() - start


def op_costs(cli, workload: str, out: Path) -> tuple:
    """(op key, failed runs, median ms of the op, {part: median ms}) of the
    first op of workload."""
    op = workloads.make_ops(workload)[0]
    refs = workloads.load_references()
    run.execute(cli, op, out)
    totals, parts, failed = [], {part: [] for part in PARTS + ("rest",)}, 0
    for _ in range(REPEATS[workload]):
        clock = Clock()
        with timing(clock):
            rc, stdout, wall, _, crash = run.execute(cli, op, out)
        rec = workloads.parse(workload, rc, stdout, out) if crash is None else None
        failed += rec is None or bool(workloads.check(workload, op, rec, refs[op.key]))
        totals.append(wall)
        for part in PARTS:
            parts[part].append(clock.own[part])
        parts["rest"].append(wall - sum(clock.own.values()))
    return (op.key, failed, 1e3 * statistics.median(totals),
            {part: 1e3 * statistics.median(times) for part, times in parts.items()})


def main(argv: list) -> int:
    names = argv or list(workloads.WORKLOADS)
    cli = run.import_cli()
    print(f"overlap of two processes: {overlap(OVERLAP_LOOPS):.2f}", flush=True)
    print(f"{'op':<30} {'runs':>4} {'failed':>6} {'op ms':>8} "
          + " ".join(f"{part:>15}" for part in PARTS + ("rest",)))
    with tempfile.TemporaryDirectory() as tmp:
        for workload in names:
            key, failed, total, parts = op_costs(cli, workload, Path(tmp))
            print(f"{key:<30} {REPEATS[workload]:>4} {failed:>6} {total:>8.2f} "
                  + " ".join(f"{parts[part]:>15.3f}" for part in PARTS + ("rest",)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
