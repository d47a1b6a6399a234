"""dscat benchmark: one workload of CLI commands, timed or traced.

    python3 perfbench/run.py --workload scan|solve|mesh|verify \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports dscat from the
checkout's src/ and refuses to run against any other copy.  Each op is one
`dscat` command run in this process through dscat.cli.main, one at a time.  A
pass runs every op of the workload once, in an order drawn from --seed; the
inputs themselves are fixed so that outputs can be checked against the pinned
references.  Times are wall times scaled to a nominal machine speed (see
speed.py), since the speed of the shared machine drifts.  The number of passes
is fixed from --seconds and the seed's pass time, with a minimum per workload
for steady percentiles, so two commits run the same ops and their percentiles
cover the same number of samples.

--trace 0 prints the end-to-end metrics; --trace 1 runs an untraced and a
traced pass, repeats both in a fresh process, checks that the two traced
passes gave identical counts, and prints the per-layer metrics.  The last line
of standard output is a JSON object with keys correct, attempted, failed and
metrics.  Spans and per-run details are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Seconds one pass of each workload took at the seed (2 cores, Python 3.11).
PASS_SECONDS = {"scan": 7.5, "solve": 3.0, "mesh": 2.6, "verify": 4.5}
# The ops of one input have near-equal latencies, so a workload's latencies
# form one group per input.  Seven passes put the median and op_tail_s (ten
# samples from the top) near the middle of a group rather than on the edge
# between two, which keeps them steady.  The scan's 15 inputs overlap.
MIN_PASSES = {"scan": 2, "solve": 7, "mesh": 7, "verify": 7}
WORK_UNITS = {
    "scan": "grid points",
    "solve": "brackets",
    "mesh": "mesh nodes (2 nu nv)",
    "verify": "checks run",
}
# Pairs of fresh interpreters started to time set-up.
SETUP_RUNS = 7
# Start-up speed drifts apart from the speed kernel: which core a new process
# lands on and the state of the shared machine change it by up to 35% from
# minute to minute.  Each dscat start-up is paired with the start-up of an
# interpreter that imports numpy alone, dscat's one dependency, and set-up
# time is reported at that reference's nominal time.  Over a few minutes the
# ratio drifted by 6% where the dscat start-up alone drifted by 15%.
SETUP_REF_NOMINAL_S = 0.18

_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import dscat.cli; "
    "dscat.cli.build_parser(); print(dscat.__file__, flush=True)"
)
_SETUP_REF_CODE = "import numpy; print(numpy.__file__, flush=True)"


def _under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def import_cli():
    """dscat.cli from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import dscat.cli
    except ImportError as exc:
        sys.exit(f"error: cannot import dscat from {SRC}: {exc}")
    if not _under_src(dscat.__file__):
        sys.exit(f"error: imported dscat from {dscat.__file__}, not from {SRC}")
    return dscat.cli


def _start(code: str) -> tuple:
    """(wall seconds until `code` in a fresh interpreter printed a line, line)."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, str(SRC)],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline().strip()
        wall = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0:
        sys.exit(f"error: set-up interpreter exited with {proc.returncode}")
    return wall, line


def setup_seconds() -> tuple:
    """Wall times of dscat start-ups and of the reference start-ups paired with them."""
    times, refs = [], []
    for _ in range(SETUP_RUNS):
        wall, where = _start(_SETUP_CODE)
        if not _under_src(where):
            sys.exit(f"error: set-up interpreter imported dscat from {where!r}")
        times.append(wall)
        refs.append(_start(_SETUP_REF_CODE)[0])
    return times, refs


def execute(cli, op: workloads.Op, out: Path) -> tuple:
    """Run one op in this process.

    Returns (exit code, stdout, wall seconds, seconds at nominal speed,
    traceback or None).
    """
    for leftover in out.iterdir():
        leftover.unlink()
    argv = [arg.replace("{out}", str(out)) for arg in op.argv]
    stdout = io.StringIO()
    rc, crash = None, None
    gc.collect()
    before = speed.sample()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        crash = traceback.format_exc()
    wall = time.perf_counter() - t0
    return rc, stdout.getvalue(), wall, speed.scale(wall, before, speed.sample()), crash


class Runner:
    """Runs ops in this process and checks each one against its reference."""

    def __init__(self, cli, workload: str, out: Path) -> None:
        self.cli = cli
        self.workload = workload
        self.out = out
        self.refs = workloads.load_references()
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def op(self, op: workloads.Op) -> tuple:
        """(seconds at nominal speed, wall seconds, work done) of one op."""
        rc, stdout, wall, latency, crash = execute(self.cli, op, self.out)
        self.attempted += 1
        rec: dict = {}
        if crash is not None:
            bad = [f"raised {crash}"]
        else:
            try:
                rec = workloads.parse(self.workload, rc, stdout, self.out)
                bad = workloads.check(self.workload, op, rec, self.refs[op.key])
            except Exception:
                bad = [f"unreadable output: {traceback.format_exc()}"]
        if bad:
            self.failed += 1
            self.problems.append({"op": op.key, "problems": bad})
            print(f"FAILED {op.key}: {bad[0]}", file=sys.stderr)
        return latency, wall, workloads.work_done(self.workload, op, rec)

    def run_pass(self, ops: list) -> tuple:
        """One pass over `ops` in this order.

        Returns (latencies at nominal speed, work per second, nominal over wall
        time of the whole pass).
        """
        latencies, walls, work = [], [], 0
        for op in ops:
            latency, wall, done = self.op(op)
            latencies.append(latency)
            walls.append(wall)
            work += done
        return latencies, work / sum(latencies), sum(latencies) / sum(walls)


def pass_orders(ops: list, seed: int, n_passes: int) -> list:
    rng = random.Random(seed)
    return [rng.sample(ops, len(ops)) for _ in range(n_passes)]


def tail(latencies: list) -> tuple:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_run(runner: Runner, ops: list, args) -> tuple:
    n_passes = max(MIN_PASSES[args.workload],
                   round(args.seconds / PASS_SECONDS[args.workload]))
    setup, setup_refs = setup_seconds()
    latencies, rates = [], []
    by_op: dict = {}
    for order in pass_orders(ops, args.seed, n_passes):
        lat, rate, _ = runner.run_pass(order)
        latencies += lat
        rates.append(rate)
        for op, t in zip(order, lat):
            by_op.setdefault(op.key, []).append(t)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup) / statistics.median(setup_refs)
                    * SETUP_REF_NOMINAL_S, "s"),
        "work_per_s": (statistics.median(rates), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "passes": n_passes,
        "op_tail_percentile": tail_pct,
        "op_samples": len(latencies),
        "work_unit": WORK_UNITS[args.workload],
        "setup_wall_s": setup,
        "setup_reference_wall_s": setup_refs,
        "pass_work_per_s": rates,
        "latencies_s": by_op,
    }
    print(f"{args.workload}: {n_passes} passes of {len(ops)} ops, seed {args.seed}")
    print(f"op_tail_s is p{tail_pct:.1f} of {len(latencies)} ops; "
          f"work_per_s counts {WORK_UNITS[args.workload]}")
    return metrics, details


def traced_passes(runner: Runner, ops: list, seed: int) -> dict:
    """An untraced then a traced pass; per-layer metrics and the spans.

    Span times are wall times; the per-layer times are scaled to nominal speed
    by the traced pass's own ratio of nominal to wall time.
    """
    untraced, traced = pass_orders(ops, seed, 2)
    lat_u, _, _ = runner.run_pass(untraced)
    tracer = tracing.Tracer()
    with tracer.installed():
        lat_t, _, factor = runner.run_pass(traced)
    metrics = {
        name: [value * factor if unit in tracing.TIMED_UNITS else value, unit]
        for name, (value, unit) in tracing.layer_metrics(tracer.spans, len(ops)).items()
    }
    return {
        "metrics": metrics,
        "untraced_s": sum(lat_u),
        "traced_s": sum(lat_t),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "spans": tracer.spans,
    }


def traced_run(runner: Runner, ops: list, args) -> tuple:
    here = traced_passes(runner, ops, args.seed)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--replica"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=100)
    if proc.returncode != 0:
        sys.exit(f"error: replica traced run failed:\n{proc.stderr}")
    there = json.loads(proc.stdout.splitlines()[-1])
    runner.attempted += there["attempted"]
    runner.failed += there["failed"]
    runner.problems += there["problems"]

    metrics = {}
    mismatched = []
    for name, (value, unit) in here["metrics"].items():
        other = there["metrics"][name][0]
        if unit in tracing.TIMED_UNITS:
            value = (value + other) / 2
        elif value != other:
            mismatched.append(f"{name}: {value} here, {other} in the replica")
        metrics[name] = (value, unit)
    overhead = ((here["traced_s"] + there["traced_s"])
                / (here["untraced_s"] + there["untraced_s"]) - 1.0)
    metrics["bench.trace_overhead_frac"] = (overhead, "ratio")
    for line in mismatched:
        print(f"COUNT MISMATCH {line}", file=sys.stderr)
    details = {"count_mismatches": mismatched, "spans": here["spans"],
               "span_fields": ["name", "start", "end", "parent", "op", "counts"]}
    print(f"{args.workload}: traced passes in two processes, seed {args.seed}, "
          f"counts {'differ' if mismatched else 'identical'}")
    return metrics, details


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--replica", action="store_true",
                   help="internal: the second process of a traced run; prints its "
                        "passes as JSON")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    ops = workloads.make_ops(args.workload)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        runner = Runner(cli, args.workload, Path(tmp))
        if args.replica:
            result = traced_passes(runner, ops, args.seed)
            del result["spans"]
            print(json.dumps(result))
            return 0
        if args.trace:
            metrics, details = traced_run(runner, ops, args)
        else:
            metrics, details = timed_run(runner, ops, args)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        attempted=runner.attempted, failed=runner.failed, problems=runner.problems,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        machine={"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": sys.modules["numpy"].__version__},
    )
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(details) + "\n")
    print(json.dumps({
        "correct": runner.failed == 0 and not details.get("count_mismatches"),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
