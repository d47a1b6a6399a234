"""The benchmark run alternately on this checkout and on another commit.

    python3 tools/bench_compare.py --label X --against REF \
        [--workloads scan solve mesh verify] [--seeds 1 2] [--pairs 5]

Run it from any directory.  REF, any commit name that git knows in this
checkout, is unpacked with `git archive` into a temporary directory.  For each
workload, seed and pair, the unchanged perfbench/run.py runs once in each
tree for BENCHMARK.json's run_seconds, REF first in even pairs and this
checkout first in odd ones, so that a drift of the machine's speed favours
neither.  Before each pair the script
records op_costs.overlap(OVERLAP_LOOPS): about 1 where the machine runs two
processes side by side and about 2 where it makes them take turns, which
decides how much the worker process of dscat._worker buys.

It writes BENCH_X.json at the root of this checkout after every pair, so an
interrupted comparison keeps the pairs it finished.  The file holds both
commits, the arguments, the run length, every pair as run.py reported it, and for each
workload the summary of summarize(): for each end-to-end metric of
BENCHMARK.json, both trees' medians and quartiles, how many pairs this
checkout won, the relative change of its median, whether that change is
better than REF's interquartile range, and whether it stays within the
metric's bound.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import op_costs  # noqa: E402

SIDES = ("ref", "this")


def spread(values: list) -> dict:
    """Median and quartiles of values, the quartiles by the inclusive method."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, end_to_end: list) -> dict:
    """{workload: summary} of pairs, each {"workload", "overlap", "ref",
    "this"} with run.py's result for each tree; end_to_end holds
    BENCHMARK.json's metrics, each with its name, better direction and bound.

    A pair is won where this checkout's value is strictly better.  A change
    is beyond REF's interquartile range where the medians differ, in the
    better direction, by more than REF's q3 - q1; it is within bound unless
    this median is worse than REF's by more than bound times REF's median."""
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == workload]
        entry = {
            "pairs": len(runs),
            "overlap": spread([p["overlap"] for p in runs]),
            "correct": {side: all(p[side]["correct"] for p in runs) for side in SIDES},
            "failed": {side: sum(p[side]["failed"] for p in runs) for side in SIDES},
            "metrics": {},
        }
        for metric in end_to_end:
            name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            values = {side: [p[side]["metrics"][name]["value"] for p in runs] for side in SIDES}
            ref, this = (spread(values[side]) for side in SIDES)
            gain = sign * (this["median"] - ref["median"])
            entry["metrics"][name] = {
                "ref": ref,
                "this": this,
                "wins": sum(sign * (t - r) > 0.0 for r, t in zip(values["ref"], values["this"])),
                "change": this["median"] / ref["median"] - 1.0,
                "beyond_ref_iqr": gain > ref["q3"] - ref["q1"],
                "within_bound": -gain <= metric["bound"] * abs(ref["median"]),
            }
        summary[workload] = entry
    return summary


def unpack(ref: str, into: Path) -> str:
    """Extract the files of commit ref into the directory into; its full hash."""
    commit = _git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        tar.extractall(into, filter="data")
    return commit


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """The JSON result line of one perfbench/run.py run in tree."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--against", required=True)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in benchmark["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    p.add_argument("--pairs", type=int, default=5, help="pairs per workload and seed")
    args = p.parse_args(argv)
    out = ROOT / f"BENCH_{args.label}.json"
    record = {
        "this": _git("describe", "--always", "--dirty").decode().strip(),
        "args": vars(args),
        "seconds": benchmark["run_seconds"],
        "pairs": [],
    }
    with tempfile.TemporaryDirectory() as tmp:
        record["ref"] = unpack(args.against, Path(tmp))
        trees = {"ref": Path(tmp), "this": ROOT}
        for workload in args.workloads:
            for seed in args.seeds:
                for k in range(args.pairs):
                    pair = {"workload": workload, "seed": seed,
                            "overlap": op_costs.overlap(op_costs.OVERLAP_LOOPS)}
                    for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                        pair[side] = bench(trees[side], workload, seed, benchmark["run_seconds"])
                    record["pairs"].append(pair)
                    record["summary"] = summarize(record["pairs"], benchmark["end_to_end"])
                    out.write_text(json.dumps(record, indent=1) + "\n")
                    print(workload, seed, k, f"overlap {pair['overlap']:.2f}",
                          *(f"{side} {pair[side]['metrics']['work_per_s']['value']:.4g}"
                            for side in SIDES), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
