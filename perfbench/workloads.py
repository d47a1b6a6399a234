"""The four benchmark workloads: their CLI commands, output parsing and checks.

Every op is one `dscat` CLI command with fixed inputs, so the outputs can be
compared with the references pinned in references.json.  The workload seed only
permutes the order of the ops within a pass (see run.py).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

SCAN_A = (1.5, 2.0, 3.0)
# [-9, 4] in five chunks of 27 grid points, 0.1 apart; neighbouring chunks
# share an end point, so a pass brackets every cell of the 131-point grid.
# Chunks make ops of about half a second, so a run has enough of them for
# steady percentiles.
SCAN_EDGES = (-9.0, -6.4, -3.8, -1.2, 1.4, 4.0)
SCAN_STEPS = 27
# The four a = 2 brackets of tests/conftest.py and one bracket around the pole
# of the period functions near c = -4.797, which must end in exit code 4.
SOLVE_BRACKETS = (
    (-7.65, -7.58),
    (-4.10, -4.02),
    (-1.55, -1.50),
    (1.25, 1.29),
    (-4.85, -4.75),
)
POLE_BRACKET = (-4.85, -4.75)
# Shallow elliptic and hyperbolic roots at a = 2.
ROOTS = (-1.526035, 1.26988)
# At 24 x 24 build_mesh takes about two thirds of a mesh command; the rest is
# the +-0.01 re-solve of the root inside the command.
MESH_NU = MESH_NV = 24

EXIT_OK = 0
EXIT_NOT_ADMISSIBLE = 4

# Tolerances of the output checks.  The outputs are results of an adaptive
# integration at rel_tol 1e-10, so a change of integrator or solver that keeps
# that accuracy moves them in the trailing digits.  In brackets: the largest
# deviation between the seed's outputs and the same commands run with 100-fold
# tighter integrator tolerances (--rel-tol 1e-12 --abs-tol 1e-14).
#
# scan f1, f2: |f - f_ref| <= TOL_SCAN_F * max(1, |f_ref|)^2.  f = -num/den,
# and next to a pole an error in den is amplified by f^2 [4.6e-9, at a = 3].
TOL_SCAN_F = 1e-6
# scan grid c, absolute: the grid c_min + k (c_max - c_min) / (steps - 1) is
# fixed by the flags; only the rounding of that formula may differ [0].
TOL_SCAN_C = 1e-12
# solve c, absolute: refinement stops at a bracket --tol-c = 1e-9 wide, so two
# correct solvers may return roots about 1e-9 apart [7.5e-10].
TOL_SOLVE_C = 1e-8
# solve f, relative: f moves by f'(c) times the freedom in c [4.5e-11].
TOL_SOLVE_F = 1e-7
# mesh vertices and symmetry-curve points, absolute in the hollow ball (radius
# below exp(pi / 2)).  The frame entries are largest at the vertices next to
# the ends, where the integration error in the coordinates is largest [3.8e-5;
# at least 85% of the vertices agree to 1e-8].
TOL_MESH_Y = 1e-3


@dataclass(frozen=True)
class Op:
    """One CLI command: `argv` may hold {out} placeholders for output files."""

    key: str
    argv: tuple
    expect_exit: int
    work: int


def _num(x: float) -> str:
    return repr(float(x))


def make_ops(workload: str) -> list:
    if workload == "scan":
        return [
            Op(
                f"scan:a={_num(a)},c={_num(lo)}..{_num(hi)}",
                ("scan", "--a", _num(a), "--c-min", _num(lo), "--c-max", _num(hi),
                 "--steps", str(SCAN_STEPS), "--out", "{out}/scan.csv"),
                EXIT_OK,
                SCAN_STEPS,
            )
            for a in SCAN_A
            for lo, hi in zip(SCAN_EDGES[:-1], SCAN_EDGES[1:])
        ]
    if workload == "solve":
        return [
            Op(
                f"solve:{_num(lo)},{_num(hi)}",
                ("solve", "--a", "2", "--c0", _num(lo), "--c1", _num(hi),
                 "--json", "{out}/solution.json"),
                EXIT_NOT_ADMISSIBLE if (lo, hi) == POLE_BRACKET else EXIT_OK,
                1,
            )
            for lo, hi in SOLVE_BRACKETS
        ]
    if workload == "mesh":
        return [
            Op(
                f"mesh:c={_num(c)}",
                ("mesh", "--a", "2", "--c", _num(c), "--nu", str(MESH_NU),
                 "--nv", str(MESH_NV), "--format", "obj", "--out", "{out}/mesh.obj",
                 "--curves", "{out}/curves.csv"),
                EXIT_OK,
                2 * MESH_NU * MESH_NV,
            )
            for c in ROOTS
        ]
    if workload == "verify":
        # work is the number of checks run, known only from the output
        return [
            Op(f"verify:c={_num(c)}", ("verify", "--a", "2", "--c", _num(c), "--deep"),
               EXIT_OK, 0)
            for c in ROOTS
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("scan", "solve", "mesh", "verify")


# ---------------------------------------------------------------------------
# parsing: each op's outputs reduced to a JSON-able record


_BRACKET = re.compile(r"^bracket \[(\S+), (\S+)\] admissible_hint=(true|false)$")
_MESH = re.compile(r"^mesh: (\d+) samples, (\d+) triangles, (\d+) holes$")
_CHECK = re.compile(r"^\[(PASS|FAIL)\] (\S+)")


def _rows(path: Path) -> list:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))[1:]


def parse(workload: str, rc: int, stdout: str, out: Path) -> dict:
    """Record of one op's results; raises on output that cannot be parsed."""
    rec: dict = {"exit": rc}
    lines = stdout.splitlines()
    if workload == "scan" and rc == EXIT_OK:
        rec["rows"] = [
            [float(c), float(f1), float(f2), hint == "true"]
            for c, f1, f2, hint in _rows(out / "scan.csv")
        ]
        brackets = [_BRACKET.match(line) for line in lines[:-1]]
        rec["brackets"] = [
            [float(m[1]), float(m[2]), m[3] == "true"] for m in brackets
        ]
        rec["summary"] = lines[-1]
    elif workload == "solve":
        path = out / "solution.json"
        rec["written"] = path.exists()
        if rc == EXIT_OK:
            sol = json.loads(path.read_text())
            rec.update(c=sol["c"], f=sol["f"], end_type=sol["end_type"])
    elif workload == "mesh" and rc == EXIT_OK:
        m = _MESH.match(lines[-1])
        rec.update(samples=int(m[1]), triangles=int(m[2]), holes=int(m[3]))
        text = (out / "mesh.obj").read_text().splitlines()
        rec["vertices"] = [[float(v) for v in ln.split()[1:]] for ln in text if ln[0] == "v"]
        faces = "\n".join(ln for ln in text if ln[0] == "f")
        rec["faces"] = faces.count("\n") + 1 if faces else 0
        rec["faces_sha256"] = hashlib.sha256(faces.encode()).hexdigest()
        rec["curves"] = [[int(r[0])] + [float(v) for v in r[1:]]
                         for r in _rows(out / "curves.csv")]
    elif workload == "verify":
        rec["checks"] = [[m[1], m[2]] for m in map(_CHECK.match, lines) if m]
    return rec


def work_done(workload: str, op: Op, rec: dict) -> int:
    return len(rec.get("checks", ())) if workload == "verify" else op.work


# ---------------------------------------------------------------------------
# checks against the pinned references


def _rel(x: float, ref: float, tol: float, power: int = 1) -> bool:
    return math.isfinite(x) and abs(x - ref) <= tol * max(1.0, abs(ref)) ** power


def _absolute(x: float, ref: float, tol: float) -> bool:
    return math.isfinite(x) and abs(x - ref) <= tol


def check(workload: str, op: Op, rec: dict, ref: dict) -> list:
    """Mismatches between an op's record and its reference (empty when correct)."""
    if rec["exit"] != op.expect_exit or rec["exit"] != ref["exit"]:
        return [f"exit code {rec['exit']}, expected {op.expect_exit}"]
    bad: list = []
    if workload == "scan":
        if len(rec["rows"]) != len(ref["rows"]):
            return [f"{len(rec['rows'])} CSV rows, expected {len(ref['rows'])}"]
        for got, want in zip(rec["rows"], ref["rows"]):
            if not (_absolute(got[0], want[0], TOL_SCAN_C)
                    and _rel(got[1], want[1], TOL_SCAN_F, 2)
                    and _rel(got[2], want[2], TOL_SCAN_F, 2)
                    and got[3] == want[3]):
                bad.append(f"row {got} differs from {want}")
        if len(rec["brackets"]) != len(ref["brackets"]) or any(
            not (_absolute(g[0], w[0], TOL_SCAN_C) and _absolute(g[1], w[1], TOL_SCAN_C)
                 and g[2] == w[2])
            for g, w in zip(rec["brackets"], ref["brackets"])
        ):
            bad.append(f"brackets {rec['brackets']} differ from {ref['brackets']}")
        if rec["summary"] != ref["summary"]:
            bad.append(f"summary {rec['summary']!r} differs from {ref['summary']!r}")
    elif workload == "solve":
        if rec["written"] != ref["written"]:
            bad.append("solution record written" if rec["written"] else "no solution record")
        if rec["exit"] == EXIT_OK:
            if not _absolute(rec["c"], ref["c"], TOL_SOLVE_C):
                bad.append(f"c = {rec['c']!r}, expected {ref['c']!r}")
            if not _rel(rec["f"], ref["f"], TOL_SOLVE_F):
                bad.append(f"f = {rec['f']!r}, expected {ref['f']!r}")
            if rec["end_type"] != ref["end_type"]:
                bad.append(f"end type {rec['end_type']}, expected {ref['end_type']}")
    elif workload == "mesh":
        for key in ("samples", "triangles", "holes", "faces", "faces_sha256"):
            if rec[key] != ref[key]:
                bad.append(f"{key} {rec[key]!r}, expected {ref[key]!r}")
        # curve ids are integers, so the absolute test compares them exactly
        for key in ("vertices", "curves"):
            got, want = rec[key], ref[key]
            if len(got) != len(want):
                bad.append(f"{len(got)} {key}, expected {len(want)}")
            elif not all(
                len(g) == len(w) and all(_absolute(x, y, TOL_MESH_Y) for x, y in zip(g, w))
                for g, w in zip(got, want)
            ):
                bad.append(f"{key} deviate by more than {TOL_MESH_Y}")
    elif workload == "verify":
        if rec["checks"] != ref["checks"]:
            bad.append(f"checks {rec['checks']} differ from {ref['checks']}")
    return bad


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())
