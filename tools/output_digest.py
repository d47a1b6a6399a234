"""SHA-256 digests of dscat's outputs on a fixed set of commands.

    python3 tools/output_digest.py

Run it from any directory: it imports dscat from the src/ of the checkout that
holds it.  Each command runs in this process through dscat.cli.main, in a
fresh temporary directory, and prints one line: the SHA-256 taken over its
exit code, its stdout, its stderr and the files it wrote, then the command.
The created_utc timestamp of a solve record is dropped before hashing.

Two checkouts whose outputs agree byte for byte print the same lines, so a
change that must keep every output is checked by comparing this script's
output in both, run plain and pinned to one CPU (taskset -c 0), since the
number of CPUs decides which work runs in the worker process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dscat import cli  # noqa: E402

ROOTS = ("-1.526035", "1.26988")
# The four a = 2 brackets of the benchmark's solve workload, then its pole
# bracket, which exits 4.  The last two exit 4 by each outcome of refinement's
# pole-or-crossing decision: a pole of f1, and the crossing with |f| < 1.
BRACKETS = (("-7.65", "-7.58"), ("-4.10", "-4.02"), ("-1.55", "-1.50"), ("1.25", "1.29"),
            ("-4.85", "-4.75"), ("-0.56", "-0.55"), ("-0.06", "-0.05"))
MESH = ("--nu", "24", "--nv", "24", "--format", "obj", "--out", "{d}/mesh.obj",
        "--curves", "{d}/curves.csv")
LOOSE = ("--rel-tol", "1e-4", "--abs-tol", "1e-4")
COMMANDS = (
    *(("verify", "--a", "2", "--c", c, "--deep") for c in (*ROOTS, "-7.611914")),
    *(("verify", "--a", "2", "--c", c) for c in ("3.5", "-0.55")),
    *(("mesh", "--a", "2", "--c", c, *MESH) for c in ROOTS),
    *(("scan", "--a", a, "--c-min", "-9", "--c-max", "4", "--steps", "2600",
       "--out", "{d}/scan.csv") for a in ("1.5", "2", "3")),
    *(("solve", "--a", "2", "--c0", lo, "--c1", hi, "--json", "{d}/solve.json")
      for lo, hi in BRACKETS),
    # error paths: the step limit (exit 3); a PathError, since at a = 1.2 the
    # canonical paths cannot clear the branch points (exit 2); the sheet
    # residual in the scalar kernel and in the lane kernel (exit 3)
    ("solve", "--a", "2", "--c0", "1.25", "--c1", "1.29", "--max-steps", "150",
     "--json", "{d}/solve.json"),
    ("classify", "--a", "1.2", "--c", "-1"),
    ("classify", "--a", "2", "--c", "-1.526035", *LOOSE),
    ("scan", "--a", "2", "--c-min", "-9", "--c-max", "4", "--steps", "30", *LOOSE,
     "--out", "{d}/scan.csv"),
)
_CREATED_UTC = re.compile(rb'^\s*"created_utc": .*\n', re.MULTILINE)


def digest(argv: tuple) -> str:
    """SHA-256 of the exit code, stdout, stderr and files of one command."""
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([arg.format(d=tmp) for arg in argv])
        parts += [str(code).encode(), out.getvalue().encode(), err.getvalue().encode()]
        for path in sorted(Path(tmp).iterdir()):
            parts += [path.name.encode(), _CREATED_UTC.sub(b"", path.read_bytes())]
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little") + part)
    return h.hexdigest()


def main() -> None:
    for argv in COMMANDS:
        print(digest(argv), " ".join(argv).replace("{d}/", ""), flush=True)


if __name__ == "__main__":
    main()
