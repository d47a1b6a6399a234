"""SHA-256 digests of dscat's outputs on a fixed set of commands.

    python3 tools/output_digest.py            # print the digest lines
    python3 tools/output_digest.py --check    # compare with output_digest.txt

Run it from any directory: it imports dscat from the src/ of the checkout that
holds it.  Each command runs in this process through dscat.cli.main, in a
fresh temporary directory, and prints one line: the SHA-256 taken over its
exit code, its stdout, its stderr and the files it wrote, then the command.
The created_utc timestamp of a solve record is dropped before hashing.

Two checkouts whose outputs agree byte for byte print the same lines, so a
change that must keep every output is checked by comparing this script's
output in both, run plain and pinned to one CPU (taskset -c 0), since the
number of CPUs decides which work runs in the worker process.

output_digest.txt beside this script holds the lines of the last change that
altered an output on purpose, headed by the Python and numpy versions they
were recorded with (other versions may round differently).  --check runs
every command, names each one whose line differs from the file or is missing
from it, and exits 1 if there is any.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import platform
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from dscat import cli  # noqa: E402

RECORDED = HERE / "output_digest.txt"

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
    # a block shaped like the benchmark's scan ops, whose half paths run in pieces
    ("scan", "--a", "3", "--c-min", "-9", "--c-max", "-6.4", "--steps", "27",
     "--out", "{d}/scan.csv"),
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
    # the initial step reaches the scalar kernel (classify's end loop) and the
    # lane kernel (scan); a scan at a = 1 exits 2 on the branch parameter
    ("classify", "--a", "2", "--c", "-1.526035", "--initial-step", "0.2"),
    ("scan", "--a", "2", "--c-min", "-9", "--c-max", "4", "--steps", "30",
     "--initial-step", "0.2", "--out", "{d}/scan.csv"),
    ("scan", "--a", "1", "--c-min", "-9", "--c-max", "4", "--steps", "30",
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


def versions() -> str:
    """The header line of output_digest.txt."""
    return f"# python {platform.python_version()}, numpy {np.__version__}"


def line(argv: tuple) -> str:
    """The digest of one command, then the command."""
    return f"{digest(argv)} {' '.join(argv).replace('{d}/', '')}"


def main(args: list) -> int:
    if args not in ([], ["--check"]):
        sys.exit("usage: output_digest.py [--check]")
    if not args:
        print(versions(), flush=True)
        for argv in COMMANDS:
            print(line(argv), flush=True)
        return 0
    recorded = RECORDED.read_text().splitlines()
    if recorded[0] != versions():
        print(f"note: recorded with {recorded[0][2:]}, running {versions()[2:]}", flush=True)
    differ = 0
    for argv in COMMANDS:
        got = line(argv)
        differ += got not in recorded
        print("same   " if got in recorded else "DIFFERS", got.split(" ", 1)[1], flush=True)
    print(f"{differ} of {len(COMMANDS)} command(s) differ", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
