"""The recorded digests of the outputs that the benchmark pins, and of every
other command of tools/output_digest.py.

perfbench/references.json pins the outputs of the benchmark's `mesh` and
`solve` ops, and a root that moves in its last digits moves mesh vertices past
the benchmark's tolerance.  tools/output_digest.txt records the SHA-256 of
those commands' outputs, so a change to any of them fails here; the two
integration failures held here too keep the one format of the transport's
failure messages, which name the point of the curve and the c.  Every
`scan` command is held, since its CSV and bracket lines are formed from the
scan's arrays (dscat.period.ScanResult), and a change to how they are built
or read would show here.  The five `verify` commands are held because the
battery splits its work between two processes
(dscat.checks.run_invariant_suite), and a split that changed a check's
result or the order of the report would show here.  The two solves beyond
the benchmark's brackets exit 4 by each outcome of refinement's
pole-or-crossing decision, and the scalar DP5 kernel decides their bytes, as
it does those of the `classify` whose initial step reaches it (its end
loop); the `classify` at a = 1.2 holds the PathError exit.  The two meshes
are held a second time with one CPU visible, which keeps all work in one
process (dscat._worker): a serial run must write the bytes of a paired one.
Skipped unless Python and numpy are the versions the file was recorded with,
since other versions may round differently.
"""

import importlib.util
from pathlib import Path

import pytest

from conftest import one_cpu

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def _load_digest():
    spec = importlib.util.spec_from_file_location("output_digest", DIGEST)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


digest = _load_digest()
# Every command: the five verify commands; the two 24 x 24 meshes; the seven
# scans: the three 2600-point scans, the 27-point block, the scan at loose
# tolerances, which the Magnus kernel completes, the --initial-step scan and
# the a = 1 error; the benchmark's four admissible brackets and its pole
# bracket, which exits 4, and the two further brackets that exit 4; the two
# integration failures, which exit 3: the step limit and the scalar kernel's
# sheet check; the PathError at a = 1.2, which exits 2; and the classify
# whose initial step reaches the scalar kernel.
PINNED = list(digest.COMMANDS)


def test_the_pinned_commands_are_listed():
    assert len(PINNED) == 25


def _recorded() -> list:
    """The recorded lines; skips the test where the versions differ."""
    recorded = digest.RECORDED.read_text().splitlines()
    if recorded[0] != digest.versions():
        pytest.skip(f"recorded with {recorded[0][2:]}, running {digest.versions()[2:]}")
    return recorded


def _id(argv: tuple) -> str:
    """A command's first seven words, nine with --max-steps; for a scan at
    the default tolerances, every word before --out."""
    if argv[0] == "scan" and digest.LOOSE[0] not in argv:
        return " ".join(argv[: argv.index("--out")])
    return " ".join(argv[:9] if "--max-steps" in argv else argv[:7])


@pytest.mark.parametrize("argv", PINNED, ids=_id)
def test_pinned_output_is_recorded(argv):
    assert digest.line(argv) in _recorded()


@pytest.mark.parametrize(
    "argv", [argv for argv in PINNED if argv[0] == "mesh"], ids=lambda argv: " ".join(argv[:5])
)
def test_serial_mesh_output_is_recorded(argv, monkeypatch):
    # with one CPU visible no work goes to the worker: the serial run writes
    # the bytes the paired run does
    recorded = _recorded()
    one_cpu(monkeypatch)
    assert digest.line(argv) in recorded
