"""The recorded digests of the outputs that the benchmark pins, and of every
other command of tools/output_digest.py.

perfbench/references.json pins the outputs of the benchmark's `mesh` and
`solve` ops, and a root that moves in its last digits moves mesh vertices past
the benchmark's tolerance.  tools/output_digest.txt records the SHA-256 of
those commands' outputs, so a change to any of them fails here; the two
integration failures held here too, the Magnus grid's step budget and the
scalar kernel's sheet check, keep the one format of the transport's failure
messages, which name the point of the curve and the c.  Every
`scan` command is held, since its CSV and bracket lines are formed from the
scan's arrays (dscat.period.ScanResult), and a change to how they are built
or read would show here.  The five `verify` commands are held because the
battery splits its work between two processes
(dscat.checks.run_invariant_suite), and a split that changed a check's
result or the order of the report would show here.  The two solves beyond
the benchmark's brackets exit 4: one as a pole of f1, refused from the
bracket's two ends, and one as a crossing with |f| < 1.  The Magnus
kernel's iterates decide the first's bytes; the DP5 evaluation of the
refined root decides the f that the second's message names.  A solve and a mesh exit 4 on the pole of f2 at
c = 0, refused as any pole is; the `classify` at a = 1.2 holds the PathError
exit.  The two meshes
and the five `verify` commands are held a second time with one CPU visible,
which keeps all work in one process (dscat._worker): a serial run must write
the bytes of a paired one.  The meshes pair the transfers of every
refinement iterate and the DP5 half paths of the root; verify pairs them too
and splits its battery, solved root or not.
The recorded-line tests are skipped unless Python and numpy are the versions
the file was recorded with, since other versions may round differently.
"""

import hashlib
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
# Every command: the five verify commands; the two 24 x 24 meshes; the eight
# scans: the three 2600-point scans, the two 27-point blocks, the second
# holding c = 0.0, where a point is skipped, the scan at loose tolerances,
# which the Magnus kernel completes, the a = 1 error, and the scan at |c| up
# to 1e12; the benchmark's four admissible brackets and its pole bracket,
# which exits 4, and the two further brackets that exit 4; the solve and the
# 4 x 4 mesh that exit 4 on the pole of f2 at c = 0; the two integration
# failures, which exit 3: the Magnus grid's step budget, in that scan at
# |c| up to 1e12, and the scalar kernel's sheet check; and the PathError at
# a = 1.2, which exits 2.
PINNED = list(digest.COMMANDS)


def test_the_pinned_commands_are_listed():
    assert len(PINNED) == 26


def test_a_command_argparse_rejects_is_hashed_and_the_check_goes_on(monkeypatch, capsys):
    # argparse exits through SystemExit(2) on an unknown flag, its usage on
    # stderr: that is the command's exit code and stderr, and --check names
    # the command and runs the ones after it
    rejected = ("classify", "--a", "1.2", "--c", "-1", "--no-such-flag")
    listed = ("classify", "--a", "1.2", "--c", "-1")
    with pytest.raises(SystemExit) as exc:
        digest.cli.main(list(rejected))
    expected = hashlib.sha256()
    for part in (b"2", b"", capsys.readouterr().err.encode()):
        expected.update(len(part).to_bytes(8, "little") + part)
    assert exc.value.code == 2
    assert digest.digest(rejected) == expected.hexdigest()
    monkeypatch.setattr(digest, "COMMANDS", (rejected, listed))
    code = digest.main(["--check"])
    *_, first, second, summary = capsys.readouterr().out.splitlines()
    assert first == "DIFFERS " + " ".join(rejected)
    assert second.endswith(" " + " ".join(listed))
    assert summary.endswith(" of 2 command(s) differ") and code == 1


def _recorded() -> list:
    """The recorded lines; skips the test where the versions differ."""
    recorded = digest.RECORDED.read_text().splitlines()
    if recorded[0] != digest.versions():
        pytest.skip(f"recorded with {recorded[0][2:]}, running {digest.versions()[2:]}")
    return recorded


def _id(argv: tuple) -> str:
    """A command's first seven words; for a scan at the default tolerances,
    every word before --out."""
    if argv[0] == "scan" and digest.LOOSE[0] not in argv:
        return " ".join(argv[: argv.index("--out")])
    return " ".join(argv[:7])


@pytest.mark.parametrize("argv", PINNED, ids=_id)
def test_pinned_output_is_recorded(argv):
    assert digest.line(argv) in _recorded()


@pytest.mark.parametrize(
    "argv", [argv for argv in PINNED if argv[0] in ("mesh", "verify")],
    ids=lambda argv: " ".join(argv[:5]),
)
def test_serial_mesh_output_is_recorded(argv, monkeypatch):
    # with one CPU visible no work goes to the worker: the serial run writes
    # the bytes the paired run does
    recorded = _recorded()
    one_cpu(monkeypatch)
    assert digest.line(argv) in recorded
