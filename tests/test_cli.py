import json
import math
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from dscat import cli
from dscat.cli import main


def run(argv):
    return main(argv)


def test_scan_csv_and_determinism(tmp_path):
    out1 = tmp_path / "scan1.csv"
    out2 = tmp_path / "scan2.csv"
    argv = ["scan", "--a", "2", "--c-min", "-0.07", "--c-max", "0.05", "--steps", "40"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    text = out1.read_text()
    assert text == out2.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "c,f1,f2,admissible_hint"
    values = [float(line.split(",")[0]) for line in lines[1:]]
    assert values == sorted(values)
    assert all(abs(v) >= 0.01 for v in values)
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 4
        float(fields[1]), float(fields[2])
        assert fields[3] in ("true", "false")


def test_scan_flag_validation(tmp_path):
    assert run(
        ["scan", "--a", "0.5", "--c-min", "0", "--c-max", "1", "--out", str(tmp_path / "x.csv")]
    ) == 2
    assert run(
        ["scan", "--a", "2", "--c-min", "0", "--c-max", "1", "--steps", "1", "--out", str(tmp_path / "x.csv")]
    ) == 2
    assert run(
        ["scan", "--a", "2", "--c-min", "1", "--c-max", "0", "--out", str(tmp_path / "x.csv")]
    ) == 2
    with pytest.raises(SystemExit) as exc:
        run(["scan", "--a", "2", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_scan_failure_names_the_curve_point_and_c(tmp_path, capsys):
    # the scan's Magnus kernel has no sheet to lose: what is left of exit 3
    # is a grid over --max-steps, named by the end of the segment where the
    # grid passed the limit and by the c of largest modulus, which sets it
    code = run(
        ["scan", "--a", "2", "--c-min", "-9", "--c-max", "4", "--steps", "30",
         "--max-steps", "50", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 3
    err = capsys.readouterr().err
    prefix = "error: integration failed: Magnus grid exceeds 50 steps by z = "
    assert err.startswith(prefix)
    z, c = err[len(prefix):].rstrip("\n").split(" for c = ")
    assert complex(z) == 1.5  # the end of c1, whose first grid has 56 steps
    assert float(c) == -9.0
    assert list(tmp_path.iterdir()) == []


def test_step_budget_names_the_curve_point_and_c(tmp_path, capsys):
    # a DP5 integration over --max-steps names the point of the curve where
    # its failing step starts and the c, as a step size underflow does: here
    # c2 at the bracket's low end, on its second segment, 2 + 0.8j -> 4
    code = run(["solve", "--a", "2", "--c0", "1.25", "--c1", "1.29", "--max-steps", "150",
                "--json", str(tmp_path / "s.json")])
    assert code == 3
    err = capsys.readouterr().err
    prefix = "error: integration failed: exceeded 150 steps at z = "
    assert err.startswith(prefix)
    z, c = err[len(prefix):].rstrip("\n").split(" for c = ")
    assert float(c) == 1.25
    assert 2.0 < complex(z).real < 4.0 and 0.0 < complex(z).imag < 0.8
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("c_min", ["-3e5", "-1e5"])
def test_scan_overflow_exits_integration_and_writes_nothing(tmp_path, c_min):
    # the frame along c1 overflows at these c: its determinant drift is NaN,
    # which fails the drift check instead of passing it, and no
    # RuntimeWarning reaches stderr (the worker's included)
    out = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "dscat", "scan", "--a", "2", f"--c-min={c_min}",
         "--c-max=-1000", "--steps", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 3
    assert proc.stderr == (
        "error: integration failed: scaled determinant drift nan at z = (1.5+0j) "
        f"for c = {float(c_min)}\n"
    )
    assert proc.stdout == "" and list(tmp_path.iterdir()) == []


def test_solve_elliptic_record(tmp_path):
    out = tmp_path / "sol.json"
    code = run(
        ["solve", "--a", "2", "--c0", "-1.5265", "--c1", "-1.5255", "--json", str(out)]
    )
    assert code == 0
    record = json.loads(out.read_text())
    assert record["schema_version"] == "1"
    assert record["end_type"] == "elliptic"
    assert record["su11_residual"] < 1e-6
    assert abs(record["c"] + 1.526035) < 0.01
    assert record["f"] > 1.0
    assert record["m"]["im"] == 0.0
    assert record["eigenvalue_mismatch"] < 1e-6
    assert record["integrator"]["rel_tol"] == 1e-10
    assert "created_utc" in record["timestamps"]

    # determinism apart from the timestamp block
    out2 = tmp_path / "sol2.json"
    assert run(
        ["solve", "--a", "2", "--c0", "-1.5265", "--c1", "-1.5255", "--json", str(out2)]
    ) == 0
    r2 = json.loads(out2.read_text())
    record.pop("timestamps")
    r2.pop("timestamps")
    assert record == r2


def test_solve_hyperbolic_record(tmp_path):
    out = tmp_path / "sol.json"
    code = run(
        ["solve", "--a", "2", "--c0", "1.269", "--c1", "1.271", "--json", str(out)]
    )
    assert code == 0
    record = json.loads(out.read_text())
    assert record["end_type"] == "hyperbolic"
    assert record["m"]["re"] == 0.0
    assert abs(record["m"]["im"] - 2.01978) < 1e-3


def test_solve_first_published_root(tmp_path):
    out = tmp_path / "sol.json"
    code = run(
        ["solve", "--a", "2", "--c0", "-7.62", "--c1", "-7.60", "--json", str(out)]
    )
    assert code == 0
    record = json.loads(out.read_text())
    assert record["end_type"] == "elliptic"
    assert record["su11_residual"] < 1e-6
    assert abs(record["c"] + 7.6119) < 0.01
    reloaded = json.loads(json.dumps(record))
    assert reloaded == record  # lossless round trip


def test_solve_pole_bracket_not_admissible(tmp_path):
    code = run(
        ["solve", "--a", "2", "--c0", "-0.56", "--c1", "-0.55", "--json", str(tmp_path / "x.json")]
    )
    assert code == 4
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("tol_c", ["1e-11", "1e-13"])
@pytest.mark.parametrize("c0, c1", [("-4.85", "-4.75"), ("-0.56", "-0.55")])
def test_solve_pole_bracket_at_tight_tol_c(tmp_path, capsys, c0, c1, tol_c):
    # an iterate lands where a denominator vanishes, which ends the refinement
    # as a pole
    out = tmp_path / "x.json"
    code = run(["solve", "--a", "2", "--c0", c0, "--c1", c1, "--tol-c", tol_c, "--json", str(out)])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: not admissible: ")
    assert not out.exists()


def test_solve_without_sign_change(tmp_path):
    code = run(
        ["solve", "--a", "2", "--c0", "3.0", "--c1", "3.1", "--json", str(tmp_path / "x.json")]
    )
    assert code == 4


def test_classify_elliptic(capsys):
    assert run(["classify", "--a", "2", "--c", "-7.6119"]) == 0
    out = capsys.readouterr().out
    assert "elliptic" in out
    assert "5.6078" in out


def test_classify_hyperbolic_json(tmp_path):
    out = tmp_path / "cls.json"
    assert run(["classify", "--a", "2", "--c", "1.26988", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["end_type"] == "hyperbolic"
    assert abs(payload["m"]["im"] - 2.01978) < 1e-3
    assert payload["eigenvalue_mismatch"] < 1e-6


def test_classify_resonant_exit():
    assert run(["classify", "--a", "2", "--c", "-0.75"]) == 6


def test_classify_half_integer_exponent_is_fine():
    assert run(["classify", "--a", "2", "--c", "0.1875"]) == 0


def test_classify_zero_c_exit():
    assert run(["classify", "--a", "2", "--c", "0"]) == 2


def test_mesh_csv_and_obj(tmp_path):
    csv_out = tmp_path / "mesh.csv"
    code = run(
        [
            "mesh", "--a", "2", "--c", "-1.526035",
            "--nu", "8", "--nv", "10", "--format", "csv",
            "--out", str(csv_out),
        ]
    )
    assert code == 0
    lines = csv_out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["z_re", "z_im", "w_re", "w_im"]
    assert "g_abs" in header and "singular" in header
    iy = header.index("y1")
    for line in lines[1:]:
        fields = line.split(",")
        r2 = sum(float(fields[iy + k]) ** 2 for k in range(3))
        assert math.exp(-math.pi) < r2 < math.exp(math.pi)

    obj_out = tmp_path / "mesh.obj"
    curves_out = tmp_path / "curves.csv"
    code = run(
        [
            "mesh", "--a", "2", "--c", "-1.526035",
            "--nu", "8", "--nv", "10", "--format", "obj",
            "--out", str(obj_out), "--curves", str(curves_out),
        ]
    )
    assert code == 0
    v_lines = []
    f_lines = []
    for line in obj_out.read_text().strip().splitlines():
        kind = line.split()[0]
        assert kind in ("v", "f")
        (v_lines if kind == "v" else f_lines).append(line)
    assert len(v_lines) == len(lines) - 1  # same sample count as the CSV run
    for line in f_lines:
        idx = [int(tok) for tok in line.split()[1:]]
        assert len(idx) == 3
        assert all(1 <= i <= len(v_lines) for i in idx)

    curve_lines = curves_out.read_text().strip().splitlines()
    assert curve_lines[0] == "curve_id,y1,y2,y3"
    assert len(curve_lines) > 1
    for line in curve_lines[1:]:
        fields = line.split(",")
        assert abs(float(fields[2])) < 1e-6


def test_mesh_at_non_root_exits(tmp_path):
    code = run(
        ["mesh", "--a", "2", "--c", "3.5", "--out", str(tmp_path / "m.obj")]
    )
    assert code == 4


@pytest.mark.parametrize(
    "argv, bracket",
    [
        (["solve", "--a", "2", "--c0=-0.005", "--c1", "0.005", "--json", "{tmp}/s.json"],
         "[-0.005, 0.005]"),
        (["mesh", "--a", "2", "--c", "0.004", "--nu", "4", "--nv", "4", "--out", "{tmp}/m.obj"],
         "[-0.006, 0.014]"),
        (["mesh", "--a", "2", "--c", "0", "--out", "{tmp}/m.obj"], "[-0.01, 0.01]"),
    ],
    ids=["solve", "mesh", "mesh-at-zero"],
)
def test_bracket_containing_zero_exits_usage(tmp_path, capsys, argv, bracket):
    # c = 0 is invalid input, not a pole; mesh refines near(c) = c +- 0.01
    code = run([x.format(tmp=tmp_path) for x in argv])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: invalid input: bracket {bracket} contains c = 0, "
        "which is neither a root nor a pole\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_mesh_unwritable_output_exits_io(tmp_path, capsys):
    # the error names the path asked for, whether the new file beside it
    # cannot be made (a missing directory) or cannot be renamed over it (a
    # directory), and the new file does not stay behind
    taken = tmp_path / "taken"
    taken.mkdir()
    for out, error in (
        (tmp_path / "missing-dir" / "m.obj", "[Errno 2] No such file or directory"),
        (taken, "[Errno 21] Is a directory"),
    ):
        code = run(
            ["mesh", "--a", "2", "--c", "-1.526035", "--nu", "6", "--nv", "8", "--out", str(out)]
        )
        assert code == 8
        assert capsys.readouterr().err == f"error: I/O error: {error}: '{out}'\n"
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert list(taken.iterdir()) == []


def test_verify_zero_c():
    assert run(["verify", "--a", "2", "--c", "0"]) == 2


def test_verify_at_root(capsys):
    assert run(["verify", "--a", "2", "--c", "-1.526035"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_verify_deep_at_root(capsys):
    assert run(["verify", "--a", "2", "--c", "-1.526035", "--deep"]) == 0
    out = capsys.readouterr().out
    assert "reference-agreement" in out
    assert "homotopy-invariance" in out
    assert "schwarzian-order" in out
    assert "[FAIL]" not in out


def test_verify_at_excluded_crossing(capsys):
    assert run(["verify", "--a", "2", "--c", "-0.55"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert "period-crossing" in out or "admissibility" in out


def test_verify_without_crossing_skips_dependents(capsys):
    assert run(["verify", "--a", "2", "--c", "3.5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [tuple(line.split()[:2]) for line in lines] == [
        ("[PASS]", "sheet-closure"),
        ("[PASS]", "det-preservation"),
        ("[PASS]", "scalar-ode-residual"),
        ("[PASS]", "structure-forms"),
        ("[PASS]", "product-vs-direct"),
        ("[PASS]", "lift-independence"),
        ("[FAIL]", "period-crossing"),
        ("[FAIL]", "admissibility"),
        ("[FAIL]", "gauge-identity"),
        ("[FAIL]", "period-closure"),
        ("[FAIL]", "identity-gauge-fails"),
        ("[PASS]", "end-eigenvalues"),
        ("[FAIL]", "schwarzian-identity"),
        ("[FAIL]", "small-formula"),
        ("[FAIL]", "geometry-invariants"),
    ]
    assert lines[6].split(None, 2)[2] == "LostBracket: no sign change over [3.49, 3.51]"
    assert [line.split(None, 2)[2] for line in lines[7:11] + lines[12:]] == [
        "skipped (no crossing)",
        "skipped (not admissible)",
        "skipped (no gauge)",
        "skipped (no crossing)",
        "skipped (no solution)",
        "skipped (no solution)",
        "skipped (no solution)",
    ]


# one command line per command, without --a
EVERY_COMMAND = [
    ["scan", "--c-min", "-1", "--c-max", "1", "--steps", "3", "--out", "{tmp}/s.csv"],
    ["solve", "--c0", "1", "--c1", "2", "--json", "{tmp}/s.json"],
    ["classify", "--c", "1"],
    ["mesh", "--c", "1", "--out", "{tmp}/m.obj"],
    ["verify", "--c", "1"],
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_domain_error_exits_usage(tmp_path, capsys, argv):
    # at a = 1.05 the canonical paths cannot clear the branch points 1 and a
    code = run([argv[0], "--a", "1.05"] + [x.format(tmp=tmp_path) for x in argv[1:]])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: invalid input: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("a", ["1", "0.5"])
@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_branch_parameter_exits_usage(tmp_path, capsys, argv, a):
    code = run([argv[0], "--a", a] + [x.format(tmp=tmp_path) for x in argv[1:]])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: invalid input: branch parameter must satisfy a > 1, got {float(a)}\n"
    )
    assert list(tmp_path.iterdir()) == []


NON_FINITE = [
    ["classify", "--a", "2", "--c", "nan"],
    ["classify", "--a", "2", "--c", "inf"],
    ["classify", "--a", "inf", "--c", "-1"],
    ["classify", "--a", "2", "--c", "1e6"],
    ["classify", "--a", "2", "--c=-1e308"],
    ["verify", "--a", "2", "--c", "nan"],
    ["verify", "--a", "inf", "--c", "1"],
    ["scan", "--a", "1e308", "--c-min", "-9", "--c-max", "4", "--steps", "3", "--out", "{tmp}/s.csv"],
    ["scan", "--a", "1e200", "--c-min", "-9", "--c-max", "4", "--steps", "3", "--out", "{tmp}/s.csv"],
    ["scan", "--a", "2", "--c-min", "1", "--c-max", "inf", "--steps", "3", "--out", "{tmp}/s.csv"],
    ["scan", "--a", "2", "--c-min=-1e308", "--c-max", "1e308", "--steps", "3", "--out", "{tmp}/s.csv"],
    ["mesh", "--a", "2", "--c", "nan", "--out", "{tmp}/m.obj"],
    ["solve", "--a", "2", "--c0", "1", "--c1", "inf", "--json", "{tmp}/s.json"],
]


@pytest.mark.parametrize("argv", NON_FINITE, ids=" ".join)
def test_non_finite_or_overflowing_input_exits_usage(tmp_path, capsys, argv):
    # a, c and the scan grid are checked where they enter, before an
    # integration can underflow its step or a float overflow into a traceback
    code = run([x.format(tmp=tmp_path) for x in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: invalid input: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_scan_steps_beyond_the_floats_exit_usage(tmp_path, capsys):
    # 10^400 grid points: the spacing cannot be formed as a float
    code = run(["scan", "--a", "2", "--c-min", "-9", "--c-max", "4", "--steps", "1" + "0" * 400,
                "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: invalid input: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_scan_grid_too_large_to_allocate_exits_usage(tmp_path, capsys):
    # 10^20 grid points have a float spacing, but numpy refuses an array of
    # that size at once, before anything is integrated
    code = run(["scan", "--a", "2", "--c-min", "-9", "--c-max", "4", "--steps", str(10 ** 20),
                "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: invalid input: --steps {10 ** 20} is too many grid points to allocate\n"
    assert list(tmp_path.iterdir()) == []


def test_config_file_overrides(tmp_path):
    cfg_file = tmp_path / "dscat.cfg"
    cfg_file.write_text("rel_tol = 1e-9\nabs_tol = 1e-11\n# comment\n")
    out = tmp_path / "sol.json"
    code = run(
        [
            "solve", "--a", "2", "--c0", "-1.5265", "--c1", "-1.5255",
            "--config", str(cfg_file), "--json", str(out),
        ]
    )
    assert code == 0
    record = json.loads(out.read_text())
    assert record["integrator"]["rel_tol"] == 1e-9
    # flags beat the config file
    code = run(
        [
            "solve", "--a", "2", "--c0", "-1.5265", "--c1", "-1.5255",
            "--config", str(cfg_file), "--rel-tol", "1e-10", "--json", str(out),
        ]
    )
    assert code == 0
    record = json.loads(out.read_text())
    assert record["integrator"]["rel_tol"] == 1e-10


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.skipif(shutil.which("taskset") is None, reason="needs taskset")
@pytest.mark.parametrize(
    "argv, code",
    [
        (["--c0", "-7.65", "--c1", "-7.58"], 0),
        # c2 takes more than 150 steps at this root: exit 3
        (["--c0", "1.25", "--c1", "1.29", "--max-steps", "150"], 3),
    ],
    ids=["deep-root", "step-limit"],
)
def test_solve_pinned_to_one_cpu_matches_unpinned(tmp_path, argv, code):
    # Pinned to one CPU, the half paths run serially in one process; unpinned
    # on two CPUs, c1 runs in the worker process.  The outputs must agree
    # byte for byte.
    def solve(prefix, name):
        out = tmp_path / name
        proc = subprocess.run(
            prefix + [sys.executable, "-c", "from dscat.cli import app; app()",
                      "solve", "--a", "2", *argv, "--json", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        record = None
        if out.exists():
            record = json.loads(out.read_text())
            del record["timestamps"]
            record = json.dumps(record, indent=2)
        return proc.returncode, proc.stdout, proc.stderr, record

    plain = solve([], "plain.json")
    pinned = solve(["taskset", "-c", "0"], "pinned.json")
    assert plain[0] == code
    assert plain == pinned


@pytest.mark.skipif(shutil.which("taskset") is None, reason="needs taskset")
@pytest.mark.parametrize(
    "argv, code",
    [(["--c", "-1.526035", "--deep"], 0), (["--c", "3.5"], 1)],
    ids=["root-deep", "no-crossing"],
)
def test_verify_pinned_to_one_cpu_matches_unpinned(argv, code):
    # Pinned to one CPU, the whole battery runs in one process; unpinned on
    # two CPUs, the mesh of geometry-invariants is built in the worker
    # process while the other checks run.  The outputs must agree byte for
    # byte.
    def verify(prefix):
        proc = subprocess.run(
            prefix + [sys.executable, "-c", "from dscat.cli import app; app()",
                      "verify", "--a", "2", *argv],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        return proc.returncode, proc.stdout, proc.stderr

    plain = verify([])
    assert plain[0] == code
    assert plain == verify(["taskset", "-c", "0"])


# A scan, a usage error, --help, a solve and the scan again: the commands
# that one process runs one after the other on the parser of its first.
IN_TURN = [
    ["scan", "--a", "2", "--c-min", "-1.6", "--c-max", "-1.45", "--steps", "8",
     "--out", "{d}/scan.csv"],
    ["scan", "--a", "2", "--c-max", "-1.45", "--out", "{d}/scan.csv"],
    ["--help"],
    ["solve", "--a", "2", "--c0", "-1.5265", "--c1", "-1.5255", "--json", "{d}/solve.json"],
    ["scan", "--a", "2", "--c-min", "-1.6", "--c-max", "-1.45", "--steps", "8",
     "--out", "{d}/scan.csv"],
]


def _files(d: Path) -> dict:
    """The bytes of each file in d, a solve record's timestamps removed."""
    files = {}
    for path in sorted(d.iterdir()):
        data = path.read_bytes()
        if path.name == "solve.json":
            record = json.loads(data)
            del record["timestamps"]
            data = json.dumps(record).encode()
        files[path.name] = data
    return files


def test_commands_in_one_process_match_fresh_processes(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process and reuses it; no command can
    # tell: each gives the exit code, output and files of a fresh process
    monkeypatch.setenv("COLUMNS", "80")  # the width of --help, here and there
    builds = []

    def build():
        builds.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", build)
    cli._parser.cache_clear()
    for k, argv in enumerate(IN_TURN):
        here, fresh = tmp_path / f"here{k}", tmp_path / f"fresh{k}"
        here.mkdir()
        fresh.mkdir()
        try:
            code = main([arg.format(d=here) for arg in argv])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "dscat", *(arg.format(d=fresh) for arg in argv)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"},
        )
        assert (code, out, err, _files(here)) == (
            proc.returncode, proc.stdout, proc.stderr, _files(fresh)
        ), argv
        assert code == {1: 2, 2: 0}.get(k, 0)
    assert len(builds) == 1


@pytest.mark.parametrize(
    "line, named",
    [("reltol = 1e-6", "unknown key 'reltol'"), ("rel_tol 1e-6", "'rel_tol 1e-6'")],
    ids=["unknown-key", "no-equals"],
)
def test_config_file_rejects_unknown_keys_and_lines_without_equals(tmp_path, capsys, line, named):
    cfg_file = tmp_path / "dscat.cfg"
    cfg_file.write_text(f"# integrator\nabs_tol = 1e-11\n{line}\n")
    assert run(["classify", "--a", "2", "--c", "-7.6119", "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid input: config line 3: ")
    assert named in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--c", "-1.526035", "--rel-tol", "nan"],
        ["classify", "--c", "-1.526035", "--rel-tol", "inf"],
        ["classify", "--c", "-1.526035", "--abs-tol", "inf"],
        ["classify", "--c", "-1.526035", "--initial-step", "0"],
        ["classify", "--c", "-1.526035", "--initial-step", "-1"],
        ["classify", "--c", "-1.526035", "--max-steps", "0"],
        ["solve", "--c0", "-1.55", "--c1", "-1.50", "--tol-c", "0", "--json", "{tmp}/s.json"],
        ["solve", "--c0", "-1.55", "--c1", "-1.50", "--tol-c", "-1", "--json", "{tmp}/s.json"],
        ["solve", "--c0", "-1.55", "--c1", "-1.50", "--tol-c", "nan", "--json", "{tmp}/s.json"],
    ],
    ids=lambda argv: "_".join(argv[-4:-2] if argv[0] == "solve" else argv[-2:]),
)
def test_invalid_integrator_settings_exit_usage(tmp_path, capsys, argv):
    code = run([argv[0], "--a", "2"] + [x.format(tmp=tmp_path) for x in argv[1:]])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: invalid input: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("module", ["dscat", "dscat.cli"])
def test_python_dash_m(tmp_path, module):
    def dscat(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, "classify", "--a", "2", "--c", "-1.526035", *argv],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )

    proc = dscat()
    assert proc.returncode == 0
    assert "end type = elliptic" in proc.stdout
    cfg_file = tmp_path / "dscat.cfg"
    cfg_file.write_text("max_steps = 0\n")
    proc = dscat("--config", str(cfg_file))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: invalid input: ")


# Each command that writes files, with the files it writes into {d}.
WRITERS = {
    "scan": (["scan", "--a", "2", "--c-min", "-0.07", "--c-max", "0.05", "--steps", "4",
              "--out", "{d}/scan.csv"], ["scan.csv"]),
    "solve": (["solve", "--a", "2", "--c0", "-1.5265", "--c1", "-1.5255",
               "--json", "{d}/solve.json"], ["solve.json"]),
    "classify": (["classify", "--a", "2", "--c", "-1.526035", "--json", "{d}/classify.json"],
                 ["classify.json"]),
    "mesh": (["mesh", "--a", "2", "--c", "-1.526035", "--nu", "2", "--nv", "3",
              "--out", "{d}/mesh.obj", "--curves", "{d}/curves.csv"], ["mesh.obj", "curves.csv"]),
}


@pytest.mark.parametrize("command", sorted(WRITERS))
def test_output_files_follow_the_umask(tmp_path, command):
    argv, names = WRITERS[command]
    for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
        out = tmp_path / oct(umask)
        out.mkdir()
        saved = os.umask(umask)
        try:
            code = run([arg.format(d=out) for arg in argv])
        finally:
            os.umask(saved)
        assert code == 0
        for name in names:
            assert stat.S_IMODE((out / name).stat().st_mode) == mode, (name, oct(umask))
