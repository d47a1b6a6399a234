"""Command-line front end: scan, solve, classify, mesh, verify.

Each command parses its flags, calls the library (period, ends, geometry,
checks) and formats the result.  Errors are mapped to exit codes in one
place, EXIT_CODES, applied by main: 0 success, 1 failed verification checks,
2 invalid flags or input outside the domain, 3 integration failure, 4 not
admissible, 5 period verification failed, 6 resonant indicial exponent,
7 end eigenvalue mismatch, 8 I/O error.

All numeric output uses shortest round-trip decimal formatting.  Files are
written atomically (write to a temporary file, then rename), so failures
never leave partial output behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import os
import sys

from . import geometry, period
from .checks import run_invariant_suite
from .curve import CurveParams
from .ends import end_loop_check
from .errors import (
    ContinuationError,
    DomainError,
    DscatError,
    EigenvalueMismatch,
    LostBracket,
    NotAdmissible,
    ResonantExponent,
    StepLimitExceeded,
    VerificationFailed,
)
from .transport import MAGNUS_TOL, IntegratorConfig

EXIT_OK = 0
EXIT_CHECKS = 1
EXIT_USAGE = 2
EXIT_INTEGRATION = 3
EXIT_NOT_ADMISSIBLE = 4
EXIT_VERIFICATION = 5
EXIT_RESONANT = 6
EXIT_EIGENVALUE = 7
EXIT_IO = 8

# (exception classes, exit code, message prefix); the first matching row wins.
# Errors of other classes propagate with their traceback.
EXIT_CODES = (
    ((NotAdmissible, LostBracket), EXIT_NOT_ADMISSIBLE, "not admissible: "),
    (VerificationFailed, EXIT_VERIFICATION, ""),
    (ResonantExponent, EXIT_RESONANT, ""),
    (EigenvalueMismatch, EXIT_EIGENVALUE, ""),
    ((StepLimitExceeded, ContinuationError), EXIT_INTEGRATION, "integration failed: "),
    (DomainError, EXIT_USAGE, "invalid input: "),
    (OSError, EXIT_IO, "I/O error: "),
)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_atomic(path: str, text: str) -> None:
    """Write text to a new file beside path, then rename it over path.  The
    file is created with mode 0o666 less the umask, as open() creates one.
    An OSError names path, not the new file, and leaves no new file behind."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".dscat-tmp-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


# The settings a flag may give: IntegratorConfig's fields, each with its
# default, in the order of the fields.
_SETTINGS = {field.name: field.default for field in dataclasses.fields(IntegratorConfig)}
_HELP = {
    "rel_tol": "relative tolerance of each DP5 step; a scan refines its Magnus grid "
    f"until each step's error estimate is at most {MAGNUS_TOL:g} * (rel_tol + abs_tol)",
    "abs_tol": "absolute tolerance of each DP5 step; in a scan, see --rel-tol",
}


def _integrator_config(args) -> IntegratorConfig:
    """IntegratorConfig from the settings flags, each defaulting to its field's default."""
    return IntegratorConfig(**{key: getattr(args, key) for key in _SETTINGS})


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, required=True, help="branch parameter, a > 1")
    for key, default in _SETTINGS.items():  # --rel-tol, --abs-tol
        p.add_argument(
            "--" + key.replace("_", "-"), dest=key, type=type(default), default=default,
            help=_HELP[key],
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dscat",
        description="Genus-1 catenoid construction in de Sitter 3-space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="scan c for period-function crossings")
    _add_common(p_scan)
    p_scan.add_argument("--c-min", type=float, required=True)
    p_scan.add_argument("--c-max", type=float, required=True)
    p_scan.add_argument("--steps", type=int, default=2600)
    p_scan.add_argument("--out", required=True, help="CSV output path")

    p_solve = sub.add_parser("solve", help="refine a bracket and close the periods")
    _add_common(p_solve)
    p_solve.add_argument("--c0", type=float, required=True)
    p_solve.add_argument("--c1", type=float, required=True)
    p_solve.add_argument("--tol-c", type=float, default=period.TOL_C)
    p_solve.add_argument("--json", required=True, help="solution record output path")

    p_cls = sub.add_parser("classify", help="end type from the indicial exponent")
    _add_common(p_cls)
    p_cls.add_argument("--c", type=float, required=True)
    p_cls.add_argument("--json", default=None, help="optional JSON output path")

    p_mesh = sub.add_parser("mesh", help="export surface mesh in the hollow ball")
    _add_common(p_mesh)
    p_mesh.add_argument("--c", type=float, required=True)
    p_mesh.add_argument("--nu", type=int, default=24)
    p_mesh.add_argument("--nv", type=int, default=24)
    p_mesh.add_argument("--out", required=True)
    p_mesh.add_argument("--format", choices=("obj", "csv"), default="obj")
    p_mesh.add_argument("--curves", default=None, help="also write symmetry curves CSV")

    p_ver = sub.add_parser("verify", help="run the invariant suite at (a, c)")
    _add_common(p_ver)
    p_ver.add_argument("--c", type=float, required=True)
    p_ver.add_argument("--deep", action="store_true")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first command of this process and kept
    for the later ones: parsing leaves a parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "scan": cmd_scan,
        "solve": cmd_solve,
        "classify": cmd_classify,
        "mesh": cmd_mesh,
        "verify": cmd_verify,
    }[args.command]
    try:
        return handler(args, _integrator_config(args))
    except (DscatError, OSError) as exc:
        for cls, code, prefix in EXIT_CODES:
            if isinstance(exc, cls):
                print(f"error: {prefix}{exc}", file=sys.stderr)
                return code
        raise


def app() -> None:
    sys.exit(main())


def cmd_scan(args, cfg: IntegratorConfig) -> int:
    result = period.scan_c(args.a, args.c_min, args.c_max, args.steps, cfg)

    kept = result.kept
    rows = (x[kept].tolist() for x in (result.c, result.f1, result.f2, result.admissible_hint))
    lines = ["c,f1,f2,admissible_hint"]
    for c, f1, f2, hint in zip(*rows):
        lines.append(f"{_fmt(c)},{_fmt(f1)},{_fmt(f2)},{'true' if hint else 'false'}")
    _write_atomic(args.out, "\n".join(lines) + "\n")

    for (lo, hi), hint in zip(result.brackets.tolist(), result.bracket_hint.tolist()):
        print(f"bracket [{_fmt(lo)}, {_fmt(hi)}] admissible_hint={'true' if hint else 'false'}")
    print(f"{len(result.brackets)} bracket(s), {int((~kept).sum())} skipped point(s)")
    return EXIT_OK


def _solution_record(sol, analysis, cfg: IntegratorConfig) -> dict:
    return {
        "schema_version": "1",
        "a": sol.a,
        "c": sol.c,
        "f": sol.f,
        "epsilon": sol.epsilon,
        "alpha": sol.alpha,
        "beta": sol.beta,
        "su11_residual": sol.su11_residual,
        "su11_residual_abs": sol.su11_residual_abs,
        "end_type": sol.end_type.kind.value,
        "m": {"re": analysis.m.real, "im": analysis.m.imag},
        "eigenvalue_mismatch": analysis.eigenvalue_mismatch,
        "integrator": {"rel_tol": cfg.rel_tol, "abs_tol": cfg.abs_tol},
        "timestamps": {
            "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat()
        },
    }


def cmd_solve(args, cfg: IntegratorConfig) -> int:
    if not args.c0 < args.c1:
        raise DomainError("need --c0 < --c1")
    sol = period.solve_at_bracket(args.a, (args.c0, args.c1), args.tol_c, cfg)
    analysis = end_loop_check(sol.a, sol.c, +1, cfg)
    record = _solution_record(sol, analysis, cfg)
    _write_atomic(args.json, json.dumps(record, indent=2) + "\n")
    print(
        f"solved: c = {_fmt(sol.c)}  f = {_fmt(sol.f)}  "
        f"end_type = {sol.end_type.kind.value}  su11_residual = {_fmt(sol.su11_residual)}"
    )
    return EXIT_OK


def cmd_classify(args, cfg: IntegratorConfig) -> int:
    analysis = end_loop_check(args.a, args.c, +1, cfg)

    payload = {
        "a": args.a,
        "c": args.c,
        "m": {"re": analysis.m.real, "im": analysis.m.imag},
        "end_type": analysis.end_type.value,
        "predicted_eigenvalues": [
            {"re": lam.real, "im": lam.imag} for lam in analysis.predicted_eigenvalues
        ],
        "measured_eigenvalues": [
            {"re": lam.real, "im": lam.imag} for lam in analysis.measured_eigenvalues
        ],
        "eigenvalue_mismatch": analysis.eigenvalue_mismatch,
    }
    if args.json is not None:
        _write_atomic(args.json, json.dumps(payload, indent=2) + "\n")
    print(f"m = {analysis.m}")
    print(f"end type = {analysis.end_type.value}")
    print(f"predicted eigenvalues = {analysis.predicted_eigenvalues}")
    print(f"measured eigenvalues  = {analysis.measured_eigenvalues}")
    print(f"mismatch = {_fmt(analysis.eigenvalue_mismatch)}")
    return EXIT_OK


def _solve_near(a: float, c: float, cfg: IntegratorConfig):
    CurveParams(a, c)  # the user's c is checked as classify checks it, not as a bracket
    return period.solve_at_bracket(a, period.near(c), cfg=cfg)


def cmd_mesh(args, cfg: IntegratorConfig) -> int:
    if args.nu < 2 or args.nv < 3:
        raise DomainError("need --nu >= 2 and --nv >= 3")
    sol = _solve_near(args.a, args.c, cfg)
    mesh = geometry.build_mesh(sol, args.nu, args.nv, cfg)
    _write_atomic(args.out, _mesh_obj(mesh) if args.format == "obj" else _mesh_csv(mesh))
    if args.curves is not None:
        _write_atomic(args.curves, _curves_csv(geometry.symmetry_curves(mesh)))
    print(f"mesh: {len(mesh.z)} samples, {len(mesh.triangles)} triangles, {mesh.holes} holes")
    return EXIT_OK


def _mesh_obj(mesh) -> str:
    lines = [f"v {_fmt(y1)} {_fmt(y2)} {_fmt(y3)}" for y1, y2, y3 in mesh.Y.tolist()]
    faces = mesh.triangles[~mesh.singular[mesh.triangles].any(axis=1)] + 1
    lines += [f"f {i} {j} {k}" for i, j, k in faces.tolist()]
    return "\n".join(lines) + "\n"


def _mesh_csv(mesh) -> str:
    lines = ["z_re,z_im,w_re,w_im,x0,x1,x2,x3,y1,y2,y3,g_abs,singular"]
    for z, w, X, Y, g_abs, singular in zip(
        mesh.z.tolist(), mesh.w.tolist(), mesh.X.tolist(), mesh.Y.tolist(),
        mesh.g_abs.tolist(), mesh.singular.tolist(),
    ):
        values = [z.real, z.imag, w.real, w.imag, *X, *Y, g_abs]
        lines.append(",".join([*map(_fmt, values), "true" if singular else "false"]))
    return "\n".join(lines) + "\n"


def _curves_csv(curves) -> str:
    lines = ["curve_id,y1,y2,y3"]
    for cid, chain in enumerate(curves):
        for y1, y2, y3 in chain:
            lines.append(f"{cid},{_fmt(y1)},{_fmt(y2)},{_fmt(y3)}")
    return "\n".join(lines) + "\n"


def cmd_verify(args, cfg: IntegratorConfig) -> int:
    checks = run_invariant_suite(args.a, args.c, cfg, deep=args.deep)
    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name.ljust(width)}  {detail}")
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_CHECKS


if __name__ == "__main__":
    app()
