"""Reflection symmetry of dscat's meshes at the a = 2 roots.

    python3 tools/mesh_symmetry.py

Run it from any directory: it imports dscat from the src/ of the checkout that
holds it.  The curve has real coefficients, so (z, w) -> (conj z, conj w) maps
it to itself, and at a closed root the surface is symmetric under it: the
hollow-ball point over (conj z, conj w) is diag(1, -1, 1) Y(z, w).  Each mesh
node (sheet, ring, k) lies at the conjugate of the node (sheet, ring,
nv - 1 - k).  For each root, solved and meshed 24 x 24 as `dscat mesh` does
and again converged (tol_c 1e-13 at rel_tol 1e-13, abs_tol 1e-15), it prints
the largest |Y(conj z, conj w) - diag(1, -1, 1) Y(z, w)| over the paired
nodes, how many nodes exceed 1e-6, and how many nodes pair up.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from dscat.geometry import MeshResult, build_mesh  # noqa: E402
from dscat.period import TOL_C, near, solve_at_bracket  # noqa: E402
from dscat.transport import DEFAULT_CONFIG, IntegratorConfig  # noqa: E402

ROOTS = (-7.611914, -4.06015, -1.526035, 1.26988, 5.33317)
# (name, tol_c, integrator settings) of each solve and mesh
SETTINGS = (
    ("default", TOL_C, DEFAULT_CONFIG),
    ("converged", 1e-13, IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)),
)
# Two nodes pair when their z are conjugate within rounding and their w are
# conjugate within the integration's error of w (TOL_SHEET is 1e-8).
PAIR_TOL = 1e-6


def mirror_residuals(mesh: MeshResult) -> np.ndarray:
    """|Y(conj z, conj w) - diag(1, -1, 1) Y(z, w)|, the largest component,
    at each node whose mirror is in the mesh; nan at the others."""
    z = np.array([s.param.z for s in mesh.samples], dtype=complex)
    w = np.array([s.param.w for s in mesh.samples], dtype=complex)
    Y = np.array([s.Y.as_array() for s in mesh.samples])
    gap = np.abs(z.conj()[:, None] - z) + np.abs(w.conj()[:, None] - w) / (1.0 + np.abs(w))
    mirror = np.argmin(gap, axis=1)
    paired = gap[np.arange(len(z)), mirror] <= PAIR_TOL
    residual = np.abs(Y[mirror] - Y * [1.0, -1.0, 1.0]).max(axis=1)
    return np.where(paired, residual, np.nan)


def main() -> None:
    print("c          root       max residual  nodes > 1e-6  paired")
    for c in ROOTS:
        for name, tol_c, cfg in SETTINGS:
            sol = solve_at_bracket(2.0, near(c), tol_c, cfg)
            res = mirror_residuals(build_mesh(sol, 24, 24, cfg))
            paired = res[~np.isnan(res)]
            print(f"{c:<10} {name:<10} {paired.max():12.2e}  {int((paired > 1e-6).sum()):12d}"
                  f"  {paired.size}/{res.size}")


if __name__ == "__main__":
    main()
