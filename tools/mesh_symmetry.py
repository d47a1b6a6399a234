"""Reflection symmetry of dscat's meshes at the a = 2 roots.

    python3 tools/mesh_symmetry.py

Run it from any directory: it imports dscat from the src/ of the checkout that
holds it.  The curve has real coefficients, so (z, w) -> (conj z, conj w) maps
it to itself, and at a closed root the surface is symmetric under it: the
hollow-ball point over (conj z, conj w) is diag(1, -1, 1) Y(z, w).  Mesh node
(sheet, j, k) lies over the conjugate of node (sheet', j, nv - 1 - k), where
sheet' is the other sheet on rings with 1 < r_j < a and the same sheet on the
others: a ring between the branch points crosses the slit [-a, -1] on its way
round from the imaginary axis, so the sheet flips between a node and its
mirror.  For each root, solved and meshed 24 x 24 as `dscat mesh` does
and again converged (tol_c 1e-13 at rel_tol 1e-13, abs_tol 1e-15), it prints
the largest |Y(conj z, conj w) - diag(1, -1, 1) Y(z, w)| over the paired
nodes, how many nodes exceed 1e-6, and how many nodes pair up.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from dscat.geometry import MeshResult, _ring_radii, build_mesh  # noqa: E402
from dscat.period import TOL_C, near, solve_at_bracket  # noqa: E402
from dscat.transport import DEFAULT_CONFIG, IntegratorConfig  # noqa: E402

A = 2.0
NU = NV = 24
ROOTS = (-7.611914, -4.06015, -1.526035, 1.26988, 5.33317)
# (name, tol_c, integrator settings) of each solve and mesh
SETTINGS = (
    ("default", TOL_C, DEFAULT_CONFIG),
    ("converged", 1e-13, IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)),
)


def mirrors(mesh: MeshResult, a: float, nu: int) -> np.ndarray:
    """The number of the sample at each sample's mirror node, or -1 where that
    node is a hole, for a mesh built at branch parameter a with nu rings
    requested."""
    radii = np.array(_ring_radii(a, nu, 3.0 * a))
    mirror = mesh.node[:, :, ::-1]
    mirror = np.where(((1.0 < radii) & (radii < a))[:, None], mirror[::-1], mirror)
    partner = np.full(len(mesh.z), -1)
    partner[mesh.node[mesh.node >= 0]] = mirror[mesh.node >= 0]
    return partner


def mirror_residuals(mesh: MeshResult, a: float, nu: int) -> np.ndarray:
    """|Y(conj z, conj w) - diag(1, -1, 1) Y(z, w)|, the largest component,
    at each sample whose mirror node is in the mesh; nan at the others."""
    partner = mirrors(mesh, a, nu)
    residual = np.abs(mesh.Y[partner] - mesh.Y * [1.0, -1.0, 1.0]).max(axis=1)
    return np.where(partner >= 0, residual, np.nan)


def main() -> None:
    print("c          root       max residual  nodes > 1e-6  paired")
    for c in ROOTS:
        for name, tol_c, cfg in SETTINGS:
            sol = solve_at_bracket(A, near(c), tol_c, cfg)
            res = mirror_residuals(build_mesh(sol, NU, NV, cfg), A, NU)
            paired = res[~np.isnan(res)]
            print(f"{c:<10} {name:<10} {paired.max():12.2e}  {int((paired > 1e-6).sum()):12d}"
                  f"  {paired.size}/{res.size}")


if __name__ == "__main__":
    main()
