"""The mesh's reflection symmetry, as tools/mesh_symmetry.py measures it.

At a closed root the hollow-ball point over (conj z, conj w) is
diag(1, -1, 1) Y(z, w).  The default root (tol_c 1e-9) is off the converged
one by a few 1e-10, and the mesh vertices carry that error, amplified: the
symmetry breaks by 2.8e-3 at c = -1.526035 on an 8 x 12 mesh.  Converged
(tol_c 1e-13 at rel_tol 1e-13) it holds to 3.1e-7.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dscat.geometry import build_mesh, symmetry_curves
from dscat.period import near, solve_at_bracket

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mesh_symmetry.py"
spec = importlib.util.spec_from_file_location("mesh_symmetry", TOOL)
mesh_symmetry = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mesh_symmetry)


@pytest.fixture(scope="module")
def meshes():
    """The 8 x 12 meshes at c = -1.526035, default and converged."""
    c = -1.526035
    loose = build_mesh(solve_at_bracket(2.0, near(c)), 8, 12)
    # refined from a bracket of width 1e-5 about the converged root
    # -1.5260377718380, which takes half the time of near(c)'s 0.02
    _, tol_c, cfg = mesh_symmetry.SETTINGS[1]
    sol = solve_at_bracket(2.0, (-1.52604, -1.52603), tol_c, cfg)
    return loose, build_mesh(sol, 8, 12, cfg)


def test_the_converged_root_meshes_symmetrically(meshes):
    loose, tight = (mesh_symmetry.mirror_residuals(mesh, 2.0, 8) for mesh in meshes)
    assert loose.size == tight.size == 192
    assert not np.isnan(loose).any() and not np.isnan(tight).any()  # every node pairs up
    assert loose.max() > 1e-4
    assert tight.max() <= 1e-6


@pytest.mark.parametrize("which", [0, 1], ids=["default", "converged"])
def test_a_nodes_mirror_lies_over_the_conjugate_point(meshes, which):
    # the mirror of node (sheet, j, k) is node (sheet', j, nv - 1 - k), with
    # the sheet flipped on the rings crossing the slit [-a, -1]
    mesh = meshes[which]
    partner = mesh_symmetry.mirrors(mesh, 2.0, 8)
    paired = partner >= 0
    assert paired.any()
    z, w = mesh.z[paired], mesh.w[paired]
    assert (np.abs(mesh.z[partner[paired]] - z.conj()) <= 1e-12).all()
    # TOL_SHEET's scale: the integration's error of w
    assert (np.abs(mesh.w[partner[paired]] - w.conj()) <= 1e-8 * (1.0 + np.abs(w))).all()


def test_exact_reflections_keep_the_symmetry_curves():
    # at c = 1.26988, 24 x 24 as `dscat mesh` solves and meshes it, the
    # curves follow the mesh's edges, so setting each node's mirror to its
    # exact reflection moves their points but keeps their number and lengths
    mesh = build_mesh(solve_at_bracket(2.0, near(1.26988)), 24, 24)
    partner = mesh_symmetry.mirrors(mesh, 2.0, 24)
    first = np.flatnonzero(partner > np.arange(partner.size))
    Y = mesh.Y.copy()
    Y[partner[first]] = Y[first] * [1.0, -1.0, 1.0]
    reflected = dataclasses.replace(mesh, Y=Y)
    lengths = [len(chain) for chain in symmetry_curves(mesh)]
    assert [len(chain) for chain in symmetry_curves(reflected)] == lengths
    assert (len(lengths), sum(lengths)) == (28, 230)
