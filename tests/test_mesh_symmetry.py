"""The mesh's reflection symmetry, as tools/mesh_symmetry.py measures it.

At a closed root the hollow-ball point over (conj z, conj w) is
diag(1, -1, 1) Y(z, w).  The default root (tol_c 1e-9) is off the converged
one by a few 1e-10, and the mesh vertices carry that error, amplified: the
symmetry breaks by 2.8e-3 at c = -1.526035 on an 8 x 12 mesh.  Converged
(tol_c 1e-13 at rel_tol 1e-13) it holds to 3.1e-7.
"""

import importlib.util
from pathlib import Path

import numpy as np

from dscat.geometry import build_mesh
from dscat.period import near, solve_at_bracket

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mesh_symmetry.py"
spec = importlib.util.spec_from_file_location("mesh_symmetry", TOOL)
mesh_symmetry = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mesh_symmetry)


def test_the_converged_root_meshes_symmetrically():
    c = -1.526035
    loose = mesh_symmetry.mirror_residuals(build_mesh(solve_at_bracket(2.0, near(c)), 8, 12))
    # refined from a bracket of width 1e-5 about the converged root
    # -1.5260377718380, which takes half the time of near(c)'s 0.02
    _, tol_c, cfg = mesh_symmetry.SETTINGS[1]
    sol = solve_at_bracket(2.0, (-1.52604, -1.52603), tol_c, cfg)
    tight = mesh_symmetry.mirror_residuals(build_mesh(sol, 8, 12, cfg))
    assert loose.size == tight.size == 192
    assert not np.isnan(loose).any() and not np.isnan(tight).any()  # every node pairs up
    assert loose.max() > 1e-4
    assert tight.max() <= 1e-6
