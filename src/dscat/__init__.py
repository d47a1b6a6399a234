"""Numerical construction of genus-1 catenoids in de Sitter 3-space.

The pipeline: integrate the holomorphic frame equation dF = alpha F on a
hyperelliptic curve, assemble the loop monodromies, solve the SU(1,1) period
problem over the coefficient c, classify the two ends, and export the surface
in the hollow-ball model.
"""

from .curve import (
    BRANCH_DELTA,
    TOL_SHEET,
    CanonicalPaths,
    CurveParams,
    CurvePoint,
    PathSpec,
    base_point,
    canonical_paths,
    log_derivative,
    rational_rhs,
    transport_w,
)
from .ends import (
    EndAnalysis,
    classify_end,
    end_loop_check,
    indicial_exponent,
    lift_independence_check,
    osserman_equality_check,
)
from .geometry import (
    MeshResult,
    build_mesh,
    hollow_ball,
    immerse,
    schwarzian_check,
    secondary_gauss,
    small_formula_check,
    symmetry_curves,
    unit_normal,
)
from .linalg2c import (
    ConjugacyKind,
    ConjugacyType,
    classify_su11,
    eigenvalues,
    mobius_star,
    su11_distance,
    su11_distance_rel,
)
from .monodromy import (
    HalfPathFrames,
    MonodromyTriple,
    assemble_monodromies,
    direct_loop_holonomy,
    half_path_frames,
    period_functions,
)
from .period import (
    GaugeSolution,
    PeriodSolution,
    RefinedRoot,
    ScanResult,
    refine_root,
    scan_c,
    solve_at_bracket,
    solve_gauge,
    verify_solution,
)
from .transport import (
    DEFAULT_CONFIG,
    IntegratorConfig,
    integrate_frame,
    reference_frame,
    scalar_ode_residual,
)

__version__ = "0.1.0"
