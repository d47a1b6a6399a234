"""End behaviour at the two punctures: indicial exponent and monodromy type.

The scalar equations satisfied by the frame entries have a regular singular
point at each puncture with exponent gap m = sqrt(1 - 4c(a-1)).  The end
monodromy has eigenvalues -exp(+-i pi m): elliptic (unit circle) for real
non-integer m, hyperbolic (real) for purely imaginary m.  Integer m is the
excluded resonant case with logarithmic solutions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .curve import CurveParams, PathSpec, canonical_paths
from .errors import DomainError, EigenvalueMismatch, ResonantExponent
from .linalg2c import ConjugacyKind, ConjugacyType, eigenvalues, sort_eigenvalues
from .monodromy import direct_loop_holonomy
from .transport import DEFAULT_CONFIG, IntegratorConfig, integrate_frame

# The two end eigenvalues -exp(+-i pi m) are about 2 pi |m - k| apart near an
# integer k, where the log-term case begins; the same 1e-6 as TOL_EIG keeps
# them apart by more than the error the end-loop check allows them.
TOL_RES = 1e-6
# Relative eigenvalue mismatch tolerance (hyperbolic traces grow like exp(pi |m|)).
TOL_EIG = 1e-6


@dataclass(frozen=True)
class EndAnalysis:
    m: complex
    end_type: ConjugacyKind
    predicted_eigenvalues: tuple
    measured_eigenvalues: tuple | None = None
    eigenvalue_mismatch: float | None = None


def indicial_exponent(a: float, c: float) -> complex:
    """m = sqrt(1 - 4c(a-1)), principal branch.

    Real positive for radicand > 0, i times positive real for radicand < 0.
    Raises ResonantExponent within TOL_RES of an integer (including 0), and
    DomainError where the radicand overflows or m is too large to be told
    from an integer.
    """
    CurveParams(a, c)
    rad = 1.0 - 4.0 * c * (a - 1.0)
    if not math.isfinite(rad):
        raise DomainError(
            f"indicial exponent radicand 1 - 4c(a - 1) = {rad} at a = {a}, c = {c} is not finite"
        )
    if rad >= 0.0:
        m = complex(math.sqrt(rad))
    else:
        m = 1j * math.sqrt(-rad)
    # from |m| = 2^33 (about 8.6e9) on, neighbouring doubles lie 2^-19 >
    # TOL_RES apart: a double cannot hold m to within TOL_RES, so the
    # resonance test below would say nothing there
    if math.ulp(abs(m)) > TOL_RES:
        raise DomainError(
            f"indicial exponent m = {m} at a = {a}, c = {c} is too large to tell "
            f"within {TOL_RES} from an integer"
        )
    if _integer_distance(m) < TOL_RES:
        raise ResonantExponent(f"indicial exponent m = {m} is within {TOL_RES} of an integer")
    return m


def predicted_end_eigenvalues(m: complex) -> tuple:
    """-exp(+-i pi m); DomainError where they overflow, at pi |Im m| > 709.8."""
    try:
        return sort_eigenvalues((-cmath.exp(1j * math.pi * m), -cmath.exp(-1j * math.pi * m)))
    except OverflowError:
        raise DomainError(f"end eigenvalues -exp(+-i pi m) overflow at m = {m}") from None


def classify_end(a: float, c: float) -> EndAnalysis:
    """End type from the closed-form exponent alone (no integration): the one
    statement of the rule, elliptic for real m and hyperbolic otherwise."""
    m = indicial_exponent(a, c)
    kind = ConjugacyKind.ELLIPTIC if m.imag == 0.0 else ConjugacyKind.HYPERBOLIC
    return EndAnalysis(m, kind, predicted_end_eigenvalues(m))


def end_conjugacy_type(a: float, c: float) -> ConjugacyType:
    """ConjugacyType record of the end monodromy, of classify_end's kind, with
    its natural parameter: the rotation angle of an elliptic end, pi |m| of a
    hyperbolic one."""
    end = classify_end(a, c)
    if end.end_type is ConjugacyKind.ELLIPTIC:  # half the trace is -cos(pi m)
        return ConjugacyType(end.end_type, math.acos(-math.cos(math.pi * end.m.real)))
    return ConjugacyType(end.end_type, math.pi * abs(end.m.imag))


def end_loop_check(
    a: float,
    c: float,
    which_end: int = +1,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> EndAnalysis:
    """Integrate the end loop and compare its eigenvalues with the prediction.

    which_end selects the puncture: +1 for the end approached with w -> +1,
    -1 for w -> -1.  The mismatch is relative, max over the sorted pair of
    |measured - predicted| / max(1, |predicted|).  Raises EigenvalueMismatch
    above TOL_EIG.
    """
    base = classify_end(a, c)
    paths = canonical_paths(a)
    loop = paths.end_loop_plus if which_end >= 0 else paths.end_loop_minus
    Phi = direct_loop_holonomy(loop, CurveParams(a, c), cfg=cfg)
    measured = eigenvalues(Phi)
    mismatch = max(
        abs(me - pr) / max(1.0, abs(pr))
        for me, pr in zip(measured, base.predicted_eigenvalues)
    )
    analysis = EndAnalysis(
        base.m, base.end_type, base.predicted_eigenvalues, measured, mismatch
    )
    if mismatch > TOL_EIG:
        raise EigenvalueMismatch(
            f"end-loop eigenvalues deviate by {mismatch:.3e} from -exp(+-i pi m)"
        )
    return analysis


def lift_independence_check(
    params: CurveParams,
    loop: PathSpec,
    B: np.ndarray,
    Phi_id: np.ndarray,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> float:
    """Eigenvalue discrepancy of the loop monodromy across two null lifts.

    Phi_id is the loop's holonomy from the identity (direct_loop_holonomy).
    The lift with initial frame B has monodromy B^-1 Phi_id B, so the spectrum
    is unchanged in exact arithmetic; the returned value measures integration
    error only.  Relative, using the identity-frame eigenvalues as scale.
    """
    end_b, _ = integrate_frame(loop, params, F0=B, cfg=cfg)
    Phi_b = np.linalg.solve(B, end_b)
    lam_id = eigenvalues(Phi_id)
    lam_b = eigenvalues(Phi_b)
    return max(
        abs(x - y) / max(1.0, abs(x)) for x, y in zip(lam_id, lam_b)
    )


def _integer_distance(m: complex) -> float:
    k = round(m.real)
    candidates = (k - 1, k, k + 1)
    return min(abs(m - n) for n in candidates)


def osserman_equality_check(genus: int, n_ends: int, deg_G: int) -> bool:
    """Whether 2 deg(G) equals (2 genus - 2 + n) + n, the equality case of
    the degree bound for the hyperbolic Gauss map."""
    if genus < 0 or n_ends < 0 or deg_G < 0:
        raise DomainError("arguments must be nonnegative")
    return 2 * deg_G == (2 * genus - 2 + n_ends) + n_ends
