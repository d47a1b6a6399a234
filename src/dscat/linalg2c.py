"""2x2 complex matrix helpers: SU(1,1) membership, conjugacy type, Moebius action.

Matrices are plain numpy arrays of shape (2, 2), dtype complex.  SU(1,1) is the
group of matrices [[u, v], [conj(v), conj(u)]] with |u|^2 - |v|^2 = 1.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotInSU11, PoleError

# The gauged monodromies at the four a = 2 roots have a scale-normalized
# SU(1,1) defect of 2e-10 to 1.4e-9; 1e-6 leaves three orders of magnitude
# for the integration error of harder parameters.
TOL_SU11 = 1e-6
# Width of the parabolic band |trace / 2| = 1 +- TOL_CLASS / 2: a matrix
# accepted at defect TOL_SU11 has a trace uncertain at that level, so a
# narrower band would classify a parabolic element by its rounding.
TOL_CLASS = 1e-6

Mat2C = np.ndarray


class ConjugacyKind(enum.Enum):
    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"
    PARABOLIC = "parabolic"


@dataclass(frozen=True)
class ConjugacyType:
    """Conjugacy class of an SU(1,1) element.

    parameter is the rotation angle theta for elliptic elements (trace =
    2 cos theta), the boost parameter s for hyperbolic ones (|trace| =
    2 cosh s), and 0 for parabolic ones.
    """

    kind: ConjugacyKind
    parameter: float


def mat2c(m11, m12, m21, m22) -> Mat2C:
    return np.array([[m11, m12], [m21, m22]], dtype=complex)


def det2(M: Mat2C) -> complex:
    return M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]


def max_abs(M: Mat2C) -> float:
    return float(np.max(np.abs(M)))


def su11_distance(M: Mat2C) -> float:
    """Absolute defect from SU(1,1) membership; zero iff M is in the group.

    max of |m22 - conj(m11)|, |m21 - conj(m12)|, ||m11|^2 - |m12|^2 - 1| and
    |det M - 1|.  Note the quadratic terms: for a matrix of entry size N the
    smallest value representable in double precision is about N^2 * 1e-16,
    so compare large matrices with su11_distance_rel instead.
    """
    return max(
        abs(M[1, 1] - M[0, 0].conjugate()),
        abs(M[1, 0] - M[0, 1].conjugate()),
        abs(abs(M[0, 0]) ** 2 - abs(M[0, 1]) ** 2 - 1.0),
        abs(det2(M) - 1.0),
    )


def su11_distance_rel(M: Mat2C) -> float:
    """su11_distance normalized by max(1, entry size squared).

    This is the scale-aware membership defect: it stays meaningful for the
    large boost-type monodromies whose absolute defect is dominated by
    floating-point cancellation.
    """
    return su11_distance(M) / max(1.0, max_abs(M) ** 2)


def classify_su11(M: Mat2C) -> ConjugacyType:
    """Conjugacy type of an SU(1,1) element by its (real) trace.

    |trace| < 2 is elliptic, > 2 hyperbolic, = 2 parabolic within TOL_CLASS.
    The membership gate uses the scale-normalized defect so that large
    hyperbolic elements are not rejected for floating-point reasons.
    """
    if su11_distance_rel(M) > TOL_SU11:
        raise NotInSU11(f"matrix is not in SU(1,1) (defect {su11_distance_rel(M):.3e})")
    tr = (M[0, 0] + M[1, 1]).real
    half = tr / 2.0
    if abs(half) < 1.0 - TOL_CLASS / 2.0:
        return ConjugacyType(ConjugacyKind.ELLIPTIC, math.acos(half))
    if abs(half) > 1.0 + TOL_CLASS / 2.0:
        return ConjugacyType(ConjugacyKind.HYPERBOLIC, math.acosh(abs(half)))
    return ConjugacyType(ConjugacyKind.PARABOLIC, 0.0)


def eigenvalues(M: Mat2C) -> tuple:
    """Roots of lambda^2 - trace lambda + det, sorted by |.| then argument."""
    tr = complex(M[0, 0] + M[1, 1])
    disc = cmath.sqrt(tr * tr - 4.0 * complex(det2(M)))
    lam1 = (tr + disc) / 2.0
    lam2 = (tr - disc) / 2.0
    return sort_eigenvalues((lam1, lam2))


def sort_eigenvalues(pair) -> tuple:
    """Descending modulus; near-ties (relative 1e-9) broken by descending argument."""
    lam1, lam2 = pair
    r1, r2 = abs(lam1), abs(lam2)
    if abs(r1 - r2) <= 1e-9 * max(1.0, r1, r2):
        key1, key2 = cmath.phase(lam1), cmath.phase(lam2)
    else:
        key1, key2 = r1, r2
    if key1 >= key2:
        return (lam1, lam2)
    return (lam2, lam1)


def mobius_star(Phi: Mat2C, g: complex) -> complex:
    """(Phi22 g - Phi12) / (-Phi21 g + Phi11), the action on the Gauss map.

    Accepts g = inf (point at infinity of the Riemann sphere).
    """
    g = complex(g)
    if cmath.isinf(g):
        den = -Phi[1, 0]
        if den == 0:
            raise PoleError("Moebius image of infinity is a pole")
        return Phi[1, 1] / den
    den = -Phi[1, 0] * g + Phi[0, 0]
    if den == 0:
        raise PoleError(f"Moebius denominator vanishes at g = {g}")
    return (Phi[1, 1] * g - Phi[0, 1]) / den
