"""Monodromy matrices of the three generating loops and the period functions.

The frame is integrated along the two half paths c1 and c2 only; the loop
monodromies Phi1, Phi2, Phi3 are then assembled from the endpoint frames via
the curve symmetries (z, w) -> (conj z, conj w), (-z, 1/w), (-conj z, 1/conj w)
and the associated frame identities.  Direct full-loop holonomy is kept as an
independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _worker
from .curve import CanonicalPaths, CurveParams, PathSpec, canonical_paths, same_sheet
from .errors import ContinuationError, DegenerateDenominator
from .linalg2c import max_abs
from .transport import DEFAULT_CONFIG, IntegratorConfig, integrate_frame

# Structural deviations beyond this indicate path or sheet bugs.  The f1 and
# f2 formulas pair every product with its conjugate, so their imaginary parts
# cancel exactly in floating point (0 at every point of the 2600-point scans
# over [-9, 4] at a = 1.5, 2 and 3); 1e-7 leaves room for the rounding of a
# rearranged formula and catches any frame or formula bug.
TOL_FORM = 1e-7


@dataclass(frozen=True)
class HalfPathFrames:
    """Endpoint frames along c1 and c2 with identity initial condition."""

    F_c1: np.ndarray
    F_c2: np.ndarray
    params: CurveParams


@dataclass(frozen=True)
class MonodromyTriple:
    Phi1: np.ndarray
    Phi2: np.ndarray
    Phi3: np.ndarray


def half_path_frames(
    params: CurveParams,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    paths: CanonicalPaths | None = None,
) -> HalfPathFrames:
    """Endpoint frames along c1 and c2 at params.c.

    paths, the canonical paths of params.a, is built when not given; a caller
    that evaluates many c at one a builds them once and passes them in.  c1,
    the shorter path, is integrated in the worker process of _worker.pair
    while this process integrates c2; the frames are those of a serial run.
    """
    if paths is None:
        paths = canonical_paths(params.a)
    (F1, _), (F2, _) = _worker.pair(
        "dscat.transport.integrate_frame",
        (paths.c1, params, None, cfg),
        (paths.c2, params, None, cfg),
    )
    return HalfPathFrames(F1, F2, params)


def assemble_monodromies(h: HalfPathFrames) -> MonodromyTriple:
    """Monodromies of gamma1, gamma2, gamma3 from the half-path frames.

    With F(c1(1)) = [[A1, B1], [C1, D1]] and F(c2(1)) = [[A2, B2], [C2, D2]]:

      Phi1 = [[cA1, -cC1], [-cB1, cD1]] [[D1, -C1], [-B1, A1]]
             [[cD1, cB1], [cC1, cA1]] [[A1, B1], [C1, D1]]
      Phi2 = [[cD2, -cB2], [-cC2, cA2]] [[A2, B2], [C2, D2]]
      Phi3 = [[cA2, -cC2], [-cB2, cD2]] [[D2, C2], [B2, A2]]

    where c denotes complex conjugation.
    """
    A1, B1 = h.F_c1[0, 0], h.F_c1[0, 1]
    C1, D1 = h.F_c1[1, 0], h.F_c1[1, 1]
    A2, B2 = h.F_c2[0, 0], h.F_c2[0, 1]
    C2, D2 = h.F_c2[1, 0], h.F_c2[1, 1]
    cj = np.conj

    Phi1 = (
        np.array([[cj(A1), -cj(C1)], [-cj(B1), cj(D1)]])
        @ np.array([[D1, -C1], [-B1, A1]])
        @ np.array([[cj(D1), cj(B1)], [cj(C1), cj(A1)]])
        @ np.array([[A1, B1], [C1, D1]])
    )
    Phi2 = np.array([[cj(D2), -cj(B2)], [-cj(C2), cj(A2)]]) @ np.array(
        [[A2, B2], [C2, D2]]
    )
    Phi3 = np.array([[cj(A2), -cj(C2)], [-cj(B2), cj(D2)]]) @ np.array(
        [[D2, C2], [B2, A2]]
    )
    return MonodromyTriple(Phi1, Phi2, Phi3)


def direct_loop_holonomy(
    loop: PathSpec,
    params: CurveParams,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    on_step=None,
) -> np.ndarray:
    """Holonomy of a loop, a path whose last waypoint equals its first:
    endpoint frame with identity start.

    The lift must close on the curve, so the transported w is required to
    return to loop.w0 (curve.same_sheet).  on_step is passed on to
    integrate_frame.
    """
    if loop.waypoints[-1:] != loop.waypoints[:1]:
        raise ContinuationError("holonomy requires a closed loop")
    F, w = integrate_frame(loop, params, cfg=cfg, on_step=on_step)
    if not same_sheet(w, loop.w0):
        raise ContinuationError(f"loop did not close on the curve (w drift {abs(w - loop.w0):.3e})")
    return F


def structure_defect(triple: MonodromyTriple) -> float:
    """Deviation of the triple from its symmetry-forced shape, scale normalized.

    Phi2 must look like [[p, i r], [i s, conj p]] with r, s real, Phi3 is its
    swap image [[conj p, i s], [i r, p]], and Phi1 is [[q, t], [-conj t, q']]
    with q, q' real.
    """
    P1, P2, P3 = triple.Phi1, triple.Phi2, triple.Phi3
    n1 = max(1.0, max_abs(P1))
    n2 = max(1.0, max_abs(P2))
    swap = np.array([[np.conj(P2[0, 0]), P2[1, 0]], [P2[0, 1], P2[0, 0]]])
    return max(
        abs(P2[1, 1] - np.conj(P2[0, 0])) / n2,
        abs((P2[0, 1] / 1j).imag) / n2,
        abs((P2[1, 0] / 1j).imag) / n2,
        max_abs(P3 - swap) / n2,
        abs(P1[0, 0].imag) / n1,
        abs(P1[1, 1].imag) / n1,
        abs(P1[1, 0] + np.conj(P1[0, 1])) / n1,
    )


def period_functions(h: HalfPathFrames) -> tuple:
    """The two real period functions (f1, f2) of the half-path frames.

    Raises DegenerateDenominator where period_values reports a vanished
    denominator.
    """
    f1, f2, _, _, degenerate = period_values(h.F_c1, h.F_c2)
    if degenerate:
        raise DegenerateDenominator("a period denominator vanished")
    return float(f1), float(f2)


def period_values(F_c1: np.ndarray, F_c2: np.ndarray) -> tuple:
    """(f1, f2, d1, d2, degenerate) of endpoint frames of shape (2, 2), or
    arrays of them over stacks of frames of shape (n, 2, 2).

    With F_c1 = [[A1, B1], [C1, D1]] and F_c2 = [[A2, B2], [C2, D2]]:

    f1 = -(cA1 C1 + A1 cC1 + cB1 D1 + B1 cD1) / (cA1 D1 + A1 cD1 + cB1 C1 + B1 cC1)
    f2 = -(cA2 C2 - A2 cC2 + cB2 D2 - B2 cD2) / (cA2 D2 - A2 cD2 + cB2 C2 - B2 cC2)

    Both are real by construction; f1 = f2 with common value of modulus
    greater than 1 is the closing condition solved in the period module.
    Each product is paired with its conjugate, so den1 is exactly real and
    den2 exactly imaginary: d1 = den1 and d2 = Im den2 are the real
    denominators, whose signs tell a pole from a crossing.  degenerate marks
    a vanished f1 or f2 denominator; f1 and f2 are then meaningless.
    Checked in the order f1, f2, a value that is not real raises
    ContinuationError unless a denominator checked before it vanished.
    A single frame pair is evaluated in numpy scalar arithmetic, whose complex
    products can differ from array arithmetic in the last bit.
    """
    (A1, B1), (C1, D1) = np.moveaxis(F_c1, (-2, -1), (0, 1))
    (A2, B2), (C2, D2) = np.moveaxis(F_c2, (-2, -1), (0, 1))
    cj = np.conj

    num1 = cj(A1) * C1 + A1 * cj(C1) + cj(B1) * D1 + B1 * cj(D1)
    den1 = cj(A1) * D1 + A1 * cj(D1) + cj(B1) * C1 + B1 * cj(C1)
    num2 = cj(A2) * C2 - A2 * cj(C2) + cj(B2) * D2 - B2 * cj(D2)
    den2 = cj(A2) * D2 - A2 * cj(D2) + cj(B2) * C2 - B2 * cj(C2)

    f1, degenerate1, not_real1 = _real_ratio(num1, den1)
    f2, degenerate2, not_real2 = _real_ratio(num2, den2)
    not_real = ~degenerate1 & (not_real1 | (~degenerate2 & not_real2))
    if not_real.any():
        j = int(np.argmax(not_real))
        raise ContinuationError(
            f"period functions are not real: f1 = {np.ravel(f1)[j]}, f2 = {np.ravel(f2)[j]}"
        )
    return f1.real, f2.real, den1.real, den2.imag, degenerate1 | degenerate2


def _real_ratio(num: np.ndarray, den: np.ndarray) -> tuple:
    """(-num / den, den vanished, value not real) elementwise."""
    degenerate = np.abs(den) <= 1e-12 * (1.0 + np.abs(num))
    value = -num / np.where(degenerate, 1.0, den)
    not_real = np.abs(value.imag) > TOL_FORM * np.maximum(1.0, np.abs(value))
    return value, degenerate, not_real
