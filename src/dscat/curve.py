"""The hyperelliptic curve w^2 = (z+1)(z-a) / ((z-1)(z+a)) and its canonical paths.

The curve is a twice punctured torus for a > 1 (branch points at +-1 and +-a,
punctures over z = infinity on both sheets).  The sheet is tracked by
integrating the closed-form logarithmic derivative of w rather than by picking
square-root branches, so no branch-cut bookkeeping is needed; the residual
|w^2 - R(z)| serves as an independent correctness monitor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _rk
from .errors import ContinuationError, DomainError, PathError

# Minimum distance every path segment must keep from a branch point.
BRANCH_DELTA = 0.1
# Tolerance on |w^2 - R(z)| relative to 1 + |R(z)|.  The integrated w stays
# within 2.3e-11 of the curve at every accepted step of the seven canonical
# paths at the four a = 2 roots (4.8e-11 at the 24 x 24 mesh nodes), so 1e-8,
# 200 times that, flags only a w that has left the curve.
TOL_SHEET = 1e-8
# Imaginary lift of the default first-quadrant arc waypoints.
ARC_LIFT = 0.8
# End loops run along the circle |z| = END_LOOP_FACTOR * a.
END_LOOP_FACTOR = 3.0
# transport_w's settings: the default step limit and initial step, and for w
# alone, cheaply, tolerances 100 times tighter than the frame's default.  w on
# gamma1-3 and the end loop then closes to 1.9e-12 at a = 1.5, 2 and 3, far below
# the sheet-closure check's bound of 1e-8, against 2.4e-10 at the frame's default.
W_TOLERANCES = _rk.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


def check_branch_parameter(a: float) -> None:
    """Raise DomainError unless a > 1, where the curve is a torus."""
    if not a > 1.0:
        raise DomainError(f"branch parameter must satisfy a > 1, got {a}")


@dataclass(frozen=True)
class CurveParams:
    """Branch parameter a > 1 and Hopf coefficient c != 0."""

    a: float
    c: float

    def __post_init__(self):
        check_branch_parameter(self.a)
        if self.c == 0.0:
            raise DomainError("coefficient c must be nonzero")


@dataclass(frozen=True)
class CurvePoint:
    """A point (z, w) with w on the current sheet of the square root."""

    z: complex
    w: complex

    def sheet_residual(self, a: float) -> float:
        return sheet_residual_of(self.w, rational_rhs(self.z, a))


@dataclass(frozen=True)
class PathSpec:
    """Polyline in the z-plane lifted to the curve by continuity from `start`.

    waypoints[0] must equal start.z; a closed path repeats it at the end.
    """

    start: CurvePoint
    waypoints: tuple
    closed: bool = False


def branch_points(a: float) -> tuple:
    return (1.0, -1.0, a, -a)


def branch_offsets(a: float, scale=1.0, origin=0.0):
    """The constants k with z + k[i] the offsets (z + 1, z - a, z - 1, z + a)
    of z from the branch points, seen through the lane map origin + scale * z:
    k[i] = (k_i + origin) / scale, k_i being the offsets at origin 0 and
    scale 1.  Then R(origin + scale * z) is rational_rhs_of(z, k) and
    scale * L(origin + scale * z) is log_derivative_of(z, k).  A tuple of four
    Python complex numbers for a scalar origin and scale, else a (4, n) array
    whose column j belongs to lane j.  The -a and -1 entries are negated as
    complex numbers, so at origin 0 with a real scale their imaginary parts
    are -0.0 and each sum keeps the signed zero of the subtraction it
    replaces."""
    k = ((1.0 + origin) / scale, (a - origin) / scale, (1.0 - origin) / scale, (a + origin) / scale)
    if np.ndim(scale) == 0 and np.ndim(origin) == 0:
        k0, k1, k2, k3 = (complex(x) for x in k)
        return (k0, -k1, -k2, k3)
    k0, k1, k2, k3 = (np.asarray(x, dtype=complex) for x in np.broadcast_arrays(*k))
    return np.stack((k0, -k1, -k2, k3))


def log_derivative_of(z, k):
    """L = (1/2) [1/(z+1) + 1/(z-a) - 1/(z-1) - 1/(z+a)] from the branch offsets
    z + k[i], unguarded: the one statement of L.  Per-lane constants take the
    four offsets in one addition and their reciprocals in one division."""
    if isinstance(k, tuple):
        k0, k1, k2, k3 = k
        q0, q1, q2, q3 = 1 / (z + k0), 1 / (z + k1), 1 / (z + k2), 1 / (z + k3)
    else:
        q0, q1, q2, q3 = 1 / (z + k)
    return 0.5 * (q0 + q1 - q2 - q3)


def rational_rhs_of(z, k):
    """R = (z+1)(z-a) / ((z-1)(z+a)) from the branch offsets z + k[i],
    unguarded: the one statement of R."""
    return (z + k[0]) * (z + k[1]) / ((z + k[2]) * (z + k[3]))


def sheet_residual_of(w, r):
    """|w^2 - R| / (1 + |R|) of the sheet value w where R(z) = r: the one
    measure of how far w is off the curve.  TOL_SHEET bounds it."""
    return abs(w * w - r) / (1.0 + abs(r))


def rational_rhs(z: complex, a: float) -> complex:
    """R(z) = (z+1)(z-a) / ((z-1)(z+a)), the square of w."""
    return rational_rhs_of(z, _guarded_offsets(z, a))


def log_derivative(z: complex, a: float) -> complex:
    """L(z) with d(log w)/dz = L(z), as stated in log_derivative_of."""
    return log_derivative_of(z, _guarded_offsets(z, a))


def log_derivative_prime(z: complex, a: float) -> complex:
    """dL/dz, needed by the curvature-style diagnostics."""
    t = [z + x for x in _guarded_offsets(z, a)]
    return -0.5 * (1 / t[0] ** 2 + 1 / t[1] ** 2 - 1 / t[2] ** 2 - 1 / t[3] ** 2)


def _guarded_offsets(z: complex, a: float) -> tuple:
    """branch_offsets(a); raises DomainError where z is within BRANCH_DELTA
    of a branch point."""
    k = branch_offsets(a)
    if min(abs(z + x) for x in k) < BRANCH_DELTA:
        raise DomainError(f"z = {z} is within {BRANCH_DELTA} of a branch point")
    return k


def base_point(sheet: int = +1) -> CurvePoint:
    """The point over z = 0 with w = +1 (sheet=+1) or w = -1 (sheet=-1)."""
    return CurvePoint(0j, complex(sheet))


def validate_path(path: PathSpec, a: float) -> None:
    """Raise PathError unless every segment clears the branch points by
    BRANCH_DELTA."""
    wp = path.waypoints
    if len(wp) < 1:
        raise PathError("path needs at least one waypoint")
    scale = 1.0 + max(abs(v) for v in wp)
    if abs(wp[0] - path.start.z) > 1e-12 * scale:
        raise PathError("waypoints[0] must equal start.z")
    if path.closed and abs(wp[-1] - wp[0]) > 1e-12 * scale:
        raise PathError("closed path must end at its first waypoint")
    if path.start.sheet_residual(a) > TOL_SHEET:
        raise PathError("start point does not lie on the curve")
    for p, q in zip(wp[:-1], wp[1:]):
        for b in branch_points(a):
            if _segment_distance(p, q, b) < BRANCH_DELTA:
                raise PathError(
                    f"segment {p} -> {q} passes within {BRANCH_DELTA} of branch point {b}"
                )


def sheet_monitor(a: float):
    """on_step hook raising ContinuationError where the w that ends the state
    leaves the curve; R(z) is rational_rhs_of, unguarded, as validate_path
    has cleared every segment."""
    k = branch_offsets(a)

    def monitor(z, y):
        if sheet_residual_of(y[-1], rational_rhs_of(z, k)) > TOL_SHEET:
            raise ContinuationError(f"sheet residual exceeded at z = {z}")

    return monitor


def end_point(path: PathSpec, w: complex, a: float) -> CurvePoint:
    """The point over the last waypoint of path with sheet value w; raises
    ContinuationError where w is off the curve there."""
    end = CurvePoint(path.waypoints[-1], w)
    if end.sheet_residual(a) > TOL_SHEET:
        raise ContinuationError("endpoint sheet residual exceeded")
    return end


def transport_w(path: PathSpec, a: float) -> CurvePoint:
    """Continue w along the path on the curve of a by integrating w' = w L(z)
    at W_TOLERANCES.

    The endpoint must satisfy the sheet invariant; the residual is also
    monitored at every accepted step by sheet_monitor.  L(z) is
    log_derivative_of without log_derivative's branch-distance guard, as in
    transport._joint_field: validate_path has cleared every segment, so the
    guard could not fire.
    """
    check_branch_parameter(a)
    validate_path(path, a)
    k = branch_offsets(a)

    def field(z, u, y):
        return (y[0] * log_derivative_of(z, k) * u,)

    (w_end,) = _rk.integrate_polyline(
        path.waypoints, (path.start.w,), field, cfg=W_TOLERANCES, on_step=sheet_monitor(a)
    )
    return end_point(path, w_end, a)


@dataclass(frozen=True)
class CanonicalPaths:
    c1: PathSpec
    c2: PathSpec
    gamma1: PathSpec
    gamma2: PathSpec
    gamma3: PathSpec
    end_loop_plus: PathSpec
    end_loop_minus: PathSpec


def canonical_paths(a: float) -> CanonicalPaths:
    """Default polyline realizations of the half paths, loops, and end loops
    on the curve of a.

    c1 runs through the open first quadrant from the base point to
    z1 = (1+a)/2 on the real axis; c2 likewise to z2 = 2a.  gamma1 encircles
    +-1 (quadrant pattern I, IV, III, II), gamma2 encircles {1, a}
    (I then IV), gamma3 encircles {-1, -a} (III then II).  The end loops
    approach radially along the imaginary axis and run once counterclockwise
    around the circle |z| = 3a; the starting sheet of the approach selects
    the end.  Raises DomainError unless a > 1.
    """
    check_branch_parameter(a)
    z1 = (1.0 + a) / 2.0
    z2 = 2.0 * a
    lift = ARC_LIFT * 1j
    base = base_point(+1)

    c1 = PathSpec(base, (0j, z1 / 2 + lift, complex(z1)))
    c2 = PathSpec(base, (0j, z2 / 2 + lift, complex(z2)))
    gamma1 = PathSpec(
        base,
        (
            0j,
            z1 / 2 + lift,
            complex(z1),
            z1 / 2 - lift,
            0j,
            -z1 / 2 - lift,
            complex(-z1),
            -z1 / 2 + lift,
            0j,
        ),
        closed=True,
    )
    gamma2 = PathSpec(
        base, (0j, z2 / 2 + lift, complex(z2), z2 / 2 - lift, 0j), closed=True
    )
    gamma3 = PathSpec(
        base, (0j, -z2 / 2 - lift, complex(-z2), -z2 / 2 + lift, 0j), closed=True
    )

    r = END_LOOP_FACTOR * a
    circle = tuple(
        r * cmath.exp(1j * (math.pi / 2 + 2 * math.pi * k / 64)) for k in range(65)
    )
    loop_wp = (0j,) + circle + (0j,)
    end_plus = PathSpec(base_point(+1), loop_wp, closed=True)
    end_minus = PathSpec(base_point(-1), loop_wp, closed=True)

    paths = CanonicalPaths(c1, c2, gamma1, gamma2, gamma3, end_plus, end_minus)
    for p in (c1, c2, gamma1, gamma2, gamma3, end_plus, end_minus):
        validate_path(p, a)
    return paths


def _segment_distance(p: complex, q: complex, b: complex) -> float:
    """Distance from point b to the segment [p, q]."""
    d = q - p
    dd = (d * d.conjugate()).real
    if dd == 0.0:
        return abs(b - p)
    t = ((b - p) * d.conjugate()).real / dd
    t = min(1.0, max(0.0, t))
    return abs(b - (p + t * d))
