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


@dataclass(frozen=True)
class CurveParams:
    """Branch parameter a > 1 and Hopf coefficient c != 0."""

    a: float
    c: float

    def __post_init__(self):
        if not self.a > 1.0:
            raise DomainError(f"branch parameter must satisfy a > 1, got {self.a}")
        if self.c == 0.0:
            raise DomainError("coefficient c must be nonzero")


@dataclass(frozen=True)
class CurvePoint:
    """A point (z, w) with w on the current sheet of the square root."""

    z: complex
    w: complex

    def sheet_residual(self, a: float) -> float:
        r = rational_rhs(self.z, a)
        return abs(self.w * self.w - r) / (1.0 + abs(r))


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


def rational_rhs(z: complex, a: float) -> complex:
    """R(z) = (z+1)(z-a) / ((z-1)(z+a)), the square of w."""
    if _branch_distance(z, a) < BRANCH_DELTA:
        raise DomainError(f"z = {z} is within {BRANCH_DELTA} of a branch point")
    return (z + 1) * (z - a) / ((z - 1) * (z + a))


def log_derivative(z: complex, a: float) -> complex:
    """L(z) with d(log w)/dz = L(z).

    Partial-fraction form: L = (1/2) [1/(z+1) + 1/(z-a) - 1/(z-1) - 1/(z+a)].
    """
    if _branch_distance(z, a) < BRANCH_DELTA:
        raise DomainError(f"z = {z} is within {BRANCH_DELTA} of a branch point")
    return 0.5 * (1 / (z + 1) + 1 / (z - a) - 1 / (z - 1) - 1 / (z + a))


def log_derivative_prime(z: complex, a: float) -> complex:
    """dL/dz, needed by the curvature-style diagnostics."""
    if _branch_distance(z, a) < BRANCH_DELTA:
        raise DomainError(f"z = {z} is within {BRANCH_DELTA} of a branch point")
    return -0.5 * (
        1 / (z + 1) ** 2 + 1 / (z - a) ** 2 - 1 / (z - 1) ** 2 - 1 / (z + a) ** 2
    )


def base_point(sheet: int = +1) -> CurvePoint:
    """The point over z = 0 with w = +1 (sheet=+1) or w = -1 (sheet=-1)."""
    return CurvePoint(0j, complex(sheet))


def validate_path(path: PathSpec, a: float, delta: float = BRANCH_DELTA) -> None:
    """Raise PathError unless every segment clears the branch points by delta."""
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
            if _segment_distance(p, q, b) < delta:
                raise PathError(
                    f"segment {p} -> {q} passes within {delta} of branch point {b}"
                )


def sheet_monitor(a: float):
    """on_step hook raising ContinuationError where the w that ends the state
    leaves the curve; R(z) is inlined, unguarded, as it runs at every step."""

    def monitor(z, y):
        w = y[-1]
        r = (z + 1) * (z - a) / ((z - 1) * (z + a))
        if abs(w * w - r) > TOL_SHEET * (1.0 + abs(r)):
            raise ContinuationError(f"sheet residual exceeded at z = {z}")

    return monitor


def transport_w(
    path: PathSpec,
    params: CurveParams,
    *,
    rel_tol: float = 1e-12,
    abs_tol: float = 1e-14,
) -> CurvePoint:
    """Continue w along the path by integrating w' = w L(z).

    The endpoint must satisfy the sheet invariant; the residual is also
    monitored at every accepted step.  L(z) is log_derivative's formula
    inlined without its branch-distance guard, as in transport._joint_field:
    validate_path has cleared every segment, so the guard could not fire.
    """
    a = params.a
    validate_path(path, a)

    def field(z, u, y):
        return (y[0] * (0.5 * (1 / (z + 1) + 1 / (z - a) - 1 / (z - 1) - 1 / (z + a))) * u,)

    (w_end,) = _rk.integrate_polyline(
        path.waypoints,
        (path.start.w,),
        field,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        on_step=sheet_monitor(a),
    )
    end = CurvePoint(path.waypoints[-1], w_end)
    if end.sheet_residual(a) > TOL_SHEET:
        raise ContinuationError("endpoint sheet residual exceeded")
    return end


@dataclass(frozen=True)
class CanonicalPaths:
    c1: PathSpec
    c2: PathSpec
    gamma1: PathSpec
    gamma2: PathSpec
    gamma3: PathSpec
    end_loop_plus: PathSpec
    end_loop_minus: PathSpec


def canonical_paths(params: CurveParams) -> CanonicalPaths:
    """Default polyline realizations of the half paths, loops, and end loops.

    c1 runs through the open first quadrant from the base point to
    z1 = (1+a)/2 on the real axis; c2 likewise to z2 = 2a.  gamma1 encircles
    +-1 (quadrant pattern I, IV, III, II), gamma2 encircles {1, a}
    (I then IV), gamma3 encircles {-1, -a} (III then II).  The end loops
    approach radially along the imaginary axis and run once counterclockwise
    around the circle |z| = 3a; the starting sheet of the approach selects
    the end.
    """
    a = params.a
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


def _branch_distance(z: complex, a: float) -> float:
    return min(abs(z - b) for b in branch_points(a))


def _segment_distance(p: complex, q: complex, b: complex) -> float:
    """Distance from point b to the segment [p, q]."""
    d = q - p
    dd = (d * d.conjugate()).real
    if dd == 0.0:
        return abs(b - p)
    t = ((b - p) * d.conjugate()).real / dd
    t = min(1.0, max(0.0, t))
    return abs(b - (p + t * d))
