"""The hyperelliptic curve w^2 = (z+1)(z-a) / ((z-1)(z+a)) and its canonical paths.

The curve is a twice punctured torus for a > 1 (branch points at +-1 and +-a,
punctures over z = infinity on both sheets).  A path (PathSpec) is the sheet
value w0 at its first waypoint and its waypoints, a polyline in the z-plane;
it is a loop when its last waypoint equals its first.  w is continued along a
polyline in closed form, segment by segment (continue_w): on a segment that
clears the branch points the integral of d(log w) = L(z) dz is a sum of
principal logarithms, so no branch cut is tracked and nothing is integrated.
The frame kernels integrate w jointly with the frame instead, and there the
residual |w^2 - R(z)| (sheet_residual_of), checked by transport at every
accepted step, is the monitor that w stays on the curve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContinuationError, DomainError, PathError

# Minimum distance every path segment must keep from a branch point.
BRANCH_DELTA = 0.1
# Tolerance on |w^2 - R(z)| relative to 1 + |R(z)|.  The integrated w stays
# within 2.3e-11 of the curve at every accepted step of the seven canonical
# paths at the four a = 2 roots (4.8e-11 at the 24 x 24 mesh nodes), so 1e-8,
# 200 times that, flags only a w that has left the curve.
TOL_SHEET = 1e-8
# Over a point z the curve holds w_ref and -w_ref, 2 |w_ref| apart, and
# same_sheet tells which one a w on the curve is by a bound on
# |w - w_ref| / (1 + |w_ref|).  gamma1-3 and the end loops return to their
# start value +-1 to 7.1e-12 at the four a = 2 roots at rel_tol 1e-10, with
# the other sheet 2 away; at the mesh samples of the five a = 2 roots |w| is
# at least 0.45 (24 x 24) and at verify's probe 1.06, so the other sheet is
# at least 0.9 away.  1e-6 is far from both.
TOL_SAME_SHEET = 1e-6
# Imaginary lift of the default first-quadrant arc waypoints.
ARC_LIFT = 0.8
# End loops run along the circle |z| = END_LOOP_FACTOR * a.
END_LOOP_FACTOR = 3.0


def check_branch_parameter(a: float) -> None:
    """Raise DomainError unless 1 < a < inf: the curve is a torus for a > 1."""
    if not a > 1.0:
        raise DomainError(f"branch parameter must satisfy a > 1, got {a}")
    if a == math.inf:
        raise DomainError("branch parameter must be finite, got inf")


@dataclass(frozen=True)
class CurveParams:
    """Branch parameter 1 < a < inf and finite Hopf coefficient c != 0."""

    a: float
    c: float

    def __post_init__(self):
        check_branch_parameter(self.a)
        if self.c == 0.0:
            raise DomainError("coefficient c must be nonzero")
        if not math.isfinite(self.c):
            raise DomainError(f"coefficient c must be finite, got {self.c}")


@dataclass(frozen=True)
class CurvePoint:
    """A point (z, w) with w on the current sheet of the square root."""

    z: complex
    w: complex

    def sheet_residual(self, a: float) -> float:
        return sheet_residual_of(self.w, rational_rhs(self.z, a))


@dataclass(frozen=True)
class PathSpec:
    """Polyline in the z-plane lifted to the curve by continuity from the
    sheet value w0 at waypoints[0].  The path is a loop when its last
    waypoint equals its first.
    """

    w0: complex
    waypoints: tuple


def branch_points(a: float) -> tuple:
    return (1.0, -1.0, a, -a)


def branch_offsets(a: float, scale=1.0):
    """The constants k with z + k[i] the offsets (z + 1, z - a, z - 1, z + a)
    of z from the branch points, seen through the lane map scale * z:
    k[i] = k_i / scale, k_i being the offsets at scale 1.  Then
    R(scale * z) is rational_rhs_of(z, k) and scale * L(scale * z) is
    log_derivative_of(z, k).  A tuple of four Python complex numbers for a
    scalar scale, else a (4, n) array whose column j belongs to lane j.  The
    -a and -1 entries are negated as complex numbers, so with a real scale
    their imaginary parts are -0.0 and each sum keeps the signed zero of the
    subtraction it replaces."""
    k = (1.0 / scale, a / scale, 1.0 / scale, a / scale)
    if np.ndim(scale) == 0:
        k0, k1, k2, k3 = (complex(x) for x in k)
        return (k0, -k1, -k2, k3)
    k0, k1, k2, k3 = (np.asarray(x, dtype=complex) for x in k)
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


def same_sheet(w: complex, w_ref: complex) -> bool:
    """Whether w, one of the two values +-w_ref that the curve holds over a
    point, is w_ref: |w - w_ref| <= TOL_SAME_SHEET (1 + |w_ref|)."""
    return abs(w - w_ref) <= TOL_SAME_SHEET * (1.0 + abs(w_ref))


def validate_path(path: PathSpec, a: float) -> None:
    """Raise PathError unless the waypoints are finite, w0 lies on the curve
    at waypoints[0], and every segment clears the branch points by
    BRANCH_DELTA.  The error names the first segment in path order that
    does not clear them, and the first of branch_points(a) that it passes
    too near.  The one-path case of _validate_paths."""
    _validate_paths((path,), a)


def _validate_paths(paths, a: float) -> None:
    """validate_path on each of paths, with one numpy pass over all their
    waypoints and one _segment_distances call over all their segments.
    Raises the error that validating the paths one after the other, in
    order, would raise first."""
    b = branch_points(a)
    z = np.array([w for path in paths for w in path.waypoints], dtype=complex)
    finite = np.isfinite(z)
    nonfinite = [] if finite.all() else np.flatnonzero(~finite).tolist()
    # Segment i runs from z[i] to z[i + 1]; where z[i] ends a path, it joins
    # two paths and belongs to neither.  near lists i * len(b) + j for each
    # segment i that passes within BRANCH_DELTA of b[j], in increasing order.
    near = np.flatnonzero(
        _segment_distances(z[:-1, None], z[1:, None], np.array(b)) < BRANCH_DELTA
    ).tolist()
    first = 0
    for path in paths:
        wp = path.waypoints
        last = first + len(wp)
        if len(wp) < 1:
            raise PathError("path needs at least one waypoint")
        if nonfinite and nonfinite[0] < last:  # the paths before have none
            raise PathError("waypoints must be finite")
        if sheet_residual_of(path.w0, rational_rhs(wp[0], a)) > TOL_SHEET:
            raise PathError("start point does not lie on the curve")
        hit = next((k for k in near if first * len(b) <= k < (last - 1) * len(b)), None)
        if hit is not None:
            i, j = divmod(hit - first * len(b), len(b))
            raise PathError(
                f"segment {wp[i]} -> {wp[i + 1]} passes within {BRANCH_DELTA} "
                f"of branch point {b[j]}"
            )
        first = last


def end_point(path: PathSpec, w: complex, a: float) -> CurvePoint:
    """The point over the last waypoint of path with sheet value w; raises
    ContinuationError where w is off the curve there."""
    end = CurvePoint(path.waypoints[-1], w)
    if end.sheet_residual(a) > TOL_SHEET:
        raise ContinuationError("endpoint sheet residual exceeded")
    return end


def continue_w(waypoints, w, k):
    """w continued from waypoints[0] along the polyline to its last vertex,
    in closed form: the one statement of how w continues.

    On a segment p -> q the integral of dz / (z + k_i) is
    Log((q + k_i) / (p + k_i)), principal, since a segment that stays clear
    of the branch point -k_i subtends an angle of less than pi there.  So
    w(q) = w(p) sqrt(r0) sqrt(r1) / (sqrt(r2) sqrt(r3)) with
    r_i = (q + k_i) / (p + k_i) and principal roots.  k is branch_offsets
    output: a tuple, with w a complex number, or a (4, n) array, with w one
    value or n, one per lane; an affine lane map leaves the ratios as they
    are.  The segments must clear the branch points (validate_path).
    """
    sqrt = cmath.sqrt if isinstance(k, tuple) else np.sqrt
    for p, q in zip(waypoints[:-1], waypoints[1:]):
        r0, r1, r2, r3 = ((q + x) / (p + x) for x in k)
        w = w * (sqrt(r0) * sqrt(r1) / (sqrt(r2) * sqrt(r3)))
    return w


def transport_w(path: PathSpec, a: float) -> CurvePoint:
    """The end point of path on the curve of a, w continued by continue_w
    from path.w0 after validate_path; end_point checks that it lies on the
    curve."""
    check_branch_parameter(a)
    validate_path(path, a)
    return end_point(path, continue_w(path.waypoints, path.w0, branch_offsets(a)), a)


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
    up, down = complex(+1), complex(-1)

    c1 = PathSpec(up, (0j, z1 / 2 + lift, complex(z1)))
    c2 = PathSpec(up, (0j, z2 / 2 + lift, complex(z2)))
    gamma1 = PathSpec(
        up,
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
    )
    gamma2 = PathSpec(up, (0j, z2 / 2 + lift, complex(z2), z2 / 2 - lift, 0j))
    gamma3 = PathSpec(up, (0j, -z2 / 2 - lift, complex(-z2), -z2 / 2 + lift, 0j))

    r = END_LOOP_FACTOR * a
    circle = tuple(
        r * cmath.exp(1j * (math.pi / 2 + 2 * math.pi * k / 64)) for k in range(65)
    )
    loop_wp = (0j,) + circle + (0j,)
    end_plus = PathSpec(up, loop_wp)
    end_minus = PathSpec(down, loop_wp)

    _validate_paths((c1, c2, gamma1, gamma2, gamma3, end_plus, end_minus), a)
    return CanonicalPaths(c1, c2, gamma1, gamma2, gamma3, end_plus, end_minus)


def _segment_distances(p: np.ndarray, q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from real b to the segments [p, q], all broadcast: from b to
    the point p + t (q - p) with t = <b - p, q - p> / |q - p|^2 clipped to
    [0, 1], formed on real and imaginary parts (a zero-length segment's nan t
    goes to 0 in np.fmax).  Where |q - p|^2 overflows, the projection is on
    the unit direction instead, clipped to [0, |q - p|]."""
    pr, pi = p.real, p.imag
    top = 1.0
    with np.errstate(all="ignore"):
        dr, di = q.real - pr, q.imag - pi
        dd = dr * dr + di * di
        over = ~np.isfinite(dd)
        if over.any():  # |d|^2 overflows: project on the unit direction, up to |d|
            hr, hi = q.real / 2 - pr / 2, q.imag / 2 - pi / 2
            n = np.hypot(hr, hi)
            dr, di = np.where(over, hr / n, dr), np.where(over, hi / n, di)
            dd, top = np.where(over, 1.0, dd), np.where(over, 2 * n, 1.0)
        t = np.fmin(np.fmax(((b - pr) * dr + (0.0 - pi) * di) / dd, 0.0), top)
        return np.hypot(b - (pr + t * dr), 0.0 - (pi + t * di))
