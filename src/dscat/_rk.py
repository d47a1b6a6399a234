"""Adaptive Dormand-Prince 5(4) integrator for complex ODE systems along polylines.

Both adaptive kernels run one step controller, _drive, and differ only in the
field and step function they hand it: integrate_polyline's field argument and
its step, and the frame field and step of _lane_kernel for
integrate_polyline_lanes.  Their settings are one IntegratorConfig, cfg,
defined here with its defaults in DEFAULT_CONFIG.  A step budget or a step
size underflow raises StepLimitExceeded with the point of the polyline where
the failing step starts.

integrate_polyline integrates the five-component state of the frame transport,
(F11, F12, F21, F22, w), as a plain tuple of Python complex numbers.  It
converts the start state on entry: a numpy complex scalar there (an entry of
a frame array, say) would carry every later operation on that component into
numpy's scalar arithmetic, which is slower than Python's.  numpy arrays are
avoided in the step loop for the same reason: the system is tiny and scalar
arithmetic is an order of magnitude faster than small-array operations.

The library calls integrate_polyline only on the frame field of
transport._joint_field, which carries its coefficient and branch offsets as
its attribute frame, and so always runs the fused step of _frame_step: the
DP5 step with the field written out at each stage in the field's own
operations and order, forming c u once per step and L(z) once per distinct
stage point.
Any other field, such as the frame field wrapped in a plain function to
count its calls, as the benchmark's tracer wraps it, takes the generic step
_dp5_step5, the plain stage loop with one call of the field per stage; it
stays until the benchmark counts work by role rather than by function
(ROADMAP item 12).  Both give the bits of the tests' per-component
reference loop: each stage sum keeps its order, because floating-point
arithmetic is not associative, and regrouping a stage sum or a product
(h * (A * k) for (h * A) * k, say) would move results in the last digits
and, through the step-size controller, change which steps are taken.

integrate_polyline_lanes runs the same scheme on the same five components
for many independent lanes at once, each with its own coefficient c and
branch offsets, where numpy's per-call overhead is shared by all lanes: the
rings of a mesh (geometry.build_mesh).  Its field is its own, not an
argument: one step takes L(z) at the step's five distinct stage points in
one call of curve.log_derivative_of on the lanes' offsets, writes each
stage derivative into its row of the stage array, and forms each stage sum
as the same ufunc reduction over the stage axis into buffers made once per
integration, so a step makes about half the numpy calls of a field called
once per stage and allocates only the new state, its modulus and L.

integrate_polyline_rk4, the fixed-step reference, integrates a linear system
dF/ds = M(z) F for a 2 x 2 matrix F, M being given in closed form along the
path: for the frame equation, with w continued by curve.continue_w.  One
classical RK4 step is then F -> T_n F, T_n depending on the step alone, so a
block of steps is computed at once in numpy: M at the steps' end points and
midpoints, the T_n, and their product by pairwise reduction, carried from
block to block.  This is the RK4 scheme step for step, with the rounding in
another order, and it stays independent of the adaptive kernels: a fixed step
grid, no step control, and a different method.  Its 2 x 2 products are
written out by component, not left to numpy's matrix product, for the reason
given at _STAGE_W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .curve import log_derivative_of
from .errors import DomainError, StepLimitExceeded

# Butcher tableau, Dormand-Prince 5(4) with FSAL.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

# The tableau as arrays for the lane kernel, shaped to broadcast against the
# stacked stage derivatives k[j] = k_{j+1}: row j of _STAGE_W weighs k1..k6 in
# the state of stage j + 2 (the last row is the fifth-order solution), stage
# j + 2 sits at fraction _STAGE_POINTS[_STAGE_POINT_OF[j]] of the step (stages
# 6 and 7 share its end), and _ERR_W weighs k1..k7 in the error estimate.  The
# weighted sums are reduced by numpy ufuncs, not matrix products: numpy hands
# those to a BLAS that may start threads, which doubled the CPU time of a
# 2600-point scan on 2 cores without making it faster.
_STAGE_W = np.array(
    [
        [_A21, 0.0, 0.0, 0.0, 0.0, 0.0],
        [_A31, _A32, 0.0, 0.0, 0.0, 0.0],
        [_A41, _A42, _A43, 0.0, 0.0, 0.0],
        [_A51, _A52, _A53, _A54, 0.0, 0.0],
        [_A61, _A62, _A63, _A64, _A65, 0.0],
        [_B1, 0.0, _B3, _B4, _B5, _B6],
    ]
)[:, :, None, None]
_STAGE_POINTS = (0.2, 0.3, 0.8, 8 / 9, 1.0)
_STAGE_POINT_OF = (0, 1, 2, 3, 4, 4)
_ERR_W = np.array([_E1, 0.0, _E3, _E4, _E5, _E6, _E7])[:, None, None]

# Steps per block of the RK4 reference: its work arrays hold one block, so
# memory stays fixed however many steps a path takes.
RK4_BLOCK = 1024

Field = Callable[[complex, complex, tuple], tuple]
Monitor = Callable[[complex, tuple], None]


@dataclass(frozen=True)
class IntegratorConfig:
    """The adaptive kernels' settings; DomainError unless each is finite and positive."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 400_000
    initial_step: float = 0.05

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "initial_step"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and positive")
        if not self.max_steps >= 1:
            raise DomainError("max_steps must be at least 1")


DEFAULT_CONFIG = IntegratorConfig()


def integrate_polyline(
    waypoints: Sequence[complex],
    y0: Sequence[complex],
    field: Field,
    *,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    on_step: Monitor | None = None,
) -> tuple:
    """Integrate dy/ds = field(z, u, y) along the polyline, s being arc length,
    for the five-component state y of the frame transport.

    z is the current point of the polyline and u the unit direction of the
    active segment, so a holomorphic field G(z) enters as field = G(z(s)) * u.
    on_step, when given, is called with (z, y) after every accepted step.
    Returns the final state tuple.  A field with the attribute frame, as
    transport._joint_field makes it, runs on the fused step _frame_step(*frame),
    any other on the generic step _dp5_step5.
    """
    frame = getattr(field, "frame", None)
    step = _dp5_step5 if frame is None else _frame_step(*frame)
    return _drive(waypoints, tuple(complex(v) for v in y0), field, step, cfg, on_step)


def _drive(waypoints, y, field, step, cfg, on_step):
    """The step controller of Hairer, Norsett & Wanner (Solving ODEs I, II.4)
    along the polyline, FSAL restarting at each segment.  step(field, z0, u,
    h, y, k1, rel_tol, abs_tol) returns (ynew, k7, err), err being the RMS of
    the scaled component errors; a step is accepted when err <= 1."""
    rel_tol, abs_tol, max_steps, h = cfg.rel_tol, cfg.abs_tol, cfg.max_steps, cfg.initial_step
    steps = 0
    for p, q in zip(waypoints[:-1], waypoints[1:]):
        seg = q - p
        seg_len = abs(seg)
        if seg_len == 0.0:
            continue
        u = seg / seg_len
        s = 0.0
        k1 = field(p, u, y)  # direction changed, FSAL cache invalid
        h = min(h, seg_len)
        while seg_len - s > 1e-14 * seg_len:
            h = min(h, seg_len - s)
            z0 = p + s * u
            ynew, k7, err = step(field, z0, u, h, y, k1, rel_tol, abs_tol)
            steps += 1
            if steps > max_steps:
                raise StepLimitExceeded(f"exceeded {max_steps} steps", p + s * u)
            if err <= 1.0:
                s += h
                y = ynew
                k1 = k7
                if on_step is not None:
                    on_step(z0 + h * u, y)
            if err == 0.0:
                h *= 5.0
            else:
                h *= min(5.0, max(0.2, 0.9 * err ** -0.2))
            if h < 1e-14 * seg_len:
                raise StepLimitExceeded("step size underflow", p + s * u)
    return y


def _dp5_step5(field, z0, u, h, y, k1, rel_tol, abs_tol):
    """One DP5 step from (z0, y) of length h: (ynew, k7, err), err being the
    RMS of the scaled component errors: the stage loop component by
    component, one call of field per stage."""
    n = range(len(y))
    k2 = field(z0 + 0.2 * h * u, u, tuple(y[i] + h * _A21 * k1[i] for i in n))
    k3 = field(z0 + 0.3 * h * u, u, tuple(y[i] + h * (_A31 * k1[i] + _A32 * k2[i]) for i in n))
    y4 = tuple(y[i] + h * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i]) for i in n)
    k4 = field(z0 + 0.8 * h * u, u, y4)
    y5 = tuple(y[i] + h * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i] + _A54 * k4[i]) for i in n)
    k5 = field(z0 + (8 / 9) * h * u, u, y5)
    y6 = tuple(
        y[i] + h * (_A61 * k1[i] + _A62 * k2[i] + _A63 * k3[i] + _A64 * k4[i] + _A65 * k5[i])
        for i in n
    )
    z1 = z0 + h * u
    k6 = field(z1, u, y6)
    ynew = tuple(
        y[i] + h * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i] + _B5 * k5[i] + _B6 * k6[i]) for i in n
    )
    k7 = field(z1, u, ynew)
    err_sq = 0.0
    for i in n:
        e = h * (_E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i] + _E5 * k5[i] + _E6 * k6[i] + _E7 * k7[i])
        err_sq += (abs(e) / (abs_tol + rel_tol * max(abs(y[i]), abs(ynew[i])))) ** 2
    return ynew, k7, math.sqrt(err_sq / len(y))


def _frame_step(cs: complex, k: tuple):
    """_dp5_step5 on the frame field of transport._joint_field, made from its
    coefficient cs = c * scale and branch offsets k: a step for _drive.

    The field is written out at each stage with the operations of
    _joint_field in their order, and c u is formed once per step.  L(z),
    log_derivative_of's, is taken once at each of the five distinct stage
    points, stages 6 and 7 sharing the end point's.  |y| is kept from the
    step that produced y.  Its results are _dp5_step5's on that field, bit
    for bit.
    """
    k0, k1, k2, k3 = k
    last = last_abs = None

    def step(field, z0, u, h, y, fsal, rel_tol, abs_tol):
        nonlocal last, last_abs
        y0, y1, y2, y3, y4 = y
        a0, a1, a2, a3, a4 = fsal
        cu = cs * u
        hA21 = h * _A21
        z = z0 + 0.2 * h * u
        L = 0.5 * (1 / (z + k0) + 1 / (z + k1) - 1 / (z + k2) - 1 / (z + k3))
        s0 = y0 + hA21 * a0
        s1 = y1 + hA21 * a1
        s2 = y2 + hA21 * a2
        s3 = y3 + hA21 * a3
        w = y4 + hA21 * a4
        iw = 1.0 / w
        b0, b1 = cu * (s0 - w * s2), cu * (s1 - w * s3)
        b2, b3 = cu * (s0 * iw - s2), cu * (s1 * iw - s3)
        b4 = w * L * u
        z = z0 + 0.3 * h * u
        L = 0.5 * (1 / (z + k0) + 1 / (z + k1) - 1 / (z + k2) - 1 / (z + k3))
        s0 = y0 + h * (_A31 * a0 + _A32 * b0)
        s1 = y1 + h * (_A31 * a1 + _A32 * b1)
        s2 = y2 + h * (_A31 * a2 + _A32 * b2)
        s3 = y3 + h * (_A31 * a3 + _A32 * b3)
        w = y4 + h * (_A31 * a4 + _A32 * b4)
        iw = 1.0 / w
        c0, c1 = cu * (s0 - w * s2), cu * (s1 - w * s3)
        c2, c3 = cu * (s0 * iw - s2), cu * (s1 * iw - s3)
        c4 = w * L * u
        z = z0 + 0.8 * h * u
        L = 0.5 * (1 / (z + k0) + 1 / (z + k1) - 1 / (z + k2) - 1 / (z + k3))
        s0 = y0 + h * (_A41 * a0 + _A42 * b0 + _A43 * c0)
        s1 = y1 + h * (_A41 * a1 + _A42 * b1 + _A43 * c1)
        s2 = y2 + h * (_A41 * a2 + _A42 * b2 + _A43 * c2)
        s3 = y3 + h * (_A41 * a3 + _A42 * b3 + _A43 * c3)
        w = y4 + h * (_A41 * a4 + _A42 * b4 + _A43 * c4)
        iw = 1.0 / w
        d0, d1 = cu * (s0 - w * s2), cu * (s1 - w * s3)
        d2, d3 = cu * (s0 * iw - s2), cu * (s1 * iw - s3)
        d4 = w * L * u
        z = z0 + (8 / 9) * h * u
        L = 0.5 * (1 / (z + k0) + 1 / (z + k1) - 1 / (z + k2) - 1 / (z + k3))
        s0 = y0 + h * (_A51 * a0 + _A52 * b0 + _A53 * c0 + _A54 * d0)
        s1 = y1 + h * (_A51 * a1 + _A52 * b1 + _A53 * c1 + _A54 * d1)
        s2 = y2 + h * (_A51 * a2 + _A52 * b2 + _A53 * c2 + _A54 * d2)
        s3 = y3 + h * (_A51 * a3 + _A52 * b3 + _A53 * c3 + _A54 * d3)
        w = y4 + h * (_A51 * a4 + _A52 * b4 + _A53 * c4 + _A54 * d4)
        iw = 1.0 / w
        e0, e1 = cu * (s0 - w * s2), cu * (s1 - w * s3)
        e2, e3 = cu * (s0 * iw - s2), cu * (s1 * iw - s3)
        e4 = w * L * u
        z = z0 + h * u
        L = 0.5 * (1 / (z + k0) + 1 / (z + k1) - 1 / (z + k2) - 1 / (z + k3))
        s0 = y0 + h * (_A61 * a0 + _A62 * b0 + _A63 * c0 + _A64 * d0 + _A65 * e0)
        s1 = y1 + h * (_A61 * a1 + _A62 * b1 + _A63 * c1 + _A64 * d1 + _A65 * e1)
        s2 = y2 + h * (_A61 * a2 + _A62 * b2 + _A63 * c2 + _A64 * d2 + _A65 * e2)
        s3 = y3 + h * (_A61 * a3 + _A62 * b3 + _A63 * c3 + _A64 * d3 + _A65 * e3)
        w = y4 + h * (_A61 * a4 + _A62 * b4 + _A63 * c4 + _A64 * d4 + _A65 * e4)
        iw = 1.0 / w
        f0, f1 = cu * (s0 - w * s2), cu * (s1 - w * s3)
        f2, f3 = cu * (s0 * iw - s2), cu * (s1 * iw - s3)
        f4 = w * L * u
        v0 = y0 + h * (_B1 * a0 + _B3 * c0 + _B4 * d0 + _B5 * e0 + _B6 * f0)
        v1 = y1 + h * (_B1 * a1 + _B3 * c1 + _B4 * d1 + _B5 * e1 + _B6 * f1)
        v2 = y2 + h * (_B1 * a2 + _B3 * c2 + _B4 * d2 + _B5 * e2 + _B6 * f2)
        v3 = y3 + h * (_B1 * a3 + _B3 * c3 + _B4 * d3 + _B5 * e3 + _B6 * f3)
        w = y4 + h * (_B1 * a4 + _B3 * c4 + _B4 * d4 + _B5 * e4 + _B6 * f4)
        iw = 1.0 / w
        g0, g1 = cu * (v0 - w * v2), cu * (v1 - w * v3)
        g2, g3 = cu * (v0 * iw - v2), cu * (v1 * iw - v3)
        g4 = w * L * u
        if y is last:
            n0, n1, n2, n3, n4 = last_abs
        else:
            n0, n1, n2, n3, n4 = abs(y0), abs(y1), abs(y2), abs(y3), abs(y4)
        m0, m1, m2, m3, m4 = abs(v0), abs(v1), abs(v2), abs(v3), abs(w)
        x0 = h * (_E1 * a0 + _E3 * c0 + _E4 * d0 + _E5 * e0 + _E6 * f0 + _E7 * g0)
        x1 = h * (_E1 * a1 + _E3 * c1 + _E4 * d1 + _E5 * e1 + _E6 * f1 + _E7 * g1)
        x2 = h * (_E1 * a2 + _E3 * c2 + _E4 * d2 + _E5 * e2 + _E6 * f2 + _E7 * g2)
        x3 = h * (_E1 * a3 + _E3 * c3 + _E4 * d3 + _E5 * e3 + _E6 * f3 + _E7 * g3)
        x4 = h * (_E1 * a4 + _E3 * c4 + _E4 * d4 + _E5 * e4 + _E6 * f4 + _E7 * g4)
        # m if m > n else n is max(n, m), NaN included
        err_sq = (
            (abs(x0) / (abs_tol + rel_tol * (m0 if m0 > n0 else n0))) ** 2
            + (abs(x1) / (abs_tol + rel_tol * (m1 if m1 > n1 else n1))) ** 2
            + (abs(x2) / (abs_tol + rel_tol * (m2 if m2 > n2 else n2))) ** 2
            + (abs(x3) / (abs_tol + rel_tol * (m3 if m3 > n3 else n3))) ** 2
            + (abs(x4) / (abs_tol + rel_tol * (m4 if m4 > n4 else n4))) ** 2
        )
        last, last_abs = (v0, v1, v2, v3, w), (m0, m1, m2, m3, m4)
        return last, (g0, g1, g2, g3, g4), math.sqrt(err_sq / 5)

    return step


def integrate_polyline_lanes(
    waypoints: Sequence[complex],
    y0: np.ndarray,
    cs,
    offsets,
    *,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    on_step: Callable[[complex, np.ndarray], None] | None = None,
) -> np.ndarray:
    """integrate_polyline of the frame transport for a (5, n_lanes) complex
    array of independent states.

    Column j holds lane j's (F11, F12, F21, F22, w); lanes run along the
    last axis so that each component is a contiguous row.  Lane j solves
    dF/ds = cs[j] [[1, -w], [1/w, -1]] F u and dw/ds = w L(z) u, u being the
    unit direction of the active segment and L curve.log_derivative_of with
    the branch offsets, a (4, n_lanes) array whose column j is lane j's
    (curve.branch_offsets at a per-lane scale).  cs is given per lane or once.
    F21' and F22' are formed as F11' / w and F12' / w, which holds because
    the connection is of rank one.  The lanes share one step sequence: a
    step is accepted only when the worst lane's error, the RMS norm of
    integrate_polyline, is at most 1, so every lane meets cfg's tolerances
    on its own.  on_step, when given, is called with (z, y) after every
    accepted step.  Returns the final state array.
    """
    y = np.array(y0, dtype=complex)
    field, step = _lane_kernel(y, cs, offsets)
    return _drive(waypoints, y, field, step, cfg, on_step)


def _lane_kernel(y0: np.ndarray, cs, offsets) -> tuple:
    """(field, step) of integrate_polyline_lanes for _drive, from the start
    state y0.  k[j] holds k_{j+1}, and each stage writes its derivative into
    its row.  field writes k1 at a segment's start into k[0]; step returns
    k7 as a new view of k[6] and copies a k1 it has not seen into k[0], so a
    rejected step copies nothing.  |y| is kept from the step that produced
    y, and the error is the worst lane's.  Each stage sum is np.add.reduce
    of the weighted rows over the stage axis, which adds them one after the
    other.  L comes once per step for the five stage points from one call,
    the offsets given shape (4, 1, n) against the points' (5, 1)."""
    n = y0.shape[0]
    k = np.empty((7,) + y0.shape, dtype=complex)
    weighted = np.empty_like(k)
    total, stage = np.empty_like(y0), np.empty_like(y0)
    ratio, bound = np.empty(y0.shape), np.empty(y0.shape)
    # the operands of stage sum j, and the rows (F11', F12'), (F21', F22')
    # and w' of k[j]
    sums = [(_STAGE_W[j, : j + 1], k[: j + 1], weighted[: j + 1]) for j in range(6)]
    rows = [(k[j, 0:2], k[j, 2:4], k[j, 4]) for j in range(7)]
    stacked = offsets[:, None]
    y_abs = np.abs(y0)
    k1_in = last = last_abs = cs_u = None

    def derive(y, Lu, out):
        """The field at the state y into the rows out of k, L(z) u being Lu."""
        top, bottom, w_out = out
        w = y[4]
        np.multiply(y[2:4], w, out=top)
        np.subtract(y[0:2], top, out=top)
        top *= cs_u
        np.divide(top, w, out=bottom)
        np.multiply(w, Lu, out=w_out)

    def field(z, u, y):
        nonlocal k1_in, cs_u
        cs_u = cs * u
        derive(y, log_derivative_of(z, offsets) * u, rows[0])
        k1_in = k[0]
        return k1_in

    def step(field, z0, u, h, y, k1, rel_tol, abs_tol):
        nonlocal k1_in, y_abs, last, last_abs
        if k1 is not k1_in:
            k[0] = k1_in = k1
        if y is last:  # the last step was accepted
            y_abs = last_abs
        z = np.array([z0 + node * h * u for node in _STAGE_POINTS])[:, None]
        Lu = log_derivative_of(z, stacked)
        Lu *= u
        # a lane that overflows goes on as inf or NaN, which fails its error
        # test, until the step size underflows
        with np.errstate(over="ignore", invalid="ignore"):
            for j, (weights, ks, products) in enumerate(sums):
                np.multiply(weights, ks, out=products)
                np.add.reduce(products, out=total)
                np.multiply(h, total, out=total)
                y_j = np.add(y, total, out=stage if j < 5 else None)
                derive(y_j, Lu[_STAGE_POINT_OF[j]], rows[j + 1])
            np.multiply(_ERR_W, k, out=weighted)
            e = np.add.reduce(weighted, out=total)
            np.multiply(h, e, out=e)
            last, last_abs = y_j, np.abs(y_j)
            np.abs(e, out=ratio)
            np.maximum(y_abs, last_abs, out=bound)
            np.multiply(rel_tol, bound, out=bound)
            np.add(abs_tol, bound, out=bound)
            np.divide(ratio, bound, out=ratio)
            np.multiply(ratio, ratio, out=ratio)
        return y_j, k[6], math.sqrt(float(ratio.sum(axis=0).max()) / n)

    return field, step


def integrate_polyline_rk4(
    waypoints: Sequence[complex],
    F0: np.ndarray,
    matrix: Callable[[int, np.ndarray, complex], tuple],
    n_steps: int,
) -> np.ndarray:
    """Fixed-step classical RK4 along the polyline, n_steps over total arc
    length, for the linear system dF/ds = M F with F a 2 x 2 matrix.

    matrix(i, z, u) returns the components (m11, m12, m21, m22) of M at the
    points z (an array) of segment i, whose unit direction is u; a component
    that is constant may be a scalar.  A segment of length L takes
    m = ceil(L / h) steps of length L / m, h being total / n_steps, run in
    blocks of RK4_BLOCK steps.  Returns the end frame as a (2, 2) complex
    array; a path of zero length returns the start frame and never calls
    matrix.

    Serves as an independent reference for self-convergence checks; shares no
    step-control logic with the adaptive scheme.
    """
    f = tuple(complex(v) for v in np.reshape(F0, 4))
    h_target = sum(abs(q - p) for p, q in zip(waypoints[:-1], waypoints[1:])) / n_steps
    for i, (p, q) in enumerate(zip(waypoints[:-1], waypoints[1:])):
        seg = q - p
        seg_len = abs(seg)
        if seg_len == 0.0:
            continue
        u = seg / seg_len
        m = max(1, int(math.ceil(seg_len / h_target)))
        h = seg_len / m
        for j in range(0, m, RK4_BLOCK):
            t = _rk4_transfer(matrix, i, p, u, h, j, min(m, j + RK4_BLOCK))
            f = _mul(tuple(complex(x) for x in _chain_product(t)), f)
    return np.array(f).reshape(2, 2)


def _rk4_transfer(matrix, i, p, u, h, j0, j1):
    """Transfer matrices T_n of the RK4 steps j0 ... j1 - 1 of length h along
    segment i from p in direction u, as (t11, t12, t21, t22), arrays over the
    steps.  M is evaluated once at the steps' end points, which neighbouring
    steps share, and once at their midpoints, which stages 2 and 3 share."""
    hh = 0.5 * h
    h6 = h / 6
    z = p + (np.arange(j0, j1 + 1) * h) * u  # the steps' end points
    ends = np.broadcast_arrays(*matrix(i, z, u), z)[:4]
    mid = matrix(i, z[:-1] + hh * u, u)
    p1 = tuple(x[:-1] for x in ends)
    p2 = _mul(mid, _shifted(hh, p1))
    p3 = _mul(mid, _shifted(hh, p2))
    p4 = _mul(tuple(x[1:] for x in ends), _shifted(h, p3))
    t11, t12, t21, t22 = (h6 * (a + 2 * b + 2 * c + d) for a, b, c, d in zip(p1, p2, p3, p4))
    return t11 + 1, t12, t21, t22 + 1


def _mul(a: tuple, b: tuple) -> tuple:
    """The 2 x 2 product a b, both given as components (x11, x12, x21, x22)."""
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return (
        a11 * b11 + a12 * b21,
        a11 * b12 + a12 * b22,
        a21 * b11 + a22 * b21,
        a21 * b12 + a22 * b22,
    )


def _shifted(x, a: tuple) -> tuple:
    """I + x a, a given as components."""
    a11, a12, a21, a22 = a
    return 1 + x * a11, x * a12, x * a21, 1 + x * a22


def _chain_product(t: tuple) -> tuple:
    """T_{k-1} ... T_1 T_0 of the matrices whose components are the arrays t,
    indexed by step along their first axis (any further axes run over lanes),
    multiplied pairwise: neighbours first, then neighbouring pairs, and so on."""
    while len(t[0]) > 1:
        n = len(t[0])
        even = n - n % 2
        prod = _mul(tuple(x[1:even:2] for x in t), tuple(x[0:even:2] for x in t))
        if n % 2:
            prod = tuple(np.concatenate((y, x[-1:])) for y, x in zip(prod, t))
        t = prod
    return tuple(x[0] for x in t)
