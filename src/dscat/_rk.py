"""Adaptive Dormand-Prince 5(4) integrator for complex ODE systems along polylines.

State vectors of integrate_polyline are plain tuples of Python complex numbers.
numpy is deliberately avoided there: the systems are tiny (5 components) and
scalar arithmetic is an order of magnitude faster than small-array operations
in the step loop.  integrate_polyline_lanes runs the same scheme on many
independent copies of one system ("lanes") at once, where numpy's per-call
overhead is shared by all lanes.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import StepLimitExceeded

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
# j + 2 sits at fraction _STAGE_NODES[j] of the step, and _ERR_W weighs k1..k7
# in the error estimate.  The weighted sums are reduced by numpy ufuncs, not
# matrix products: numpy hands those to a BLAS that may start threads, which
# doubled the CPU time of a 2600-point scan on 2 cores without making it faster.
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
_STAGE_NODES = (0.2, 0.3, 0.8, 8 / 9, 1.0, 1.0)
_ERR_W = np.array([_E1, 0.0, _E3, _E4, _E5, _E6, _E7])[:, None, None]

Field = Callable[[complex, complex, tuple], tuple]
Monitor = Callable[[complex, tuple], None]


def integrate_polyline(
    waypoints: Sequence[complex],
    y0: Sequence[complex],
    field: Field,
    *,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    max_steps: int = 400_000,
    first_step: float = 0.05,
    on_step: Monitor | None = None,
) -> tuple:
    """Integrate dy/ds = field(z, u, y) along the polyline, s being arc length.

    z is the current point of the polyline and u the unit direction of the
    active segment, so a holomorphic field G(z) enters as field = G(z(s)) * u.
    on_step, when given, is called with (z, y) after every accepted step.
    Returns the final state tuple.
    """
    y = tuple(y0)
    n = len(y)
    steps = 0
    h = first_step
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
            y2 = tuple(y[i] + h * _A21 * k1[i] for i in range(n))
            k2 = field(z0 + 0.2 * h * u, u, y2)
            y3 = tuple(y[i] + h * (_A31 * k1[i] + _A32 * k2[i]) for i in range(n))
            k3 = field(z0 + 0.3 * h * u, u, y3)
            y4 = tuple(y[i] + h * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i]) for i in range(n))
            k4 = field(z0 + 0.8 * h * u, u, y4)
            y5 = tuple(
                y[i] + h * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i] + _A54 * k4[i])
                for i in range(n)
            )
            k5 = field(z0 + (8 / 9) * h * u, u, y5)
            y6 = tuple(
                y[i]
                + h * (_A61 * k1[i] + _A62 * k2[i] + _A63 * k3[i] + _A64 * k4[i] + _A65 * k5[i])
                for i in range(n)
            )
            k6 = field(z0 + h * u, u, y6)
            ynew = tuple(
                y[i] + h * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i] + _B5 * k5[i] + _B6 * k6[i])
                for i in range(n)
            )
            k7 = field(z0 + h * u, u, ynew)
            err_sq = 0.0
            for i in range(n):
                e_i = h * (
                    _E1 * k1[i]
                    + _E3 * k3[i]
                    + _E4 * k4[i]
                    + _E5 * k5[i]
                    + _E6 * k6[i]
                    + _E7 * k7[i]
                )
                sc = abs_tol + rel_tol * max(abs(y[i]), abs(ynew[i]))
                err_sq += (abs(e_i) / sc) ** 2
            err = math.sqrt(err_sq / n)
            steps += 1
            if steps > max_steps:
                raise StepLimitExceeded(f"exceeded {max_steps} steps")
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
                raise StepLimitExceeded("step size underflow")
    return y


def integrate_polyline_lanes(
    waypoints: Sequence[complex],
    y0: np.ndarray,
    field: Callable[[complex, complex, np.ndarray], np.ndarray],
    *,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    max_steps: int = 400_000,
    first_step: float = 0.05,
    on_step: Callable[[complex, np.ndarray], None] | None = None,
) -> np.ndarray:
    """integrate_polyline for an (n, n_lanes) complex array of independent states.

    Column j holds the n components of lane j; lanes run along the last axis
    so that each component is a contiguous row.  field(z, u, y) returns the
    (n, n_lanes) derivative of all lanes.  The lanes share one step sequence:
    a step is accepted only when the worst lane's error, the RMS norm of
    integrate_polyline, is at most 1, so every lane meets rel_tol and abs_tol
    on its own.  With one lane this is integrate_polyline up to rounding.
    on_step, when given, is called with (z, y) after every accepted step.
    Returns the final state array.
    """
    y = np.array(y0, dtype=complex)
    shape = y.shape
    n = shape[0]
    k = np.empty((7,) + shape, dtype=complex)  # k[j] holds k_{j+1}
    steps = 0
    h = first_step
    for p, q in zip(waypoints[:-1], waypoints[1:]):
        seg = q - p
        seg_len = abs(seg)
        if seg_len == 0.0:
            continue
        u = seg / seg_len
        s = 0.0
        k[0] = field(p, u, y)  # direction changed, FSAL cache invalid
        y_abs = np.abs(y)
        h = min(h, seg_len)
        while seg_len - s > 1e-14 * seg_len:
            h = min(h, seg_len - s)
            z0 = p + s * u
            for j, node in enumerate(_STAGE_NODES):
                y_j = y + h * np.add.reduce(_STAGE_W[j, : j + 1] * k[: j + 1])
                k[j + 1] = field(z0 + node * h * u, u, y_j)
            ynew = y_j
            e = h * np.add.reduce(_ERR_W * k)
            ynew_abs = np.abs(ynew)
            ratio = np.abs(e) / (abs_tol + rel_tol * np.maximum(y_abs, ynew_abs))
            err = math.sqrt(float((ratio * ratio).sum(axis=0).max()) / n)
            steps += 1
            if steps > max_steps:
                raise StepLimitExceeded(f"exceeded {max_steps} steps")
            if err <= 1.0:
                s += h
                y = ynew
                y_abs = ynew_abs
                k[0] = k[6]
                if on_step is not None:
                    on_step(z0 + h * u, y)
            if err == 0.0:
                h *= 5.0
            else:
                h *= min(5.0, max(0.2, 0.9 * err ** -0.2))
            if h < 1e-14 * seg_len:
                raise StepLimitExceeded("step size underflow")
    return y


def integrate_polyline_rk4(
    waypoints: Sequence[complex],
    y0: Sequence[complex],
    field: Field,
    n_steps: int,
) -> tuple:
    """Fixed-step classical RK4 along the polyline, n_steps over total arc length.

    Serves as an independent reference for self-convergence checks; shares no
    step-control logic with the adaptive scheme.
    """
    y = tuple(y0)
    n = len(y)
    total = sum(abs(q - p) for p, q in zip(waypoints[:-1], waypoints[1:]))
    if total == 0.0:
        return y
    h_target = total / n_steps
    for p, q in zip(waypoints[:-1], waypoints[1:]):
        seg = q - p
        seg_len = abs(seg)
        if seg_len == 0.0:
            continue
        u = seg / seg_len
        m = max(1, int(math.ceil(seg_len / h_target)))
        h = seg_len / m
        for j in range(m):
            z0 = p + j * h * u
            k1 = field(z0, u, y)
            y2 = tuple(y[i] + 0.5 * h * k1[i] for i in range(n))
            k2 = field(z0 + 0.5 * h * u, u, y2)
            y3 = tuple(y[i] + 0.5 * h * k2[i] for i in range(n))
            k3 = field(z0 + 0.5 * h * u, u, y3)
            y4 = tuple(y[i] + h * k3[i] for i in range(n))
            k4 = field(z0 + h * u, u, y4)
            y = tuple(y[i] + (h / 6) * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) for i in range(n))
    return y
