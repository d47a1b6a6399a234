"""Frame transport: integrate the linear system dF = alpha F along lifted paths.

With Gauss map G = w and Hopf coefficient c, the connection form is
alpha = c [[1, -w], [1/w, -1]] dz, which is trace free (determinant of F is
conserved) and nilpotent.  The frame and the sheet value w evolve jointly so
one error controller certifies both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _rk
from .curve import (
    TOL_SHEET,
    CurveParams,
    CurvePoint,
    PathSpec,
    log_derivative,
    sheet_monitor,
    validate_path,
)
from .errors import ContinuationError, DomainError

# det F is conserved exactly by the trace-free flow; on the seven canonical
# paths at the four a = 2 roots the drift is at most 3.1e-11 of |F|^2 at
# rel_tol 1e-10, so 1e-9 flags only a real loss of accuracy.
TOL_DET = 1e-9


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 400_000
    initial_step: float = 0.05

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise DomainError("tolerances must be positive")


DEFAULT_CONFIG = IntegratorConfig()


@dataclass(frozen=True)
class FrameState:
    point: CurvePoint
    F: np.ndarray


def alpha_matrix(p: CurvePoint, c: float) -> np.ndarray:
    """Coefficient of dz in the frame equation: c [[1, -w], [1/w, -1]].

    Trace is exactly zero and the matrix is rank one (nilpotent).
    """
    if p.w == 0:
        raise DomainError("alpha is singular where w = 0")
    w = p.w
    return np.array([[c, -c * w], [c / w, -c]], dtype=complex)


def _joint_field(a: float, c: float):
    """Field of (F11, F12, F21, F22, w) for the scalar kernels.

    L(z) is log_derivative's formula inlined without its branch-distance
    guard, as sheet_monitor inlines R(z): every caller runs validate_path
    first, and every stage point lies on a validated segment, so the guard
    could never fire here, while it took about a fifth of the field's time.
    """

    def field(z, u, y):
        F11, F12, F21, F22, w = y
        iw = 1.0 / w
        cu = c * u
        return (
            cu * (F11 - w * F21),
            cu * (F12 - w * F22),
            cu * (F11 * iw - F21),
            cu * (F12 * iw - F22),
            w * (0.5 * (1 / (z + 1) + 1 / (z - a) - 1 / (z - 1) - 1 / (z + a))) * u,
        )

    return field


def integrate_frame(
    path: PathSpec,
    params: CurveParams,
    F0: np.ndarray | None = None,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    on_step=None,
) -> FrameState:
    """Endpoint frame of dF/ds = alpha(z, w) F dz/ds integrated jointly with w.

    The sheet residual is checked at every accepted step; the determinant of F
    (conserved exactly by the flow) is checked at the endpoint against
    TOL_DET scaled by the squared entry size.
    """
    a, c = params.a, params.c
    validate_path(path, a)
    if F0 is None:
        F0 = np.eye(2, dtype=complex)
    det0 = F0[0, 0] * F0[1, 1] - F0[0, 1] * F0[1, 0]
    if abs(det0 - 1.0) > TOL_DET * max(1.0, float(np.max(np.abs(F0))) ** 2):
        raise DomainError("initial frame must have determinant 1")

    monitor = sheet_monitor(a)
    if on_step is not None:
        user = on_step

        def monitor_chain(z, y):
            monitor(z, y)
            user(z, y)

        hook = monitor_chain
    else:
        hook = monitor

    y = _rk.integrate_polyline(
        path.waypoints,
        (F0[0, 0], F0[0, 1], F0[1, 0], F0[1, 1], path.start.w),
        _joint_field(a, c),
        rel_tol=cfg.rel_tol,
        abs_tol=cfg.abs_tol,
        max_steps=cfg.max_steps,
        first_step=cfg.initial_step,
        on_step=hook,
    )
    F = np.array([[y[0], y[1]], [y[2], y[3]]], dtype=complex)
    end = CurvePoint(path.waypoints[-1], y[4])
    if end.sheet_residual(a) > TOL_SHEET:
        raise ContinuationError("endpoint sheet residual exceeded")
    det = F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0]
    if abs(det - 1.0) > TOL_DET * max(1.0, float(np.max(np.abs(F))) ** 2):
        raise ContinuationError(f"determinant drift {abs(det - 1.0):.3e}")
    return FrameState(end, F)


def _joint_field_lanes(a: float, cs: np.ndarray):
    """_joint_field for rows (F11, F12, F21, F22, w) with one column per c in cs.

    Uses F21' = F11' / w and F22' = F12' / w, which holds because alpha is
    rank one.
    """

    def field(z, u, y):
        w = y[4]
        out = np.empty_like(y)
        top = out[0:2]
        np.multiply(y[2:4], w, out=top)
        np.subtract(y[0:2], top, out=top)
        top *= cs * u
        np.divide(top, w, out=out[2:4])
        np.multiply(w, log_derivative(z, a) * u, out=out[4])
        return out

    return field


def integrate_frames_over_c(
    path: PathSpec,
    a: float,
    cs: np.ndarray,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Endpoint frames, shape (len(cs), 2, 2), of integrate_frame with F0 = I
    for every c in cs, integrated together with one lane per c.

    The checks of integrate_frame apply to every lane: the sheet residual of w
    at each accepted step and at the endpoint, and the determinant drift of
    each endpoint frame.  w does not depend on c, so the lanes carry the same
    w up to rounding.
    """
    validate_path(path, a)
    cs = np.asarray(cs, dtype=float)
    y0 = np.zeros((5, len(cs)), dtype=complex)
    y0[0] = y0[3] = 1.0
    y0[4] = path.start.w

    def sheet_excess(z, w) -> float:
        r = (z + 1) * (z - a) / ((z - 1) * (z + a))
        return float(np.max(np.abs(w * w - r))) - TOL_SHEET * (1.0 + abs(r))

    def monitor(z, y):
        if sheet_excess(z, y[4]) > 0.0:
            raise ContinuationError(f"sheet residual exceeded at z = {z}")

    y = _rk.integrate_polyline_lanes(
        path.waypoints,
        y0,
        _joint_field_lanes(a, cs),
        rel_tol=cfg.rel_tol,
        abs_tol=cfg.abs_tol,
        max_steps=cfg.max_steps,
        first_step=cfg.initial_step,
        on_step=monitor,
    )
    if sheet_excess(path.waypoints[-1], y[4]) > 0.0:
        raise ContinuationError("endpoint sheet residual exceeded")
    F = y[:4].T.reshape(-1, 2, 2)
    drift = np.abs(y[0] * y[3] - y[1] * y[2] - 1.0)
    bad = drift > TOL_DET * np.maximum(1.0, np.max(np.abs(y[:4]), axis=0)) ** 2
    if bad.any():
        raise ContinuationError(f"determinant drift {float(np.max(drift[bad])):.3e}")
    return F


def reference_frame(
    path: PathSpec,
    params: CurveParams,
    F0: np.ndarray | None = None,
    n_steps: int = 4000,
) -> FrameState:
    """Fixed-step RK4 reference integration for self-convergence oracles."""
    a = params.a
    validate_path(path, a)
    if F0 is None:
        F0 = np.eye(2, dtype=complex)
    y = _rk.integrate_polyline_rk4(
        path.waypoints,
        (F0[0, 0], F0[0, 1], F0[1, 0], F0[1, 1], path.start.w),
        _joint_field(a, params.c),
        n_steps,
    )
    F = np.array([[y[0], y[1]], [y[2], y[3]]], dtype=complex)
    return FrameState(CurvePoint(path.waypoints[-1], y[4]), F)


def scalar_ode_residual(
    path: PathSpec,
    params: CurveParams,
    samples: int = 50,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> float:
    """Defect of the second-order scalar equations satisfied by the rows of F.

    Row-one entries v obey  v'' - L v' + c L v = 0  and row-two entries obey
    v'' + L v' + c L v = 0,  with L = w'/w.  First and second derivatives are
    evaluated from the first-order system, so the residual is an algebraic
    identity and measures floating-point consistency only.  Returns the max
    over `samples` accepted integration states, scaled by max(1, |v''|).
    """
    a, c = params.a, params.c
    states = []

    def capture(z, y):
        states.append((z, y))

    integrate_frame(path, params, cfg=cfg, on_step=capture)
    if not states:
        return 0.0
    if len(states) > samples:
        idx = [int(round(i * (len(states) - 1) / (samples - 1))) for i in range(samples)]
        states = [states[i] for i in sorted(set(idx))]

    worst = 0.0
    for z, y in states:
        F11, F12, F21, F22, w = y
        lz = log_derivative(z, a)
        # first derivatives from dF = alpha F
        d11 = c * (F11 - w * F21)
        d12 = c * (F12 - w * F22)
        d21 = c * (F11 / w - F21)
        d22 = c * (F12 / w - F22)
        wp = w * lz
        # second derivatives by the product rule on the same system
        dd11 = c * (d11 - wp * F21 - w * d21)
        dd12 = c * (d12 - wp * F22 - w * d22)
        dd21 = c * (d11 / w - F11 * wp / (w * w) - d21)
        dd22 = c * (d12 / w - F12 * wp / (w * w) - d22)
        for v, dv, ddv, sign in (
            (F11, d11, dd11, -1.0),
            (F12, d12, dd12, -1.0),
            (F21, d21, dd21, +1.0),
            (F22, d22, dd22, +1.0),
        ):
            res = abs(ddv + sign * lz * dv + c * lz * v) / max(1.0, abs(ddv))
            worst = max(worst, res)
    return worst
