"""Frame transport: integrate the linear system dF = alpha F along lifted paths.

With Gauss map G = w and Hopf coefficient c, the connection form is
alpha = c [[1, -w], [1/w, -1]] dz, which is trace free (determinant of F is
conserved) and nilpotent.  The adaptive kernels integrate the frame and the
sheet value w jointly, so one error controller, set by cfg
(_rk.IntegratorConfig, exported here with DEFAULT_CONFIG), certifies both.
integrate_frames_over_c runs them, the scalar kernel for one lane and the
lane kernel for many, and states each check once for both: the start frame
(_start_frame), the sheet residual of w at every accepted step and at the
end, and the determinant drift of the end frame (_check_drift).  A failed
sheet or drift check raises LanesFailed naming the point of the curve and
the c.  integrate_frame is its one-lane case after validate_path, and
integrate_frames_in_pieces composes lane passes over the pieces of a path.
The fixed-step RK4 reference, reference_frame, integrates the frame alone,
with w continued in closed form by curve.continue_w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _rk
from ._rk import DEFAULT_CONFIG, IntegratorConfig
from .curve import (
    TOL_SHEET,
    CurveParams,
    CurvePoint,
    PathSpec,
    branch_offsets,
    continue_w,
    end_point,
    log_derivative,
    log_derivative_of,
    rational_rhs_of,
    sheet_residual_of,
    validate_path,
)
from .errors import DomainError, LanesFailed

# det F is conserved exactly by the trace-free flow; on the seven canonical
# paths at the four a = 2 roots the drift is at most 3.1e-11 of |F|^2 at
# rel_tol 1e-10, so 1e-9 flags only a real loss of accuracy.
TOL_DET = 1e-9


@dataclass(frozen=True)
class FrameState:
    point: CurvePoint
    F: np.ndarray


def _joint_field(a: float, c: float, scale=1.0, origin=0.0):
    """Field of (F11, F12, F21, F22, w) for the scalar kernel, along the
    image origin + scale * z of the polyline of z (origin, scale complex).

    Its derivative is scale times the field at origin + scale * z, and
    scale * L(origin + scale * z) is L(z) with the branch points mapped back,
    so L is log_derivative_of with curve.branch_offsets(a, scale, origin):
    at origin 0 and scale 1.0 log_derivative's L, operation for operation,
    without its branch-distance guard.  Callers validate the path, so the
    guard could never fire here, while it took a fifth of the field's time.
    """
    k = branch_offsets(a, scale, origin)
    c_s = c * scale

    def field(z, u, y):
        F11, F12, F21, F22, w = y
        iw = 1.0 / w
        cu = c_s * u
        return (
            cu * (F11 - w * F21),
            cu * (F12 - w * F22),
            cu * (F11 * iw - F21),
            cu * (F12 * iw - F22),
            w * log_derivative_of(z, k) * u,
        )

    return field


def integrate_frame(
    path: PathSpec,
    params: CurveParams,
    F0: np.ndarray | None = None,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    on_step=None,
) -> FrameState:
    """End state of the frame from F0 (default I) along path, after
    validate_path: integrate_frames_over_c's one-lane case, on the scalar
    kernel and with its checks."""
    validate_path(path, params.a)
    F, w = integrate_frames_over_c(path, params.a, params.c, cfg, F0=F0, on_step=on_step)
    return FrameState(CurvePoint(path.waypoints[-1], w), F)


def _joint_field_lanes(a: float, cs, scale=1.0, origin=0.0):
    """_joint_field for rows (F11, F12, F21, F22, w), one column per lane:
    lane j has cs[j] and follows origin[j] + scale[j] * z, each given per
    lane or once.  A scalar origin and scale evaluate L once per stage for
    all lanes in Python complex arithmetic.  cs * scale * u is formed once
    per segment.  Uses F21' = F11' / w and F22' = F12' / w, which holds
    because alpha is rank one.
    """
    cs_s = cs * scale
    k = branch_offsets(a, scale, origin)
    segment_u = cs_u = None  # the direction of the current segment, cs_s * it

    def field(z, u, y):
        nonlocal segment_u, cs_u
        if u != segment_u:
            segment_u, cs_u = u, cs_s * u
        w = y[4]
        out = np.empty_like(y)
        top = out[0:2]
        np.multiply(y[2:4], w, out=top)
        np.subtract(y[0:2], top, out=top)
        top *= cs_u
        np.divide(top, w, out=out[2:4])
        np.multiply(w, log_derivative_of(z, k) * u, out=out[4])
        return out

    return field


def integrate_frames_over_c(
    path: PathSpec,
    a: float,
    cs,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    *,
    F0: np.ndarray | None = None,
    w0=None,
    scale=1.0,
    origin=0.0,
    on_step=None,
) -> tuple:
    """End frames and sheet values of dF/ds = alpha(z, w) F dz/ds integrated
    jointly with w, one lane per c.

    Lane j has the coefficient cs[j], starts from the frame F0[j] (default I)
    with the sheet value w0[j] (default path.start.w), and follows the
    polyline origin[j] + scale[j] * path.waypoints (origin and scale may be
    complex).  Each of cs, F0, w0, scale and origin is given per lane or
    once.  Given all once, the lane runs on the scalar kernel and the result
    is the end frame, shape (2, 2), and sheet value; else the lanes share
    the lane kernel's step sequence and the results have shapes (n, 2, 2)
    and (n,).  on_step, when given, is called with (z, y) after every
    accepted step, y holding (F11, F12, F21, F22, w).

    The caller validates every lane's polyline (validate_path).  Checked
    here: the start frame (_start_frame), the sheet residual at every
    accepted step and at the end, and the end frame's drift (_check_drift).
    A failed sheet or drift check raises LanesFailed naming the point of the
    curve, origin + scale * z, and the c of the first failing lane.  A
    StepLimitExceeded belongs to all lanes.
    """
    cs = np.asarray(cs, dtype=float)
    F0 = _start_frame(F0)
    w0 = path.start.w if w0 is None else w0
    shape = np.broadcast(cs, scale, origin, w0, F0[..., 0, 0]).shape
    k = branch_offsets(a, scale, origin)

    def check_sheet(z, y) -> None:
        bad = sheet_residual_of(y[4], rational_rhs_of(z, k)) > TOL_SHEET
        # a Python bool on the scalar kernel: no numpy call per step there
        if bad is True or bad is not False and bad.any():
            raise _failed("sheet residual exceeded", z, bad, cs, scale, origin)

    hook = check_sheet
    if on_step is not None:

        def hook(z, y):
            check_sheet(z, y)
            on_step(z, y)

    if shape:
        y0 = np.empty((5,) + shape, dtype=complex)
        y0[:4] = np.broadcast_to(F0, shape + (2, 2)).reshape(shape + (4,)).T
        y0[4] = w0
        field, kernel = _joint_field_lanes(a, cs, scale, origin), _rk.integrate_polyline_lanes
    else:
        y0 = (*F0.reshape(4).tolist(), w0)
        field, kernel = _joint_field(a, float(cs), scale, origin), _rk.integrate_polyline
    y = kernel(path.waypoints, y0, field, cfg=cfg, on_step=hook)
    check_sheet(path.waypoints[-1], y)
    _check_drift(y, path.waypoints[-1], cs, scale, origin)
    return np.asarray(y[:4]).T.reshape(shape + (2, 2)), y[4]


def integrate_frames_in_pieces(
    path: PathSpec,
    a: float,
    cs,
    pieces: int,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> tuple:
    """integrate_frames_over_c(path, a, cs, cfg) after validate_path, from
    about `pieces` straight pieces of path integrated side by side in one
    lane pass.

    The frame equation is linear, so the frame along the path is the product
    of the pieces' transfer matrices, each piece integrated from I.  Each
    segment is cut into equal pieces, their number in proportion to its
    length and at least one.  Every (piece, c) pair is one lane over the unit
    segment, mapped onto its piece by origin + scale * z, and each c's
    transfer matrices are multiplied in path order.  With pieces <= 1 this is
    integrate_frames_over_c on the whole path, bit for bit.  Otherwise cfg's
    initial_step is a fraction of each piece and max_steps bounds the steps
    the one pass shares.

    Each piece starts at the value of w continued in closed form
    (curve.continue_w) from path.start to its first point, and the previous
    piece's integrated end value must be nearer to that than to its
    negative.  That check, the lanes' checks and the drift check of each
    composed frame raise LanesFailed naming the point of the curve and the c.
    """
    validate_path(path, a)
    cs = np.asarray(cs, dtype=float)
    points = _cut(path.waypoints, pieces)
    if pieces <= 1 or points.size < 3:
        return integrate_frames_over_c(path, a, cs, cfg)
    start, n = points[:-1], cs.size
    # w's factor over each piece: the unit segment through the piece's lane map
    steps = continue_w((0.0, 1.0), 1.0, branch_offsets(a, np.diff(start), start[:-1]))
    w0 = path.start.w * np.cumprod(np.concatenate(([1.0], steps)))
    unit = PathSpec(CurvePoint(0j, w0[0]), (0j, 1 + 0j))
    F, w = integrate_frames_over_c(
        unit, a, np.tile(cs, start.size), cfg, w0=np.repeat(w0, n),
        scale=np.repeat(np.diff(points), n), origin=np.repeat(start, n),
    )
    w = w.reshape(-1, n)
    flipped = np.abs(w[:-1] - w0[1:, None]) >= np.abs(w[:-1] + w0[1:, None])
    if flipped.any():
        p = np.flatnonzero(flipped.any(axis=1))[0]
        raise _failed("w arrived on the other sheet", start[p + 1], flipped[p], cs)
    T = F.reshape(-1, n, 4).transpose(0, 2, 1)
    product = tuple(T[0])
    for t in T[1:]:
        product = _rk._mul(tuple(t), product)
    product = np.array(product)
    _check_drift(product, path.waypoints[-1], cs)
    return product.T.reshape(n, 2, 2), w[-1]


def _failed(message: str, z, bad, cs, scale=1.0, origin=0.0) -> LanesFailed:
    """LanesFailed for the lanes where bad is true, its message naming the
    first one's point of the curve, origin + scale * z, and c."""
    lanes = np.flatnonzero(bad)
    o, s, c = (np.broadcast_to(x, np.shape(bad)).flat[lanes[0]] for x in (origin, scale, cs))
    return LanesFailed(f"{message} at z = {complex(o + s * z)} for c = {float(c)}", lanes)


def _cut(waypoints: tuple, pieces: int) -> np.ndarray:
    """The ends of the pieces of integrate_frames_in_pieces along the polyline."""
    segments = [(p, q) for p, q in zip(waypoints[:-1], waypoints[1:]) if q != p]
    total = sum(abs(q - p) for p, q in segments)
    points = [waypoints[0]]
    for p, q in segments:
        m = max(1, round(pieces * abs(q - p) / total))
        points += [p + (q - p) * (i / m) for i in range(1, m)] + [q]
    return np.array(points, dtype=complex)


def _drifted(y: np.ndarray) -> tuple:
    """|det F - 1| / max(1, max |F_ij|)^2 of the frame (F11, F12, F21, F22) in
    the first four rows of y, per lane when y has a lane axis, and whether it
    exceeds TOL_DET: the one statement of the determinant rule."""
    scale = np.maximum(1.0, np.max(np.abs(y[:4]), axis=0)) ** 2
    drift = np.abs(y[0] * y[3] - y[1] * y[2] - 1.0) / scale
    return drift, drift > TOL_DET


def _check_drift(y, z, cs, scale=1.0, origin=0.0) -> None:
    """The one end drift check: LanesFailed where the frames in y, reached at
    origin + scale * z, break the determinant rule."""
    drift, bad = _drifted(y)
    if bad.any():
        first = float(np.ravel(drift)[np.flatnonzero(bad)[0]])
        raise _failed(f"scaled determinant drift {first:.3e}", z, bad, cs, scale, origin)


def _start_frame(F0) -> np.ndarray:
    """The one start check: F0 as a complex array, or I when it is None;
    DomainError unless each frame in it keeps the determinant rule."""
    if F0 is None:
        return np.eye(2, dtype=complex)
    F0 = np.asarray(F0, dtype=complex)
    if _drifted(F0.reshape(-1, 4).T)[1].any():
        raise DomainError("initial frame must have determinant 1")
    return F0


def _linear_field(path: PathSpec, a: float, c: float) -> tuple:
    """(matrix, w_end) of the frame equation along path for integrate_polyline_rk4.

    matrix(i, z, u) gives the components of c u [[1, -w], [1/w, -1]] at the
    points z of segment i, w being continued by continue_w from the segment's
    first waypoint, where it was continued waypoint by waypoint from
    path.start; w_end is its value at the last waypoint.  k as a (4, 1) array
    takes numpy's sqrt over the array z."""
    k = branch_offsets(a)
    w = [path.start.w]
    for p, q in zip(path.waypoints[:-1], path.waypoints[1:]):
        w.append(continue_w((p, q), w[-1], k))
    k_points = np.array(k)[:, None]

    def matrix(i, z, u):
        w_z = continue_w((path.waypoints[i], z), w[i], k_points)
        cu = c * u
        return cu, -cu * w_z, cu / w_z, -cu

    return matrix, w[-1]


def reference_frame(
    path: PathSpec,
    params: CurveParams,
    F0: np.ndarray | None = None,
    n_steps: int = 4000,
) -> FrameState:
    """Fixed-step RK4 reference integration of the frame for self-convergence
    oracles, with w in closed form (curve.continue_w), not integrated.

    Checks the start frame as integrate_frame does, and end_point checks that
    the end value of w lies on the curve; the determinant of the end frame is
    not checked, since RK4 conserves it only to its truncation error.
    """
    a = params.a
    validate_path(path, a)
    matrix, w = _linear_field(path, a, params.c)
    F = _rk.integrate_polyline_rk4(path.waypoints, _start_frame(F0), matrix, n_steps)
    return FrameState(end_point(path, w, a), F)


def scalar_ode_residual(
    path: PathSpec,
    params: CurveParams,
    samples: int = 50,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> float:
    """row_equation_residual of the accepted states of integrate_frame along
    path from the identity."""
    states = []
    integrate_frame(path, params, cfg=cfg, on_step=lambda z, y: states.append((z, y)))
    return row_equation_residual(states, params, samples)


def row_equation_residual(states: list, params: CurveParams, samples: int = 50) -> float:
    """Defect of the second-order scalar equations satisfied by the rows of F.

    Row-one entries v obey  v'' - L v' + c L v = 0  and row-two entries obey
    v'' + L v' + c L v = 0,  with L = w'/w.  First and second derivatives are
    evaluated from the first-order system, so the residual is an algebraic
    identity and measures floating-point consistency only.  states are the
    (z, (F11, F12, F21, F22, w)) of an integration at params, as integrate_frame
    passes them to on_step.  Returns the max over `samples` of them, evenly
    spaced, scaled by max(1, |v''|).
    """
    a, c = params.a, params.c
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
