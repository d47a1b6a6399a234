"""Frame transport: integrate the linear system dF = alpha F along lifted paths.

With Gauss map G = w and Hopf coefficient c, the connection form is
alpha = c [[1, -w], [1/w, -1]] dz, which is trace free (determinant of F is
conserved) and nilpotent.  The frame and the sheet value w evolve jointly so
one error controller, set by cfg (_rk.IntegratorConfig, exported here with
DEFAULT_CONFIG), certifies both.
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
    end_point,
    log_derivative,
    log_derivative_of,
    rational_rhs_of,
    sheet_monitor,
    sheet_residual_of,
    validate_path,
)
from .errors import ContinuationError, DomainError, LanesFailed

# det F is conserved exactly by the trace-free flow; on the seven canonical
# paths at the four a = 2 roots the drift is at most 3.1e-11 of |F|^2 at
# rel_tol 1e-10, so 1e-9 flags only a real loss of accuracy.
TOL_DET = 1e-9


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

    L(z) is curve.log_derivative_of, without log_derivative's branch-distance
    guard: every caller runs validate_path first, and every stage point lies
    on a validated segment, so the guard could never fire here, while it took
    about a fifth of the field's time.
    """
    k = branch_offsets(a)

    def field(z, u, y):
        F11, F12, F21, F22, w = y
        iw = 1.0 / w
        cu = c * u
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
    """Endpoint frame of dF/ds = alpha(z, w) F dz/ds integrated jointly with w.

    The sheet residual is checked at every accepted step; the determinant of F
    (conserved exactly by the flow) is checked at the endpoint against
    TOL_DET scaled by the squared entry size.
    """
    a, c = params.a, params.c
    validate_path(path, a)
    F0 = _start_frame(F0)
    hook = monitor = sheet_monitor(a)
    if on_step is not None:

        def hook(z, y):
            monitor(z, y)
            on_step(z, y)

    y = _rk.integrate_polyline(
        path.waypoints,
        (F0[0, 0], F0[0, 1], F0[1, 0], F0[1, 1], path.start.w),
        _joint_field(a, c),
        cfg=cfg,
        on_step=hook,
    )
    F = np.array([[y[0], y[1]], [y[2], y[3]]], dtype=complex)
    end = end_point(path, y[4], a)
    drift, bad = _drifted(F.reshape(4))
    if bad:
        raise ContinuationError(f"scaled determinant drift {drift:.3e}")
    return FrameState(end, F)


def _joint_field_lanes(a: float, cs, scale=1.0, origin=0.0):
    """_joint_field for rows (F11, F12, F21, F22, w) with one column per lane.

    Lane j has the coefficient cs[j] (or the scalar cs) and follows the
    polyline origin[j] + scale[j] * z of the integration variable z, so its
    derivative is scale[j] times the field at origin[j] + scale[j] * z.
    origin and scale may be complex.  Seen from z the lane's branch points are
    those of the curve mapped back by the inverse of the lane map, and
    scale * L(origin + scale * z) is L(z) with those branch points: that is
    how L is evaluated, by log_derivative_of with
    curve.branch_offsets(a, scale, origin) and without log_derivative's guard,
    as in _joint_field.  A scalar origin and scale (the whole-path scan's 0
    and 1.0) evaluate L once per stage for all lanes in Python complex
    arithmetic, and at origin 0 and scale 1.0 it is log_derivative's,
    operation for operation.  cs * scale * u is formed once per segment.
    Uses F21' = F11' / w and F22' = F12' / w, which holds because alpha is
    rank one.
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
    validated: bool = False,
) -> tuple:
    """End states of integrate_frame for many lanes integrated together.

    Lane j has the coefficient cs[j], starts from the frame F0[j] (default I)
    with the sheet value w0[j] (default path.start.w), and follows the
    polyline origin[j] + scale[j] * path.waypoints; origin and scale may be
    complex, so a lane may follow any straight image of the path.  Each of
    cs, F0, w0, scale and origin is given per lane or once for all lanes.
    Returns the end frames, shape (n, 2, 2), and the end sheet values,
    shape (n,).

    The checks of integrate_frame apply to every lane: validate_path on the
    lane's mapped polyline (skipped when validated is true, for a caller that
    has run it already: build_mesh does so once per ring, not once per node,
    and integrate_frames_in_pieces once per path), the start determinant, the
    sheet residual of w at each accepted step and at the endpoint, and the
    determinant drift of each endpoint frame.  A lane that fails the sheet or
    drift check raises LanesFailed, naming every lane that fails it there;
    its message names the point of the curve, origin + scale * z, and the c
    of the first of them.  The lanes share one step sequence, so a
    StepLimitExceeded belongs to all of them.
    """
    cs = np.asarray(cs, dtype=float)
    F0 = np.eye(2, dtype=complex) if F0 is None else np.asarray(F0, dtype=complex)
    w0 = path.start.w if w0 is None else np.asarray(w0, dtype=complex)
    shape = np.broadcast_shapes(
        cs.shape, np.shape(scale), np.shape(origin), np.shape(w0), F0.shape[:-2]
    )
    n = shape[0] if shape else 1
    y0 = np.empty((5, n), dtype=complex)
    y0[:4] = np.broadcast_to(F0, (n, 2, 2)).reshape(n, 4).T
    y0[4] = w0
    if not validated:
        lanes = zip(*(np.broadcast_to(x, (n,)).tolist() for x in (origin, scale, y0[4])))
        for o, s, w in dict.fromkeys(lanes):
            validate_path(_mapped_path(path, o, s, w), a)
    if _drifted(y0)[1].any():
        raise DomainError("initial frame must have determinant 1")

    k = branch_offsets(a, scale, origin)

    def failed(message: str, z, bad: np.ndarray) -> LanesFailed:
        """LanesFailed for the lanes in bad, naming the first one's point of
        the curve and c."""
        lanes = np.flatnonzero(bad)
        o, s, c = (np.broadcast_to(x, (n,))[lanes[0]] for x in (origin, scale, cs))
        return LanesFailed(_where(message, o + s * z, c), lanes)

    def check_sheet(z, y) -> None:
        bad = sheet_residual_of(y[4], rational_rhs_of(z, k)) > TOL_SHEET
        if bad.any():
            raise failed("sheet residual exceeded", z, bad)

    y = _rk.integrate_polyline_lanes(
        path.waypoints,
        y0,
        _joint_field_lanes(a, cs, scale, origin),
        cfg=cfg,
        on_step=check_sheet,
    )
    check_sheet(path.waypoints[-1], y)
    drift, bad = _drifted(y)
    if bad.any():
        message = f"scaled determinant drift {float(drift[bad][0]):.3e}"
        raise failed(message, path.waypoints[-1], bad)
    return y[:4].T.reshape(-1, 2, 2), y[4]


def integrate_frames_in_pieces(
    path: PathSpec,
    a: float,
    cs,
    pieces: int,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> tuple:
    """integrate_frames_over_c(path, a, cs, cfg) from about `pieces` straight
    pieces of path integrated side by side in one lane pass.

    The frame equation is linear, so the frame along the path is the product
    of the pieces' transfer matrices, each piece integrated from I.  Each
    segment is cut into equal pieces, their number in proportion to its
    length and at least one.  Every (piece, c) pair is one lane over the unit
    segment, mapped onto its piece by origin + scale * z, and each c's
    transfer matrices are multiplied in path order.  With pieces <= 1 this is
    integrate_frames_over_c on the whole path, bit for bit.  Otherwise cfg's
    initial_step is a fraction of each piece and max_steps bounds the steps
    the one pass shares.

    The first piece starts at path.start.w, each later one at the principal
    square root of R at its start, and the previous piece's integrated end
    value must be nearer to that than to its negative, else
    ContinuationError: integration still decides the sheet.  The principal
    root is the continuation on the canonical half paths, since R maps the
    upper half plane, where they run, into itself.  The lanes keep the checks
    of integrate_frames_over_c after validate_path on the whole path, and
    each composed frame's determinant drift is checked too.  A failed check
    raises ContinuationError naming the point of the curve and the c of the
    first failing lane; StepLimitExceeded propagates as it is.
    """
    cs = np.asarray(cs, dtype=float)
    points = _cut(path.waypoints, pieces)
    try:
        if pieces <= 1 or points.size < 3:
            return integrate_frames_over_c(path, a, cs, cfg)
        validate_path(path, a)
        start, n = points[:-1], cs.size
        w0 = np.sqrt(rational_rhs_of(start, branch_offsets(a)))
        w0[0] = path.start.w
        unit = PathSpec(CurvePoint(0j, w0[0]), (0j, 1 + 0j))
        F, w = integrate_frames_over_c(
            unit, a, np.tile(cs, start.size), cfg, w0=np.repeat(w0, n),
            scale=np.repeat(np.diff(points), n), origin=np.repeat(start, n), validated=True,
        )
    except LanesFailed as exc:
        raise ContinuationError(exc.reason) from exc
    w = w.reshape(-1, n)
    flipped = np.abs(w[:-1] - w0[1:, None]) >= np.abs(w[:-1] + w0[1:, None])
    if flipped.any():
        p, j = np.argwhere(flipped)[0]
        raise ContinuationError(_where("w arrived on the other sheet", start[p + 1], cs[j]))
    T = F.reshape(-1, n, 4).transpose(0, 2, 1)
    product = tuple(T[0])
    for t in T[1:]:
        product = _rk._mul(tuple(t), product)
    product = np.array(product)
    drift, bad = _drifted(product)
    if bad.any():
        j = np.flatnonzero(bad)[0]
        message = f"scaled determinant drift {float(drift[j]):.3e}"
        raise ContinuationError(_where(message, path.waypoints[-1], cs[j]))
    return product.T.reshape(n, 2, 2), w[-1]


def _where(message: str, z, c) -> str:
    """message, naming the point z of the curve and the coefficient c."""
    return f"{message} at z = {complex(z)} for c = {float(c)}"


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


def _mapped_path(path: PathSpec, origin: complex, scale: complex, w: complex) -> PathSpec:
    """The image origin + scale * z of path, starting on the sheet value w."""
    return PathSpec(
        CurvePoint(origin + scale * path.start.z, w),
        tuple(origin + scale * z for z in path.waypoints),
        path.closed,
    )


def _start_frame(F0: np.ndarray | None) -> np.ndarray:
    """F0, or I when it is None; raises DomainError unless det F0 = 1 within
    TOL_DET scaled by the squared entry size."""
    if F0 is None:
        return np.eye(2, dtype=complex)
    if _drifted(F0.reshape(4))[1]:
        raise DomainError("initial frame must have determinant 1")
    return F0


def _linear_field(a: float, c: float) -> tuple:
    """(rate, matrix) of the frame equation for integrate_polyline_rk4:
    dw/ds = L(z) u w and dF/ds = c u [[1, -w], [1/w, -1]] F, on arrays of
    points and sheet values, with L unguarded as in _joint_field."""
    k = branch_offsets(a)

    def rate(z, u):
        return log_derivative_of(z, k) * u

    def matrix(z, u, w):
        cu = c * u
        return cu, -cu * w, cu / w, -cu

    return rate, matrix


def reference_frame(
    path: PathSpec,
    params: CurveParams,
    F0: np.ndarray | None = None,
    n_steps: int = 4000,
) -> FrameState:
    """Fixed-step RK4 reference integration for self-convergence oracles.

    Checks the start frame as integrate_frame does and the sheet residual of
    the end value of w; the determinant of the end frame is not checked, since
    RK4 conserves it only to its truncation error.
    """
    a = params.a
    validate_path(path, a)
    F, w = _rk.integrate_polyline_rk4(
        path.waypoints, _start_frame(F0), path.start.w, *_linear_field(a, params.c), n_steps
    )
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
