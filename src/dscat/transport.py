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
the c.  integrate_frame is its one-lane case after validate_path.

The scan's kernel, transfer, integrates the frame alone by sixth-order Magnus
steps on a grid shared by many c, with w continued in closed form by
curve.continue_w: the frame equation is linear, so each step is a transfer
matrix exp(Omega) of determinant 1, and there is no sheet to monitor.  The
fixed-step RK4 reference, reference_frame, integrates the frame alone too,
with w continued the same way.  All four return (F, w): the end frame, or
frames, and the end sheet value, or values.
"""

from __future__ import annotations

import math

import numpy as np

from . import _rk
from ._rk import DEFAULT_CONFIG, IntegratorConfig
from .curve import (
    TOL_SHEET,
    CurveParams,
    PathSpec,
    branch_offsets,
    branch_points,
    continue_w,
    end_point,
    log_derivative,
    log_derivative_of,
    rational_rhs_of,
    sheet_residual_of,
    validate_path,
)
from .errors import DomainError, LanesFailed, StepLimitExceeded

# det F is conserved exactly by the trace-free flow; on the seven canonical
# paths at the four a = 2 roots the drift is at most 3.1e-11 of |F|^2 at
# rel_tol 1e-10, so 1e-9 flags only a real loss of accuracy.  transfer's
# steps each keep it to rounding: on c1 and c2 for 180 c over [-12, 6] at
# a = 1.3, 2 and 5 its drift is at most 3.0e-14.
TOL_DET = 1e-9

# The Magnus grid of transfer.  A segment's first grid has steps of
# MAGNUS_STEP times the distance to the nearest branch point, divided by
# sqrt(max(1, |c|)) for the largest |c| of the call, placed by sampling that
# rule at _GRID_SAMPLES points of the segment.  Refinement then splits each
# step whose estimate (see _magnus_terms) exceeds MAGNUS_TOL * (rel_tol +
# abs_tol): an error in Omega is a relative error of F, as rel_tol + abs_tol
# is of a DP5 step at |F| = 1, and the estimate, the fourth-order Omega's
# error, exceeds the sixth-order one's by far.  tools/scan_accuracy.py, for
# 180 c over [-12, 6], gives the worst error (c1 / c2) against DP5 at
# rel_tol 1e-13, relative to max(1, |F|), and the refined grid's steps:
#
#     a     transfer             DP5 default          Magnus steps
#     1.3   1.1e-13 / 2.1e-13    1.1e-11 / 4.3e-12    254 / 277
#     2     3.8e-13 / 1.8e-11    1.1e-11 / 2.7e-10    305 / 515
#     5     8.4e-14 / 4.7e-11    5.4e-12 / 2.8e-10    446 / 1189
#
# At MAGNUS_TOL = 100, c2 at a = 2 and 5 is less accurate than DP5 default
# (3.0e-10, 1.2e-9); at 1 the grids take 1.5 times the steps.  The first
# grid is 3-6 times as coarse as the refined one, whose steps MAGNUS_STEP =
# 0.1 or 0.4 change by 4-9%.
MAGNUS_STEP = 0.2
MAGNUS_TOL = 10.0
_GRID_SAMPLES = 256
# Steps x lanes whose matrices transfer forms at once: its work arrays
# hold one block, so memory stays flat however many steps and c a call takes.
# At 1 << 14 the peak RSS of a 2600-point scan at a = 2 rose from 32.1 to
# 34.9 MB (the worker's from 26.4 to 29.4 MB), with no gain in speed.
MAGNUS_BLOCK = 1 << 12
# Most steps whose product transfer forms pairwise before it applies the
# product to the frames (see transfer for why).
MAGNUS_RUN = 128
# The Gauss-Legendre points of a Magnus step, as fractions of the step.
_GAUSS = np.array((0.5 - math.sqrt(15) / 10, 0.5, 0.5 + math.sqrt(15) / 10))
# Largest |s^2| at which _step_matrices sums exp(Omega) as a series; on the
# default grids |s^2| stays below 1e-7.
_SERIES_S2 = 1e-5


def _joint_field(a: float, c: float, scale=1.0):
    """Field of (F11, F12, F21, F22, w) for the scalar kernel, along the
    image scale * z of the polyline of z (scale complex).

    Its derivative is scale times the field at scale * z, and
    scale * L(scale * z) is L(z) with the branch points mapped back, so L is
    log_derivative_of with curve.branch_offsets(a, scale): at scale 1.0
    log_derivative's L, operation for operation, without its branch-distance
    guard.  Callers validate the path, so the guard could never fire here,
    while it took a fifth of the field's time.

    The field carries (c * scale, k) as its attribute frame, from which
    _rk.integrate_polyline makes its fused step (_rk._frame_step): that step
    evaluates this field itself, with these operations in this order, and
    calls it only for k1 at the start of each segment.  Wrapped in a plain
    function, as the benchmark's tracer wraps it to count its calls until it
    counts work by role (ROADMAP item 12), the field loses the attribute and
    runs on the generic step, _rk._dp5_step5, the plain stage loop, with the
    same bits; no untraced integration does.
    """
    k = branch_offsets(a, scale)
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

    field.frame = (c_s, k)
    return field


def integrate_frame(
    path: PathSpec,
    params: CurveParams,
    F0: np.ndarray | None = None,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    on_step=None,
) -> tuple:
    """(F, w): the end frame, shape (2, 2), from F0 (default I) along path
    and the end sheet value, after validate_path: integrate_frames_over_c's
    one-lane case, on the scalar kernel and with its checks."""
    validate_path(path, params.a)
    return integrate_frames_over_c(path, params.a, params.c, cfg, F0=F0, on_step=on_step)


def integrate_frames_over_c(
    path: PathSpec,
    a: float,
    cs,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    *,
    F0: np.ndarray | None = None,
    w0=None,
    scale=1.0,
    on_step=None,
) -> tuple:
    """End frames and sheet values of dF/ds = alpha(z, w) F dz/ds integrated
    jointly with w, one lane per c.

    Lane j has the coefficient cs[j], starts from the frame F0[j] (default I)
    with the sheet value w0[j] (default path.w0), and follows the polyline
    scale[j] * path.waypoints (scale may be complex).  Each of cs, F0, w0
    and scale is given per lane or once.  Given all once, the lane runs on
    the scalar kernel and the result (F, w) is the end frame, shape (2, 2),
    and sheet value; else the lanes share the lane kernel's step sequence,
    each with the branch offsets of its own scale, also where scale is given
    once, and F and w have shapes (n, 2, 2) and (n,).
    on_step, when given, is called with (z, y) after every accepted step, y
    holding (F11, F12, F21, F22, w).

    The caller validates every lane's polyline (validate_path).  Checked
    here: the start frame (_start_frame), the sheet residual at every
    accepted step and at the end, and the end frame's drift (_check_drift).
    A failed sheet or drift check raises LanesFailed naming the point of the
    curve, scale * z, and the c of the first failing lane.  A
    StepLimitExceeded, a step budget or a step size underflow, belongs to
    all lanes and names the first lane's point of the curve and c.
    """
    cs = np.asarray(cs, dtype=float)
    F0 = _start_frame(F0)
    w0 = path.w0 if w0 is None else w0
    shape = np.broadcast(cs, scale, w0, F0[..., 0, 0]).shape
    k = branch_offsets(a, np.broadcast_to(scale, shape))

    def check_sheet(z, y) -> None:
        bad = sheet_residual_of(y[4], rational_rhs_of(z, k)) > TOL_SHEET
        # a Python bool on the scalar kernel: no numpy call per step there
        if bad is True or bad is not False and bad.any():
            raise _failed("sheet residual exceeded", z, bad, cs, scale)

    hook = check_sheet
    if on_step is not None:

        def hook(z, y):
            check_sheet(z, y)
            on_step(z, y)

    if shape:
        y0 = np.empty((5,) + shape, dtype=complex)
        y0[:4] = np.broadcast_to(F0, shape + (2, 2)).reshape(shape + (4,)).T
        y0[4] = w0
        kernel, args = _rk.integrate_polyline_lanes, (cs * scale, k)
    else:
        y0 = (*F0.reshape(4).tolist(), w0)
        kernel, args = _rk.integrate_polyline, (_joint_field(a, float(cs), scale),)
    try:
        y = kernel(path.waypoints, y0, *args, cfg=cfg, on_step=hook)
    except StepLimitExceeded as exc:
        if exc.z is None:
            raise
        s, c = (np.ravel(x)[0] for x in (scale, cs))  # the first lane's
        raise StepLimitExceeded(f"{exc} at z = {complex(s * exc.z)} for c = {float(c)}") from None
    check_sheet(path.waypoints[-1], y)
    _check_drift(y, path.waypoints[-1], cs, scale)
    return np.asarray(y[:4]).T.reshape(shape + (2, 2)), y[4]


def transfer(path: PathSpec, a: float, cs, cfg: IntegratorConfig = DEFAULT_CONFIG) -> tuple:
    """(F, w): the end frames from I along path, one for each c of the 1-d
    array cs, shape (n, 2, 2), and the end value of w, after validate_path:
    sixth-order Magnus steps on one grid for all c.

    A step from z0 by dz maps F to exp(Omega) F, Omega being formed from
    A = c dz [[1, -w], [1/w, -1]] at the step's three Gauss points (Blanes,
    Casas & Ros, BIT 2000), with w continued to them in closed form
    (curve.continue_w).  Omega is traceless, so exp(Omega) has determinant 1.
    It is a polynomial of degree 5 in c whose coefficients depend on the
    step alone (_magnus_terms), so the grid is settled before any c is
    taken: each segment starts from its first grid (_first_grid) and is
    refined (_refine) where the embedded fourth-order Omega may differ from
    the sixth-order one by more than MAGNUS_TOL * (cfg.rel_tol + cfg.abs_tol)
    for some |c| up to max |cs|.  More than _rk.MAX_STEPS steps in all raise
    StepLimitExceeded.

    The step matrices are formed and multiplied pairwise, by component
    (_rk._mul; not by numpy's matrix product, see _rk._STAGE_W), in blocks
    of at most MAGNUS_RUN steps and MAGNUS_BLOCK steps x lanes, and the
    frames are carried through the blocks' products one after the other.  A
    product of two long stretches, where the frame grows and shrinks again
    along the path, loses the digits that their sizes cancel: at a = 5 on
    c2, where |F| reaches 1e5, f2 at c = -10.6 came out 6e-10 to 9.7e-10 off
    with products of 32 to 256 steps, and 2.8e-8 off with products of 606.
    _check_drift checks the end frames: every step has determinant 1 up to
    rounding, so only the rounding of the product can move it.  end_point
    checks the end value of w.
    """
    validate_path(path, a)
    cs = np.asarray(cs, dtype=float)
    lanes = cs.astype(complex)
    c_max = float(np.max(np.abs(cs)))
    k = branch_offsets(a)
    w = _waypoint_w(path, k)
    grid = _first_grid(path, a, c_max, cs)
    tol = MAGNUS_TOL * (cfg.rel_tol + cfg.abs_tol)
    M = _refine(np.array(path.waypoints), np.array(w), k, *grid, c_max, tol, cs)
    block = max(1, min(MAGNUS_RUN, MAGNUS_BLOCK // cs.size))
    one, zero = np.ones(cs.size, dtype=complex), np.zeros(cs.size, dtype=complex)
    F = (one, zero, zero, one)
    # a frame that overflows goes on as inf or NaN and fails the drift check
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(0, M.shape[2], block):
            F = _rk._mul(_rk._chain_product(_step_matrices(M[:, :, j : j + block], lanes)), F)
    F = np.array(F)
    _check_drift(F, path.waypoints[-1], cs)
    return F.T.reshape(-1, 2, 2), end_point(path, w[-1], a).w


def _waypoint_w(path: PathSpec, k) -> list:
    """w at each waypoint of path, continued segment by segment from
    path.w0 by curve.continue_w with the branch offsets k."""
    w = [path.w0]
    for p, q in zip(path.waypoints[:-1], path.waypoints[1:]):
        w.append(continue_w((p, q), w[-1], k))
    return w


def _first_grid(path: PathSpec, a: float, c_max: float, cs) -> tuple:
    """(segment, t0, dt) of each step of the first Magnus grids of path's
    segments of nonzero length, before refinement, in path order: the index
    of the segment's first waypoint, and the step's start and length as
    fractions of the segment.

    The steps are MAGNUS_STEP times the distance to the nearest branch point
    divided by sqrt(max(1, c_max)): wanted holds the number of such steps
    from a segment's start to each of the _GRID_SAMPLES fractions t of it,
    by the trapezoid rule, and the segment takes n = ceil(wanted[-1]) steps,
    at least one, ending where wanted passes the multiples of wanted[-1] / n.
    More than _rk.MAX_STEPS steps raise StepLimitExceeded before any is placed."""
    wp = np.array(path.waypoints)
    i = np.flatnonzero(wp[1:] != wp[:-1])
    p, along = wp[i, None], (wp[i + 1] - wp[i])[:, None]
    t = np.linspace(0.0, 1.0, _GRID_SAMPLES)
    near = np.min(np.abs((p + along * t)[..., None] - np.array(branch_points(a))), axis=2)
    density = np.hypot(along.real, along.imag) * (math.sqrt(max(1.0, c_max)) / MAGNUS_STEP) / near
    wanted = np.cumsum(density[:, 1:] + density[:, :-1], axis=1) * (0.5 * t[1])
    wanted = np.pad(wanted, ((0, 0), (1, 0)))
    n = np.maximum(1.0, np.ceil(wanted[:, -1]))
    counts = np.cumsum(n)
    if counts.size and counts[-1] > _rk.MAX_STEPS:
        raise _too_many(path.waypoints[i[np.argmax(counts > _rk.MAX_STEPS)] + 1], cs)
    n = n.astype(int)
    t0, dt = [np.zeros(0)], [np.zeros(0)]
    for row, m in zip(wanted, n.tolist()):
        ends = np.interp(np.arange(m + 1) * (row[-1] / m), row, t)
        ends[0], ends[-1] = 0.0, 1.0
        t0.append(ends[:-1])
        dt.append(np.diff(ends))
    return np.repeat(i, n), np.concatenate(t0), np.concatenate(dt)


def _refine(points, w, k, segment, t0, dt, c_max, tol, cs) -> np.ndarray:
    """_magnus_terms' coefficients of the steps (segment, t0, dt) of
    _first_grid along the polyline points, where w holds w at each point,
    shape (5, 3, m), in path order, after each step whose estimate exceeds
    tol was split into ceil(1.05 (estimate / tol)^(1/5)) equal steps, again
    until none does.  The estimate is of fifth order in the step; the factor
    1.05 keeps the split steps from failing again by a hair (without it, up
    to 6 of a segment's split steps missed by up to 11%, costing a pass).
    More than _rk.MAX_STEPS steps raise StepLimitExceeded."""
    kept_M, kept_segment, kept_t0 = [], [], []
    while not kept_M or t0.size:  # once at least, for a path without steps
        p = points[segment]
        along = points[segment + 1] - p
        M, estimate = _magnus_terms(p + along * t0, along * dt, p, w[segment], k, c_max)
        bad = estimate > tol
        kept_M.append(M[:, :, ~bad])
        kept_segment.append(segment[~bad])
        kept_t0.append(t0[~bad])
        parts = np.ceil(1.05 * (estimate[bad] / tol) ** 0.2)
        held = np.bincount(np.concatenate(kept_segment), minlength=points.size)
        held = np.cumsum(held + np.bincount(segment[bad], parts, minlength=points.size))
        if held[-1] > _rk.MAX_STEPS:
            raise _too_many(points[np.argmax(held > _rk.MAX_STEPS) + 1], cs)
        parts = parts.astype(int)
        first = np.repeat(np.cumsum(parts) - parts, parts)
        dt = np.repeat(dt[bad] / parts, parts)
        t0 = np.repeat(t0[bad], parts) + (np.arange(first.size) - first) * dt
        segment = np.repeat(segment[bad], parts)
    order = np.lexsort((np.concatenate(kept_t0), np.concatenate(kept_segment)))
    return np.concatenate(kept_M, axis=2)[:, :, order]


def _too_many(z, cs) -> StepLimitExceeded:
    """StepLimitExceeded naming z, the end of the segment where a Magnus grid
    passed _rk.MAX_STEPS steps, and the c of largest modulus, which sets it."""
    c, n = float(np.ravel(cs)[np.argmax(np.abs(cs))]), _rk.MAX_STEPS
    return StepLimitExceeded(f"Magnus grid exceeds {n} steps by z = {complex(z)} for c = {c}")


def _magnus_terms(z0, dz, p, w_p, k, c_max) -> tuple:
    """(M, estimate) of the Magnus steps from the points z0 by dz, each on a
    segment from the point p where w = w_p (arrays over the steps).

    M[j - 1], shape (3, m), is the coefficient of c^j in the sixth-order
    Omega, the matrices given as rows (d, x, y) of [[d, x], [y, -d]].  With
    B_i = dz [[1, -w_i], [1/w_i, -1]] at the Gauss points, b1 = B_2,
    b2 = sqrt(15)/3 (B_3 - B_1), b3 = 10/3 (B_3 - 2 B_2 + B_1) and
    a_i = c b_i, Blanes, Casas & Ros give

        Omega6 = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2] / 240,
        C1 = [a1, a2],  C2 = -[a1, 2 a3 + C1] / 60,

    and the fourth-order Omega4 = a1 + a3/12 - [a1, a2]/12 from the same
    points.  So with K_ij = [b_i, b_j], L = [b1, K12] and X = -20 b1 - b3:

        M1 = b1 + b3/12              M2 = -K12/12 + K23/240
        M3 = ([K12, b2] - [X, K13]/30) / 240
        M4 = -([X, L]/60 + [K12, K13]/30) / 240
        M5 = -[K12, L] / 14400,

    and Omega6 - Omega4 = c^2 K23/240 + c^3 M3 + c^4 M4 + c^5 M5.  estimate
    bounds its largest entry over |c| <= c_max, term by term."""
    z = z0[:, None] + dz[:, None] * _GAUSS
    w = continue_w((p[:, None], z), w_p[:, None], np.array(k)[:, None])
    iw = 1 / w
    zero = np.zeros_like(dz)
    b1 = np.array((dz, -dz * w[:, 1], dz * iw[:, 1]))
    r, s = dz * (math.sqrt(15) / 3), dz * (10 / 3)
    b2 = np.array((zero, r * (w[:, 0] - w[:, 2]), r * (iw[:, 2] - iw[:, 0])))
    b3 = np.array((zero, s * (2 * w[:, 1] - w[:, 0] - w[:, 2]), s * (iw[:, 0] - 2 * iw[:, 1] + iw[:, 2])))
    K12, K13, K23 = _bracket(b1, b2), _bracket(b1, b3), _bracket(b2, b3)
    L = _bracket(b1, K12)
    X = -20 * b1 - b3
    M = np.array((
        b1 + b3 / 12,
        K23 / 240 - K12 / 12,
        (_bracket(K12, b2) - _bracket(X, K13) / 30) / 240,
        -(_bracket(X, L) / 60 + _bracket(K12, K13) / 30) / 240,
        -_bracket(K12, L) / 14400,
    ))
    g2, g3, g4, g5 = np.abs((K23 / 240, M[2], M[3], M[4])).max(axis=1)
    return M, c_max * c_max * (g2 + c_max * (g3 + c_max * (g4 + c_max * g5)))


def _bracket(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """[P, Q] = PQ - QP of traceless 2 x 2 matrices, each given as rows
    (d, x, y) of [[d, x], [y, -d]]."""
    d1, x1, y1 = P
    d2, x2, y2 = Q
    return np.array((x1 * y2 - x2 * y1, 2 * (d1 * x2 - d2 * x1), 2 * (d2 * y1 - d1 * y2)))


def _step_matrices(M: np.ndarray, lanes: np.ndarray) -> tuple:
    """exp(Omega) for each step of M (_magnus_terms) and each c of lanes, as
    components (e11, e12, e21, e22), arrays of shape (steps, lanes).

    For the traceless Omega = (d, x, y), exp(Omega) = cosh(s) I +
    sinh(s)/s Omega with s^2 = d^2 + x y.  Both functions are entire in s^2;
    where |s^2| <= _SERIES_S2 they are summed as its Taylor series to s^4,
    whose next terms are below 1.4e-18."""
    M = M[..., None]
    omega = M[4] * lanes + M[3]
    for j in (2, 1, 0):
        omega *= lanes
        omega += M[j]
    omega *= lanes
    d, x, y = omega
    s2 = d * d + x * y
    ch = 1 + s2 * (1 / 2 + s2 * (1 / 24))
    sh = 1 + s2 * (1 / 6 + s2 * (1 / 120))
    far = np.abs(s2) > _SERIES_S2
    if far.any():
        s = np.sqrt(s2[far])
        ch[far], sh[far] = np.cosh(s), np.sinh(s) / s
    sd = sh * d
    return ch + sd, sh * x, sh * y, ch - sd


def _failed(message: str, z, bad, cs, scale=1.0) -> LanesFailed:
    """LanesFailed for the lanes where bad is true, its message naming the
    first one's point of the curve, scale * z, and c."""
    lanes = np.flatnonzero(bad)
    s, c = (np.broadcast_to(x, np.shape(bad)).flat[lanes[0]] for x in (scale, cs))
    return LanesFailed(f"{message} at z = {complex(s * z)} for c = {float(c)}", lanes)


def _drifted(y: np.ndarray) -> tuple:
    """|det F - 1| / max(1, max |F_ij|)^2 of the frame (F11, F12, F21, F22) in
    the first four rows of y, per lane when y has a lane axis, and whether it
    exceeds TOL_DET or is NaN: the one statement of the determinant rule."""
    with np.errstate(over="ignore", invalid="ignore"):  # a frame that overflowed
        scale = np.maximum(1.0, np.max(np.abs(y[:4]), axis=0)) ** 2
        drift = np.abs(y[0] * y[3] - y[1] * y[2] - 1.0) / scale
    return drift, ~(drift <= TOL_DET)


def _check_drift(y, z, cs, scale=1.0) -> None:
    """The one end drift check: LanesFailed where the frames in y, reached at
    scale * z, break the determinant rule."""
    drift, bad = _drifted(y)
    if bad.any():
        first = float(np.ravel(drift)[np.flatnonzero(bad)[0]])
        raise _failed(f"scaled determinant drift {first:.3e}", z, bad, cs, scale)


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
    path.w0; w_end is its value at the last waypoint.  k as a (4, 1) array
    takes numpy's sqrt over the array z."""
    k = branch_offsets(a)
    w = _waypoint_w(path, k)
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
) -> tuple:
    """(F, w) at the end of path: fixed-step RK4 reference integration of the
    frame for self-convergence oracles, with w in closed form
    (curve.continue_w), not integrated.

    Checks the start frame as integrate_frame does, and end_point checks that
    the end value of w lies on the curve; the determinant of the end frame is
    not checked, since RK4 conserves it only to its truncation error.
    """
    a = params.a
    validate_path(path, a)
    matrix, w = _linear_field(path, a, params.c)
    F = _rk.integrate_polyline_rk4(path.waypoints, _start_frame(F0), matrix, n_steps)
    return F, end_point(path, w, a).w


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
    evaluated from the first-order system, and w' as w L, so the residual
    vanishes up to rounding for any (z, F, w), a solution or not (3.8e-14 at
    most on 50 random ones at a = 2): it measures rounding only.  states are the
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
