"""Surface geometry: immersion, Gauss map, hollow-ball model, meshes, diagnostics.

The immersion is X = F e3 F* read off in the Lorentz frame; its image lies on
the unit quadric of signature (-,+,+,+).  The hollow-ball map sends the quadric
into the spherical shell of radii exp(-pi/2) .. exp(pi/2) for visualization.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .curve import (
    ARC_LIFT,
    CurveParams,
    CurvePoint,
    PathSpec,
    _segment_distances,
    branch_points,
    log_derivative,
    log_derivative_prime,
    same_sheet,
    validate_path,
)
from .errors import DegeneratePoint, DscatError, LanesFailed, PathError, SingularPoint
from .period import PeriodSolution
from .transport import (
    DEFAULT_CONFIG,
    IntegratorConfig,
    integrate_frame,
    integrate_frames_over_c,
)

# Flag threshold on | |g| - 1 | (rendering diagnostics only).  |g| at the
# 24 x 24 mesh nodes of the four a = 2 roots moves by at most 9.1e-9 against a
# rel_tol 1e-13 integration, so the flag follows the surface, not the
# integration error; and unit_normal's factor 1 / (|g|^2 - 1) stays below
# about 500 outside it.
TOL_SING = 1e-3
# Mesh keeps this clear of branch points (slightly above the path minimum).
MESH_CLEARANCE = 0.15
# Innermost mesh ring.
MESH_R_IN = 0.12
# A sample is resolvable when |X| exceeds the evaluation noise |F|^2 * eps of
# the products forming it; unresolvable nodes become holes.
RESOLVE_EPS = 1e-10


@dataclass(frozen=True, eq=False)
class MeshResult:
    """A mesh as its node grid and one array per sample quantity.

    node[sheet, ring, k] is the number of the sample at node k of the ring on
    sheet +1 (index 0) or -1 (index 1), or -1 where the node is a hole.
    Samples are numbered lane-major, sheet +1's rings and then sheet -1's, and
    within a ring in the order its nodes are reached.  Sample i lies over
    (z[i], w[i]) with Lorentz point X[i] and hollow-ball point Y[i];
    frame_scale[i] is max |F entry| there, the conditioning scale of every
    quantity formed from the frame (the quadric defect is floored near
    frame_scale^4 * eps).  triangles holds sample numbers, one row each.
    """

    node: np.ndarray
    z: np.ndarray
    w: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    g_abs: np.ndarray
    frame_scale: np.ndarray
    triangles: np.ndarray

    @property
    def holes(self) -> int:
        return int((self.node < 0).sum())

    @property
    def singular(self) -> np.ndarray:
        return np.abs(self.g_abs - 1.0) < TOL_SING


def immerse(F) -> tuple:
    """X = F e3 F* as its Lorentz coordinates (x0, x1, x2, x3).

    The product is self adjoint with determinant -1 whenever det F = 1, so the
    result lies on the unit quadric.  F is a 2 x 2 array or a pair of rows of
    Python complex numbers, which is faster.
    """
    (F11, F12), (F21, F22) = F
    f11 = (abs(F11) ** 2 - abs(F12) ** 2)
    f22 = (abs(F21) ** 2 - abs(F22) ** 2)
    f12 = F11 * F21.conjugate() - F12 * F22.conjugate()
    return 0.5 * (f11 + f22), float(f12.real), float(f12.imag), 0.5 * (f11 - f22)


def secondary_gauss(F, w: complex) -> complex:
    """The multivalued Gauss map g = -dF12/dF11 evaluated through dF = alpha F
    at the point of the curve with sheet value w.

    Equals -(F12 - w F22) / (F11 - w F21); returns complex infinity when the
    denominator vanishes (infinity is a legitimate value of g).
    The surface is singular exactly where |g| = 1.  F is taken as by immerse.
    """
    (F11, F12), (F21, F22) = F
    num = -(F12 - w * F22)
    den = F11 - w * F21
    if den == 0:
        return complex(math.inf, 0.0)
    return complex(num / den)


def unit_normal(F: np.ndarray, g: complex) -> tuple:
    """Unit timelike normal (1 / (|g|^2 - 1)) (F nu)(F nu)*, nu = [[1, g], [conj g, 1]].

    Returned as Lorentz coordinates (n0, n1, n2, n3), like immerse.  Future
    pointing (n0 > 0) exactly when |g| > 1.  Requires a regular point.
    """
    if not cmath.isfinite(complex(g)):
        # limit of nu nu* / (|g|^2 - 1) as g -> infinity is the identity
        N = F @ F.conj().T
    else:
        if abs(abs(g) - 1.0) < TOL_SING:
            raise SingularPoint(f"|g| = {abs(g)} is within {TOL_SING} of 1")
        nu = np.array([[1.0, g], [np.conj(g), 1.0]], dtype=complex)
        Fn = F @ nu
        N = (Fn @ Fn.conj().T) / (abs(g) ** 2 - 1.0)
    n12, trace, split = N[0, 1], N[0, 0] + N[1, 1], N[0, 0] - N[1, 1]
    return 0.5 * float(trace.real), float(n12.real), float(n12.imag), 0.5 * float(split.real)


def hollow_ball(X: tuple) -> tuple:
    """(y1, y2, y3) with y_k = exp(arctan x0) / sqrt(1 + x0^2) * x_k, for X
    the Lorentz coordinates (x0, x1, x2, x3).

    On the quadric the image radius squared equals exp(2 arctan x0), which
    stays strictly inside (exp(-pi), exp(pi)).
    """
    x0, x1, x2, x3 = X
    factor = math.exp(math.atan(x0)) / math.sqrt(1.0 + x0 ** 2)
    return factor * x1, factor * x2, factor * x3


def frame_at(
    sol: PeriodSolution,
    z: complex,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> tuple:
    """(F, w): the frame and the sheet value at the point over z reached by
    the straight segment from the base point 0 of sheet +1 (w = 1).

    Initial frame is the solution gauge P.
    """
    params = CurveParams(sol.a, sol.c)
    path = PathSpec(complex(+1), (0j, complex(z)))
    return integrate_frame(path, params, F0=sol.P, cfg=cfg)


# ---------------------------------------------------------------------------
# meshes


def _allowed_intervals(a: float, r_out: float) -> list:
    iv = [(MESH_R_IN, 1.0 - MESH_CLEARANCE)]
    if a - MESH_CLEARANCE > 1.0 + MESH_CLEARANCE + 0.05:
        iv.append((1.0 + MESH_CLEARANCE, a - MESH_CLEARANCE))
    iv.append((a + MESH_CLEARANCE, r_out))
    return iv


def _ring_radii(a: float, nu: int, r_out: float) -> list:
    """nu radii distributed over the allowed intervals, log spaced within each."""
    intervals = _allowed_intervals(a, r_out)
    weights = [math.log(hi / lo) for lo, hi in intervals]
    total = sum(weights)
    counts = [max(2, int(round(nu * w / total))) for w in weights]
    while sum(counts) > max(nu, 2 * len(intervals)):
        counts[counts.index(max(counts))] -= 1
    radii: list = []
    for (lo, hi), n in zip(intervals, counts):
        for i in range(n):
            radii.append(lo * (hi / lo) ** (i / (n - 1)) if n > 1 else lo)
    return sorted(set(radii))


def _arc_waypoints(start: complex, u0: float, u1: float) -> tuple:
    """Counterclockwise polyline along |z| = 1 from angle u0 to u1 > u0.

    The first vertex reuses the exact current point so consecutive chunks
    chain without floating-point mismatch.
    """
    n = max(1, int(math.ceil((u1 - u0) / (math.pi / 48))))
    tail = tuple(cmath.exp(1j * (u0 + (u1 - u0) * j / n)) for j in range(1, n + 1))
    return (start,) + tail


def _sheet_root(sol: PeriodSolution, sheet: int, cfg: IntegratorConfig) -> tuple:
    """(F, w) over z = 0 on the given sheet, +1 or -1: the gauge P with
    w = 1, or P carried once around the branch point 1 to w = -1."""
    params = CurveParams(sol.a, sol.c)
    if sheet == +1:
        return sol.P.astype(complex), complex(+1)
    z1 = (1.0 + sol.a) / 2.0
    lift = ARC_LIFT * 1j
    flip = PathSpec(complex(+1), (0j, z1 / 2 + lift, complex(z1), z1 / 2 - lift, 0j))
    return integrate_frame(flip, params, F0=sol.P, cfg=cfg)


def build_mesh(
    sol: PeriodSolution,
    nu: int,
    nv: int,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> MeshResult:
    """Sample the immersion over both sheets of an annular grid.

    Rings are concentric circles avoiding neighborhoods of the branch points;
    both sheets are covered by rooting the frame at the two points over z = 0
    (the second root frame is carried around one branch point first).  Each
    ring is swept once counterclockwise from the imaginary axis, so every node
    has a fixed integration path and resampling is deterministic.  Triangles
    that would cross a sheet-change slit, pass near a branch point, or
    straddle the singular set |g| = 1 are omitted, all decided in one pass
    over the grid node[sheet, ring, k] of sample numbers (_triangles).

    Ring j follows the unit polyline of _unit_legs scaled by its radius, so
    all rings of both sheets advance together, one lane each, through
    integrate_frames_over_c: one call per node step.  The lanes share a step
    sequence, so the vertices match per-node integration within the
    integrator tolerance, not bit for bit.  A lane that fails a check is
    dropped and the rest of its ring's nodes become holes; a failure that
    names no lane (StepLimitExceeded, say) drops every lane of that step.
    The holes are the grid's empty nodes: those of a sheet whose root frame
    fails, of a ring whose polyline fails validation, of a dropped lane, and
    each node whose sample is unresolvable.
    """
    a = sol.a
    radii = _ring_radii(a, nu, 3.0 * a)
    angles = [2 * math.pi * (k + 0.5) / nv for k in range(nv)]
    order = sorted(range(nv), key=lambda k: (angles[k] - math.pi / 2) % (2 * math.pi))
    legs = _unit_legs(angles, order)

    roots = []
    for sheet in (+1, -1):
        with contextlib.suppress(DscatError):
            roots.append((sheet, *_sheet_root(sol, sheet, cfg)))
    rings = []
    ring_path = legs[0] + tuple(z for leg in legs[1:] for z in leg[1:])
    for j, r in enumerate(radii):
        with contextlib.suppress(PathError):
            validate_path(PathSpec(complex(+1), tuple(r * z for z in ring_path)), a)
            rings.append(j)

    lanes = [(sheet, j) for sheet, _, _ in roots for j in rings]
    F = np.array([F_root for _, F_root, _ in roots for j in rings], dtype=complex)
    w = np.array([w_root for _, _, w_root in roots for j in rings], dtype=complex)
    scale = [radii[j] for _, j in lanes]
    live = np.arange(len(lanes))
    found: list = [[] for _ in lanes]
    for t, leg in enumerate(legs):
        # w0 below replaces the start sheet value of every lane
        path = PathSpec(1.0 + 0j, leg)
        while live.size:
            try:
                F[live], w[live] = integrate_frames_over_c(
                    path, a, sol.c, cfg,
                    F0=F[live], w0=w[live], scale=np.take(scale, live),
                )
                break
            except LanesFailed as exc:
                failed = live[list(exc.lanes)]
            except DscatError:
                failed = live
            live = np.setdiff1d(live, failed)
        if t == 0:
            continue
        for i, F_i, w_i in zip(live.tolist(), F[live].tolist(), w[live].tolist()):
            sample = _surface_sample(F_i, CurvePoint(scale[i] * leg[-1], w_i))
            if sample is not None:
                found[i].append((order[t - 1], sample))

    node = np.full((2, len(radii), nv), -1)
    samples: list = []
    for (sheet, j), ring in zip(lanes, found):
        for k, sample in ring:
            node[int(sheet < 0), j, k] = len(samples)
            samples.append(sample)
    z, w, X, Y, g_abs, frame_scale = zip(*samples) if samples else [()] * 6
    z, g_abs = np.array(z, dtype=complex), np.array(g_abs, dtype=float)
    return MeshResult(
        node=node,
        z=z,
        w=np.array(w, dtype=complex),
        X=np.array(X, dtype=float).reshape(-1, 4),
        Y=np.array(Y, dtype=float).reshape(-1, 3),
        g_abs=g_abs,
        frame_scale=np.array(frame_scale, dtype=float),
        triangles=_triangles(node, z, g_abs, a),
    )


def _unit_legs(angles: list, order: list) -> list:
    """The polyline every mesh ring follows, for radius 1, split at the nodes.

    The first leg is the radial entry 0 -> i; leg t >= 1 is the arc on |z| = 1
    from the previous node to node order[t - 1], counterclockwise from the
    imaginary axis.  Each leg starts at the exact end of the one before.
    """
    legs = [(0j, 1j)]
    prev_u = math.pi / 2
    for k in order:
        u = math.pi / 2 + (angles[k] - math.pi / 2) % (2 * math.pi)
        legs.append(_arc_waypoints(legs[-1][-1], prev_u, u))
        prev_u = u
    return legs


def _surface_sample(F: list, point: CurvePoint) -> tuple | None:
    """(z, w, X, Y, |g|, frame_scale) of the frame F, rows of Python complex
    numbers, at point, with X and Y the tuples of immerse and hollow_ball, or
    None when X is unresolvable."""
    g_abs = abs(secondary_gauss(F, point.w))
    X = x0, x1, x2, x3 = immerse(F)
    frame_scale = max(abs(v) for row in F for v in row)
    norm_x = math.sqrt(x0 ** 2 + x1 ** 2 + x2 ** 2 + x3 ** 2)
    if frame_scale ** 2 * RESOLVE_EPS > max(1.0, norm_x):
        return None
    return point.z, point.w, X, hollow_ball(X), g_abs, frame_scale


def _triangles(node: np.ndarray, z: np.ndarray, g_abs: np.ndarray, a: float) -> np.ndarray:
    """build_mesh's triangles over node[sheet, ring, k], the sample numbers
    with -1 at holes, for samples over z with |g| = g_abs.  Each quad (sheet
    +1 then -1, ring, k) splits into its halves (0, 1, 2) and (0, 2, 3).  A
    half is kept when no edge, taken from its lower-numbered end, crosses a
    slit, [1, a] or [-a, -1], or passes within MESH_CLEARANCE of a branch
    point, and its samples lie on one side of |g| = 1."""
    inner, outer = node[:, :-1], node[:, 1:]
    quads = np.stack((inner, outer, np.roll(outer, -1, 2), np.roll(inner, -1, 2)), -1)
    quads = quads.reshape(-1, 4)
    tris = quads[(quads >= 0).all(axis=1)][:, [[0, 1, 2], [0, 2, 3]]].reshape(-1, 3)
    p, q = z[np.sort(np.stack((tris, np.roll(tris, -1, axis=1))), axis=0)]
    with np.errstate(invalid="ignore", divide="ignore"):  # inf or nan off the crossings
        t = -p.imag / (q.imag - p.imag)
        x = p.real + t * (q.real - p.real)
    in_slit = (1.0 <= x) & (x <= a) | (-a <= x) & (x <= -1.0)
    blocked = ((p.imag > 0) != (q.imag > 0)) & in_slit
    for b in branch_points(a):
        blocked |= _segment_distances(p, q, b) < MESH_CLEARANCE
    side = (g_abs >= 1.0)[tris]
    keep = ~blocked.any(axis=1) & (side.all(axis=1) == side.any(axis=1))
    return tris[keep]


def symmetry_curves(mesh: MeshResult) -> list:
    """Planar symmetry curves: iso-lines y2 = 0 extracted from a mesh.

    The hollow-ball factor is positive, so y2 = 0 exactly where x2 = 0.
    Interpolation is linear in y2 along the edges of every triangle whose
    vertices take both signs, all in one pass, which zeroes the y2 component
    of every emitted vertex by construction.  Each crossing is tagged with its
    mesh edge, and _chain_segments joins the segments along the edges.
    Returns a list of polylines, each a list of (y1, y2, y3) tuples of Python
    floats.
    """
    tris, Y = mesh.triangles, mesh.Y
    pos = Y[tris, 1] > 0.0
    mixed = pos.any(axis=1) != pos.all(axis=1)
    tris, pos = tris[mixed], pos[mixed]
    nxt = np.roll(tris, -1, axis=1)
    yi, yj = Y[tris], Y[nxt]
    with np.errstate(invalid="ignore", divide="ignore"):  # inf or nan off the crossings
        points = yi + yi[..., 1:2] / (yi[..., 1:2] - yj[..., 1:2]) * (yj - yi)
    cut = pos != np.roll(pos, -1, axis=1)
    crossings = points[cut].reshape(-1, 2, 3).tolist()
    edges = np.sort(np.stack((tris, nxt), axis=-1)[cut], axis=-1).reshape(-1, 2, 2).tolist()
    return _chain_segments(
        [(tuple(p), tuple(q)) for p, q in crossings], [(tuple(e), tuple(f)) for e, f in edges]
    )


def _chain_segments(segments: list, edges: list) -> list:
    """Join segments into maximal polylines, two wherever they cross the same
    mesh edge: segment i runs from a point on edges[i][0], a sorted pair of
    sample numbers, to one on edges[i][1].  An edge borders at most two
    triangles, so a polyline never branches.  Each polyline starts from the
    first segment not yet used, in its orientation, and grows from its second
    end and then from its first."""
    on_edge: dict = {}
    for i, ends in enumerate(edges):
        for end, edge in enumerate(ends):
            on_edge.setdefault(edge, []).append((i, end))
    used = [False] * len(segments)
    chains = []
    for i in range(len(segments)):
        if used[i]:
            continue
        used[i] = True
        chain = list(segments[i])
        for grow_end in (1, 0):
            tip = edges[i][grow_end]
            while nxt := next(((k, end) for k, end in on_edge[tip] if not used[k]), None):
                k, end = nxt
                used[k] = True
                tip = edges[k][1 - end]
                chain.insert(len(chain) if grow_end else 0, segments[k][1 - end])
        chains.append(chain)
    return chains


# ---------------------------------------------------------------------------
# diagnostics


def _analytic_gauss_chain(F: np.ndarray, w: complex, z: complex, a: float, c: float):
    """g, g', g'' at a point from dF = alpha F (no numerical differentiation)."""
    lz = log_derivative(z, a)
    lp = log_derivative_prime(z, a)
    num = -(F[0, 1] - w * F[1, 1])
    den = F[0, 0] - w * F[1, 0]
    if den == 0:
        raise DegeneratePoint("Gauss map has a pole here")
    g = num / den
    dnum = w * lz * F[1, 1]
    dden = -w * lz * F[1, 0]
    gp = (dnum - g * dden) / den
    ddnum = w * (lz * lz + lp) * F[1, 1] + c * lz * F[0, 1] - c * w * lz * F[1, 1]
    ddden = -w * (lz * lz + lp) * F[1, 0] - c * lz * F[0, 0] + c * w * lz * F[1, 0]
    gpp = (ddnum - 2 * gp * dden - g * ddden) / den
    return g, gp, gpp, lz, lp


def small_formula_check(
    sol: PeriodSolution,
    p: CurvePoint,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> float:
    """Rebuild the frame from (G, g) by the closed reconstruction formula.

    With a = sqrt(dG/dg) and b = -g a, the frame equals
    [[G da/dG - a, G db/dG - b], [da/dG, db/dG]] up to a global sign; the
    returned value is the entrywise distance to the integrated frame,
    minimized over that sign.  All derivatives are taken analytically from
    dF = alpha F.
    """
    F, w = frame_at(sol, p.z, cfg)
    if not same_sheet(w, p.w):
        raise DegeneratePoint(
            "requested point lies on the other sheet; probe points are reached "
            "from the base by a straight segment"
        )
    a, c = sol.a, sol.c
    g, gp, gpp, lz, lp = _analytic_gauss_chain(F, w, complex(p.z), a, c)
    wp = w * lz
    if abs(gp) < 1e-8 or abs(wp) < 1e-8:
        raise DegeneratePoint("dg or dG below 1e-8")
    a_ = cmath.sqrt(wp / gp)
    ap = 0.5 * a_ * (lz + lp / lz - gpp / gp)
    b_ = -g * a_
    bp = -(gp * a_ + g * ap)
    F_small = np.array(
        [[ap / lz - a_, bp / lz - b_], [ap / wp, bp / wp]], dtype=complex
    )
    return float(
        min(np.max(np.abs(F_small - F)), np.max(np.abs(F_small + F)))
    )


def schwarzian_check(
    sol: PeriodSolution,
    p: CurvePoint,
    h: float = 1e-3,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> float:
    """Residual of 2Q = S(g) - S(G) at p, Schwarzians by five-point stencils.

    Q in the z coordinate is c (dw/dz)/w dz^2, so the identity reads
    2 c L(z) = S_z(g) - S_z(w).  Both Schwarzians are formed from function
    values on the stencil z + k h (k = -2..2), independent of the analytic
    derivative chain, so this is a genuine cross-check of the transported
    frame.  Converges at second order in h.
    """
    gs = []
    ws = []
    for k in (-2, -1, 0, 1, 2):
        F, w = frame_at(sol, p.z + k * h, cfg)
        g = secondary_gauss(F, w)
        if not cmath.isfinite(g):
            raise DegeneratePoint("Gauss map pole inside the stencil")
        gs.append(g)
        ws.append(w)
    s_g = _schwarzian_fd(gs, h)
    s_w = _schwarzian_fd(ws, h)
    two_q = 2.0 * sol.c * log_derivative(p.z, sol.a)
    return float(abs(two_q - (s_g - s_w)))


def _schwarzian_fd(vals: list, h: float) -> complex:
    vm2, vm1, v0, vp1, vp2 = vals
    d1 = (vm2 - 8 * vm1 + 8 * vp1 - vp2) / (12 * h)
    d2 = (-vm2 + 16 * vm1 - 30 * v0 + 16 * vp1 - vp2) / (12 * h * h)
    d3 = (-vm2 + 2 * vm1 - 2 * vp1 + vp2) / (2 * h ** 3)
    if d1 == 0:
        raise DegeneratePoint("stencil derivative vanished")
    return d3 / d1 - 1.5 * (d2 / d1) ** 2
