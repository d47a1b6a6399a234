import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dscat.curve import CurveParams, CurvePoint, PathSpec, transport_w
from dscat.transport import DEFAULT_CONFIG
from dscat import geometry
from dscat.errors import ContinuationError, DegeneratePoint, PathError, SingularPoint
from dscat.geometry import (
    _schwarzian_fd,
    build_mesh,
    frame_at,
    hollow_ball,
    immerse,
    schwarzian_check,
    secondary_gauss,
    small_formula_check,
    symmetry_curves,
    unit_normal,
)
from dscat.linalg2c import mat2c, mobius_star

from conftest import quadric_residuals, segment_distance


def random_sl2(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return m / np.sqrt(np.linalg.det(m))


def probe_point(a: float = 2.0, c: float = 1.0, z: complex = 0.6 + 0.9j) -> CurvePoint:
    return transport_w(PathSpec(complex(+1), (0j, z)), a)


def test_immerse_identity():
    X = immerse(np.eye(2, dtype=complex))
    assert X == (0.0, 0.0, 0.0, 1.0)


def test_immerse_boost_fixes_base_point():
    # hand multiplication: for B = [[cosh t, sinh t], [sinh t, cosh t]] the
    # product B e3 B* collapses back to e3, since B preserves the form e3
    t = 0.7
    B = mat2c(math.cosh(t), math.sinh(t), math.sinh(t), math.cosh(t))
    e3 = np.diag([1.0, -1.0]).astype(complex)
    hand = B @ e3 @ B.conj().T
    assert np.allclose(hand, e3, atol=1e-12)
    X = immerse(B)
    assert X[0] == pytest.approx(0.0, abs=1e-12)
    assert X[1] == pytest.approx(0.0, abs=1e-12)
    assert X[2] == pytest.approx(0.0, abs=1e-12)
    assert X[3] == pytest.approx(1.0, abs=1e-12)


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_immerse_lands_on_quadric(seed):
    x0, x1, x2, x3 = immerse(random_sl2(seed))
    lorentz = -x0 ** 2 + x1 ** 2 + x2 ** 2 + x3 ** 2
    assert abs(lorentz - 1.0) < 1e-9 * max(1.0, sum(np.array([x0, x1, x2, x3]) ** 2))


def test_secondary_gauss_identity_frame():
    g = secondary_gauss(np.eye(2, dtype=complex), complex(+1))
    assert g == pytest.approx(1.0)  # |g| = 1: the base point is singular


def test_secondary_gauss_gauge_frame_pole(shallow_solution):
    g = secondary_gauss(shallow_solution.P, complex(+1))
    assert not cmath.isfinite(g)
    assert not (abs(abs(g) - 1.0) < 1e-3)  # infinity is a regular value


def test_secondary_gauss_row_consistency(shallow_solution):
    # row two of dF = alpha F is row one over w, so -dF22/dF21 is g too
    F, w = frame_at(shallow_solution, 0.6 + 0.9j)
    g1 = secondary_gauss(F, w)
    g2 = -(F[0, 1] / w - F[1, 1]) / (F[0, 0] / w - F[1, 0])
    assert abs(g1 - g2) < 1e-9


def test_unit_normal_base_example():
    N = unit_normal(np.eye(2, dtype=complex), 0.0)
    assert N == (-1.0, 0.0, 0.0, 0.0)


def test_unit_normal_rejects_singular():
    with pytest.raises(SingularPoint):
        unit_normal(np.eye(2, dtype=complex), 1.0 + 0j)


def test_unit_normal_at_gauss_map_pole():
    # g = infinity sits outside the unit disk, so the normal is future pointing
    F = random_sl2(4)
    n0, n1, n2, n3 = unit_normal(F, complex(math.inf, 0.0))
    lorentz = -n0 ** 2 + n1 ** 2 + n2 ** 2 + n3 ** 2
    assert abs(lorentz + 1.0) < 1e-9 * max(1.0, sum(np.array([n0, n1, n2, n3]) ** 2))
    assert n0 > 0


@given(seed=st.integers(min_value=0, max_value=10_000), g_abs=st.floats(0.05, 4.0))
def test_unit_normal_is_unit_timelike(seed, g_abs):
    if abs(g_abs - 1.0) < 5e-3:
        return
    F = random_sl2(seed)
    g = g_abs * cmath.exp(0.3j)
    n0, n1, n2, n3 = unit_normal(F, g)
    scale = max(1.0, sum(np.array([n0, n1, n2, n3]) ** 2))
    assert abs(-n0 ** 2 + n1 ** 2 + n2 ** 2 + n3 ** 2 + 1.0) / scale < 1e-9


def test_unit_normal_time_orientation(shallow_solution):
    found_above = False
    for z in (0.6 + 0.9j, 0.3 + 0.5j, 0.5j, 2.4j, 0.4 + 1.1j):
        F, w = frame_at(shallow_solution, z)
        g = secondary_gauss(F, w)
        if not cmath.isfinite(g) or abs(abs(g) - 1.0) < 1e-3:
            continue
        N = unit_normal(F, g)
        assert (N[0] > 0) == (abs(g) > 1)
        found_above = True
    assert found_above


def test_hollow_ball_examples():
    Y = hollow_ball((0.0, 0.0, 0.0, 1.0))
    assert Y == (0.0, 0.0, 1.0)
    Y = hollow_ball((1.0, 1.0, 1.0, 0.0))
    expected = math.exp(math.pi / 4) / math.sqrt(2.0)
    assert Y[0] == pytest.approx(expected, abs=1e-12)
    assert Y[1] == pytest.approx(expected, abs=1e-12)
    assert Y[2] == 0.0
    assert expected == pytest.approx(1.5509, abs=1e-4)


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_hollow_ball_radius_bound(seed):
    y1, y2, y3 = hollow_ball(immerse(random_sl2(seed)))
    assert math.exp(-math.pi) < y1 ** 2 + y2 ** 2 + y3 ** 2 < math.exp(math.pi)


def test_mesh_invariants(shallow_mesh):
    mesh = shallow_mesh
    assert len(mesh.z) > 200
    assert len(mesh.triangles) > 100
    assert mesh.holes == 0
    assert (quadric_residuals(mesh.X) < 1e-7).all()
    r2 = (mesh.Y ** 2).sum(axis=1)
    assert ((math.exp(-math.pi) < r2) & (r2 < math.exp(math.pi))).all()
    assert mesh.singular.tolist() == [abs(g - 1.0) < 1e-3 for g in mesh.g_abs.tolist()]
    # triangles never straddle the singular set
    side = mesh.g_abs[mesh.triangles] >= 1.0
    assert (side.all(axis=1) == side.any(axis=1)).all()


def _assert_nodes_are_samples_or_holes(mesh):
    """Each sample number appears once in the node grid, and every other
    node is a hole."""
    numbers = mesh.node[mesh.node >= 0]
    assert sorted(numbers.tolist()) == list(range(len(mesh.z)))
    assert mesh.holes == mesh.node.size - len(mesh.z)
    assert type(mesh.holes) is int


@pytest.mark.parametrize("mesh", ["shallow_mesh", "deep_mesh"])
def test_every_node_is_one_sample_or_one_hole(mesh, request):
    _assert_nodes_are_samples_or_holes(request.getfixturevalue(mesh))


def test_mesh_failed_sheet_root_holes_that_sheet(shallow_solution, monkeypatch):
    sol, nu, nv = shallow_solution, 4, 4
    full = build_mesh(sol, nu, nv)
    real = geometry._sheet_root

    def lost(sol, sheet, cfg):
        if sheet == -1:
            raise ContinuationError("sheet residual exceeded")
        return real(sol, sheet, cfg)

    monkeypatch.setattr(geometry, "_sheet_root", lost)
    mesh = build_mesh(sol, nu, nv)
    radii = geometry._ring_radii(sol.a, nu, 3.0 * sol.a)
    assert mesh.holes == len(radii) * nv
    _assert_nodes_are_samples_or_holes(mesh)
    assert (mesh.node[1] == -1).all()
    assert np.array_equal(mesh.node[0], full.node[0])
    assert np.array_equal(mesh.z, full.z[: len(mesh.z)])


def test_mesh_bug_is_not_a_hole(shallow_solution, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a bug, not a lost continuation")

    monkeypatch.setattr(geometry, "integrate_frames_over_c", broken)
    with pytest.raises(TypeError):
        build_mesh(shallow_solution, 4, 4)


def test_mesh_failed_integration_is_a_hole(shallow_solution, monkeypatch):
    def lost(*args, **kwargs):
        raise ContinuationError("sheet residual exceeded")

    monkeypatch.setattr(geometry, "integrate_frames_over_c", lost)
    mesh = build_mesh(shallow_solution, 4, 4)
    rings = len(geometry._ring_radii(shallow_solution.a, 4, 3.0 * shallow_solution.a))
    assert len(mesh.z) == 0 and mesh.triangles.shape == (0, 3)
    assert mesh.holes == 2 * rings * 4
    _assert_nodes_are_samples_or_holes(mesh)
    assert symmetry_curves(mesh) == []  # and no numpy warning, in either pass


def test_mesh_lane_failure_holes_only_its_ring(shallow_solution, monkeypatch):
    # spoil the sheet value of one lane (sheet +1, ring 3) at the second node
    # step: the sheet check fails on that lane alone
    sol, nu, nv = shallow_solution, 8, 12
    full = build_mesh(sol, nu, nv)
    assert full.holes == 0
    ring = geometry._ring_radii(sol.a, nu, 3.0 * sol.a)[3]
    real = geometry.integrate_frames_over_c
    calls = []

    def spoiled(path, a, c, cfg, *, F0, w0, scale):
        calls.append(len(scale))
        if len(calls) == 3:
            w0 = w0.copy()
            w0[int(np.flatnonzero(scale == ring)[0])] *= 1 + 1e-6
        return real(path, a, c, cfg, F0=F0, w0=w0, scale=scale)

    monkeypatch.setattr(geometry, "integrate_frames_over_c", spoiled)
    mesh = build_mesh(sol, nu, nv)
    # the failed step is run again without the lane, which stays dropped
    assert calls[2:5] == [calls[2], calls[2] - 1, calls[2] - 1]
    # ring 3 of sheet +1 keeps the node reached before the failure
    kept = np.concatenate((full.z[: 3 * nv + 1], full.z[4 * nv :]))
    assert np.array_equal(mesh.z, kept)
    assert mesh.holes == nv - 1
    _assert_nodes_are_samples_or_holes(mesh)


def test_mesh_validates_each_ring_once(shallow_solution, monkeypatch):
    # a ring whose scaled polyline fails validation loses its nodes on both
    # sheets; the other rings are meshed as before
    sol, nu, nv = shallow_solution, 8, 12
    radii = geometry._ring_radii(sol.a, nu, 3.0 * sol.a)
    real = geometry.validate_path
    seen = []

    def checked(path, a):
        seen.append(abs(path.waypoints[1]))
        if seen[-1] == radii[2]:
            raise PathError("segment passes within 0.1 of a branch point")
        return real(path, a)

    monkeypatch.setattr(geometry, "validate_path", checked)
    mesh = build_mesh(sol, nu, nv)
    assert seen == radii
    assert mesh.holes == 2 * nv
    _assert_nodes_are_samples_or_holes(mesh)
    assert len(mesh.z) == 2 * (len(radii) - 1) * nv
    assert all(abs(z) != pytest.approx(radii[2]) for z in mesh.z.tolist())


def _per_node_mesh(sol, nu, nv):
    """build_mesh as one integrate_frame call per node, the reference for the
    ring-parallel build: (sample keys, samples, triangles, holes)."""
    from dscat.curve import branch_points
    from dscat.transport import integrate_frame

    params = CurveParams(sol.a, sol.c)
    radii = geometry._ring_radii(sol.a, nu, 3.0 * sol.a)
    angles = [2 * math.pi * (k + 0.5) / nv for k in range(nv)]
    order = sorted(range(nv), key=lambda k: (angles[k] - math.pi / 2) % (2 * math.pi))
    samples, index, holes = [], {}, 0
    for sheet in (+1, -1):
        F_root, w_root = geometry._sheet_root(sol, sheet, DEFAULT_CONFIG)
        for j, r in enumerate(radii):
            z_end = r * 1j
            F, w = integrate_frame(PathSpec(w_root, (0j, z_end)), params, F0=F_root)
            prev_u = math.pi / 2
            for k in order:
                u = math.pi / 2 + (angles[k] - math.pi / 2) % (2 * math.pi)
                arc = geometry._arc_waypoints(z_end, prev_u, u)
                wp = (z_end,) + tuple(r * z for z in arc[1:])
                F, w = integrate_frame(PathSpec(w, wp), params, F0=F)
                z_end = wp[-1]
                prev_u = u
                X = immerse(F)
                frame_scale = float(np.max(np.abs(F)))
                if frame_scale ** 2 * geometry.RESOLVE_EPS > max(1.0, np.linalg.norm(np.array(X))):
                    holes += 1
                    continue
                index[(sheet, j, k)] = len(samples)
                g_abs = abs(secondary_gauss(F, w))
                samples.append((CurvePoint(z_end, w), hollow_ball(X), g_abs, frame_scale))

    def crosses_slit(p, q):
        if (p.imag > 0) == (q.imag > 0):
            return False
        t = -p.imag / (q.imag - p.imag)
        x = p.real + t * (q.real - p.real)
        # build_mesh once kept this margin about each slit; an edge it decides
        # passes within it of a branch point, so MESH_CLEARANCE drops it anyway
        m, a = 0.1, sol.a
        return 1.0 - m <= x <= a + m or -a - m <= x <= -1.0 + m

    def keep(tri):
        for i, m in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            p, q = samples[min(i, m)][0].z, samples[max(i, m)][0].z
            if crosses_slit(p, q) or any(
                segment_distance(p, q, b) < geometry.MESH_CLEARANCE for b in branch_points(sol.a)
            ):
                return False
        return len({samples[i][2] >= 1.0 for i in tri}) == 1

    triangles = []
    for sheet in (+1, -1):
        for j in range(len(radii) - 1):
            for k in range(nv):
                k1 = (k + 1) % nv
                quad = [index.get(key) for key in
                        ((sheet, j, k), (sheet, j + 1, k), (sheet, j + 1, k1), (sheet, j, k1))]
                if None not in quad:
                    for tri in ((quad[0], quad[1], quad[2]), (quad[0], quad[2], quad[3])):
                        if keep(tri):
                            triangles.append(tri)
    return index, samples, triangles, holes


@pytest.mark.parametrize("grid", [(24, 24), (8, 12)], ids=["24x24", "8x12"])
@pytest.mark.parametrize("root", ["shallow_solution", "deep_solution"])
def test_mesh_matches_per_node_integration(root, grid, request, monkeypatch):
    sol = request.getfixturevalue(root)
    index, ref, triangles, holes = _per_node_mesh(sol, *grid)
    scalar_calls = []
    real = geometry.integrate_frame

    def counted(*args, **kwargs):
        scalar_calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(geometry, "integrate_frame", counted)
    mesh = build_mesh(sol, *grid)
    assert len(scalar_calls) <= 2  # the sheet roots only
    assert mesh.triangles.tolist() == [list(tri) for tri in triangles]
    assert mesh.holes == holes
    assert mesh.z.tolist() == [p.z for p, _, _, _ in ref]
    assert len(mesh.z) == len(index)
    assert {key: int(mesh.node[int(key[0] < 0), key[1], key[2]]) for key in index} == index
    for Y_i, w_i, g_i, (p, Y, g_abs, frame_scale) in zip(mesh.Y, mesh.w, mesh.g_abs, ref):
        # the per-node reference is itself off a rel_tol 1e-13 integration by
        # up to 4e-10 frame_scale^2 in Y (8e-2 at frame_scale 7.8e4 on the
        # deep root), so two integrations at rel_tol 1e-10 agree to that
        bound = max(1e-6, 1e-9 * frame_scale ** 2)
        assert float(np.max(np.abs(Y_i - np.array(Y)))) <= bound
        assert abs(w_i - p.w) <= 1e-8 * abs(p.w)
        assert (g_i >= 1.0) == (g_abs >= 1.0)


def test_mesh_contains_singular_contour(shallow_mesh):
    below = int((shallow_mesh.g_abs < 1.0).sum())
    above = int((shallow_mesh.g_abs > 1.0).sum())
    assert below > 0 and above > 0


def test_mesh_determinism(shallow_solution, shallow_mesh):
    again = build_mesh(shallow_solution, 10, 12)
    assert len(again.z) == len(shallow_mesh.z)
    assert (np.abs(again.X[:, :2] - shallow_mesh.X[:, :2]) < 1e-7).all()
    assert np.array_equal(again.z, shallow_mesh.z)
    assert np.array_equal(again.triangles, shallow_mesh.triangles)


def test_immersion_single_valued(shallow_solution):
    # carrying the frame once around a generator before evaluating must not
    # move the immersion point
    from dscat.curve import canonical_paths
    from dscat.transport import integrate_frame

    sol = shallow_solution
    params = CurveParams(sol.a, sol.c)
    paths = canonical_paths(params.a)
    z_probe = 0.6 + 0.9j
    F_direct, _ = frame_at(sol, z_probe)
    for loop in (paths.gamma1, paths.gamma2, paths.gamma3):
        F_looped, w_looped = integrate_frame(loop, params, F0=sol.P)
        F_translated, _ = integrate_frame(PathSpec(w_looped, (0j, z_probe)), params, F0=F_looped)
        X0 = np.array(immerse(F_direct))
        X1 = np.array(immerse(F_translated))
        scale = max(1.0, float(np.max(np.abs(X0))))
        assert float(np.max(np.abs(X0 - X1))) / scale < 1e-6


def test_singular_flag_invariant_under_monodromy(shallow_solution):
    # |g| itself moves under the gauged action, but the side of the unit
    # circle (the singular flag) is preserved
    from dscat.curve import canonical_paths
    from dscat.transport import integrate_frame

    sol = shallow_solution
    params = CurveParams(sol.a, sol.c)
    paths = canonical_paths(params.a)
    z_probe = 0.6 + 0.9j
    g0 = secondary_gauss(*frame_at(sol, z_probe))
    F_looped, w_looped = integrate_frame(paths.gamma2, params, F0=sol.P)
    g1 = secondary_gauss(*integrate_frame(PathSpec(w_looped, (0j, z_probe)), params, F0=F_looped))
    assert (abs(g0) > 1.0) == (abs(g1) > 1.0)


def test_symmetry_curves(shallow_solution, shallow_mesh):
    curves = symmetry_curves(shallow_mesh)
    assert curves
    for chain in curves:
        for _, y2, _ in chain:
            assert abs(y2) < 1e-6


def _crossed_edges(mesh) -> dict:
    """{point: edge} for every point where an edge (i, j), i < j, of a
    triangle crosses y2 = 0, computed one edge at a time as symmetry_curves
    computes it from the triangle's edge order (0, 1), (1, 2), (2, 0)."""
    Y = list(mesh.Y)
    edges = {}
    for tri in mesh.triangles.tolist():
        for i, j in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            yi, yj = Y[i], Y[j]
            if (yi[1] > 0.0) != (yj[1] > 0.0):
                point = tuple((yi + yi[1:2] / (yi[1:2] - yj[1:2]) * (yj - yi)).tolist())
                assert edges.setdefault(point, (min(i, j), max(i, j))) == (min(i, j), max(i, j))
    return edges


@pytest.mark.parametrize(
    "root, grid",
    [("shallow_solution", (10, 12)), ("mid_solution", (8, 12))],
    ids=["shallow-10x12", "mid-8x12"],
)
def test_symmetry_curves_follow_the_mesh_edges(root, grid, request):
    # every crossed edge is on the curves once, where its two triangles'
    # segments join, or twice as the two ends of a closed curve; and each
    # step of a curve crosses one triangle, from one of its edges to another
    mesh = build_mesh(request.getfixturevalue(root), *grid)
    curves = symmetry_curves(mesh)
    edge_of = _crossed_edges(mesh)
    on_curves = [[edge_of[p] for p in chain] for chain in curves]
    once = [edge for chain in on_curves for edge in chain[chain[0] == chain[-1]:]]
    assert sorted(once) == sorted(set(edge_of.values()))
    triangles = {frozenset(tri) for tri in mesh.triangles.tolist()}
    for chain in on_curves:
        assert all(frozenset(e + f) in triangles for e, f in zip(chain[:-1], chain[1:]))
    assert {type(x) for chain in curves for p in chain for x in p} == {float}


def test_symmetry_curves_refinement(shallow_solution):
    coarse_mesh = build_mesh(shallow_solution, 12, 12)
    fine_mesh = build_mesh(shallow_solution, 24, 24)
    coarse = symmetry_curves(coarse_mesh)
    fine = symmetry_curves(fine_mesh)
    assert coarse and fine

    def cloud(curves):
        return np.array([p for chain in curves for p in chain])

    a_pts, b_pts = cloud(coarse), cloud(fine)
    edge = 0.0
    for tri in coarse_mesh.triangles:
        for i, j in ((0, 1), (1, 2), (2, 0)):
            d = np.linalg.norm(coarse_mesh.Y[tri[i]] - coarse_mesh.Y[tri[j]])
            edge = max(edge, float(d))

    def directed(ps, qs):
        return max(float(np.min(np.linalg.norm(qs - p, axis=1))) for p in ps)

    hausdorff = max(directed(a_pts, b_pts), directed(b_pts, a_pts))
    assert hausdorff < 2.0 * edge


def test_small_formula(shallow_solution):
    p = probe_point(2.0, shallow_solution.c)
    res = small_formula_check(shallow_solution, p)
    assert res < 1e-5
    # continuity of the residual under a small move of the probe
    p2 = probe_point(2.0, shallow_solution.c, z=0.6 + 0.9j + 1e-3)
    res2 = small_formula_check(shallow_solution, p2)
    assert res2 < 1e-5


def test_small_formula_degenerate_point(shallow_solution):
    # dG = w L(z) dz vanishes at z = i sqrt(2) when a = 2
    z = 1j * math.sqrt(2.0)
    p = transport_w(PathSpec(complex(+1), (0j, z)), 2.0)
    with pytest.raises(DegeneratePoint):
        small_formula_check(shallow_solution, p)


def test_small_formula_rejects_other_sheet(shallow_solution):
    p = probe_point(2.0, shallow_solution.c)
    wrong = CurvePoint(p.z, -p.w)
    with pytest.raises(DegeneratePoint):
        small_formula_check(shallow_solution, wrong)


def test_schwarzian_identity(shallow_solution):
    p = probe_point(2.0, shallow_solution.c)
    res = schwarzian_check(shallow_solution, p, 1e-3)
    assert res < 1e-4


def test_schwarzian_second_order(shallow_solution):
    p = probe_point(2.0, shallow_solution.c)
    coarse = schwarzian_check(shallow_solution, p, 2e-3)
    fine = schwarzian_check(shallow_solution, p, 1e-3)
    assert 2.5 < coarse / fine < 6.5


def test_schwarzian_mobius_invariance(shallow_solution):
    # the Schwarzian of the Gauss map is unchanged by the unit-circle Moebius
    # action that monodromy translation induces
    sol = shallow_solution
    h = 1e-3
    z0 = 0.6 + 0.9j
    gs = []
    for k in (-2, -1, 0, 1, 2):
        gs.append(secondary_gauss(*frame_at(sol, z0 + k * h)))
    v = 0.4 + 0.2j
    u = cmath.exp(0.7j) * math.sqrt(1.0 + abs(v) ** 2)
    U = mat2c(u, v, v.conjugate(), u.conjugate())
    moved = [mobius_star(U, g) for g in gs]
    s0 = _schwarzian_fd(gs, h)
    s1 = _schwarzian_fd(moved, h)
    assert abs(s0 - s1) < 1e-4
