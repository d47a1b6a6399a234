import math

import numpy as np
import pytest

from dscat import _rk, geometry, transport
from dscat.curve import (
    CurveParams,
    CurvePoint,
    PathSpec,
    base_point,
    branch_offsets,
    canonical_paths,
    rational_rhs_of,
    sheet_residual_of,
)
from dscat.errors import (
    ContinuationError,
    DomainError,
    LanesFailed,
    PathError,
    StepLimitExceeded,
)
from dscat.monodromy import direct_loop_holonomy
from dscat.transport import (
    DEFAULT_CONFIG,
    IntegratorConfig,
    _joint_field,
    _joint_field_lanes,
    alpha_matrix,
    integrate_frame,
    integrate_frames_in_pieces,
    integrate_frames_over_c,
    reference_frame,
    scalar_ode_residual,
)


def test_alpha_matrix_at_base():
    alpha = alpha_matrix(base_point(+1), 1.0)
    assert np.allclose(alpha, np.array([[1, -1], [1, -1]]))


def test_alpha_matrix_structure():
    rng = np.random.default_rng(3)
    for _ in range(10):
        w = complex(rng.normal(), rng.normal())
        if abs(w) < 0.1:
            continue
        c = float(rng.normal())
        alpha = alpha_matrix(CurvePoint(0.3 + 0.2j, w), c)
        assert alpha[0, 0] + alpha[1, 1] == 0  # exactly trace free
        det = alpha[0, 0] * alpha[1, 1] - alpha[0, 1] * alpha[1, 0]
        assert abs(det) < 1e-14 * max(1.0, abs(c) ** 2)


def test_alpha_rejects_zero_w():
    with pytest.raises(DomainError):
        alpha_matrix(CurvePoint(0.5j, 0j), 1.0)


def test_tiny_c_keeps_frame_constant():
    params = CurveParams(2.0, 1e-14)
    paths = canonical_paths(params.a)
    state = integrate_frame(paths.c2, params)
    assert np.max(np.abs(state.F - np.eye(2))) < 1e-12


def test_det_preserved_along_path():
    params = CurveParams(2.0, 1.0)
    paths = canonical_paths(params.a)
    worst = 0.0

    def capture(z, y):
        nonlocal worst
        det = y[0] * y[3] - y[1] * y[2]
        worst = max(worst, abs(det - 1.0))

    state = integrate_frame(paths.c2, params, on_step=capture)
    det_end = state.F[0, 0] * state.F[1, 1] - state.F[0, 1] * state.F[1, 0]
    assert abs(det_end - 1.0) < 1e-9
    assert worst < 1e-9


def test_self_convergence_against_fixed_step():
    params = CurveParams(2.0, -7.6119)
    paths = canonical_paths(params.a)
    adaptive = integrate_frame(paths.c1, params).F
    reference = reference_frame(paths.c1, params, n_steps=20_000).F
    scale = max(1.0, float(np.max(np.abs(adaptive))))
    assert float(np.max(np.abs(adaptive - reference))) / scale < 1e-8


def test_reference_frame_rejects_start_frame_off_sl2():
    params = CurveParams(2.0, -1.0)
    path = canonical_paths(params.a).c1
    with pytest.raises(DomainError, match="determinant 1"):
        reference_frame(path, params, 2.0 * np.eye(2, dtype=complex))


def test_reference_frame_checks_end_sheet_residual():
    # Three RK4 steps along c1 carry w far off the curve.
    params = CurveParams(2.0, -1.0)
    path = canonical_paths(params.a).c1
    with pytest.raises(ContinuationError, match="sheet residual"):
        reference_frame(path, params, n_steps=3)


def test_right_equivariance():
    params = CurveParams(2.0, -1.0)
    paths = canonical_paths(params.a)
    C = np.array([[2.0, 1.0j], [0.5, 1.0]], dtype=complex)
    C /= np.sqrt(np.linalg.det(C))
    plain = integrate_frame(paths.c1, params).F
    seeded = integrate_frame(paths.c1, params, F0=C).F
    scale = max(1.0, float(np.max(np.abs(seeded))))
    assert float(np.max(np.abs(seeded - plain @ C))) / scale < 1e-8


def test_homotopy_invariance_of_monodromy():
    params = CurveParams(2.0, -1.0)
    paths = canonical_paths(params.a)
    direct = direct_loop_holonomy(paths.gamma2, params)
    alternative = PathSpec(
        base_point(+1),
        (0j, 1.2 + 1.3j, 4.0 + 0.4j, 4.0 + 0j, 1.8 - 1.1j, 0j),
        closed=True,
    )
    other = direct_loop_holonomy(alternative, params)
    assert float(np.max(np.abs(direct - other))) < 1e-7


def test_scalar_ode_residuals():
    paths = canonical_paths(2.0)
    assert scalar_ode_residual(paths.c2, CurveParams(2.0, 1.0), 50) < 1e-8
    assert scalar_ode_residual(paths.c1, CurveParams(2.0, -1.0), 50) < 1e-8


def test_scalar_ode_residual_vanishing_c():
    params = CurveParams(2.0, 1e-14)
    paths = canonical_paths(params.a)
    assert scalar_ode_residual(paths.c1, params, 20) < 1e-16


def test_step_limit():
    params = CurveParams(2.0, 1.0)
    paths = canonical_paths(params.a)
    cfg = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15, max_steps=5)
    with pytest.raises(StepLimitExceeded):
        integrate_frame(paths.gamma1, params, cfg=cfg)


def test_initial_frame_must_be_unimodular():
    params = CurveParams(2.0, 1.0)
    paths = canonical_paths(params.a)
    with pytest.raises(DomainError):
        integrate_frame(paths.c1, params, F0=np.diag([2.0, 2.0]).astype(complex))


def test_config_validation():
    with pytest.raises(DomainError):
        IntegratorConfig(rel_tol=0.0)
    for bad in (
        {"rel_tol": math.nan},
        {"rel_tol": math.inf},
        {"abs_tol": math.inf},
        {"abs_tol": -1e-12},
        {"initial_step": 0.0},
        {"initial_step": -1.0},
        {"initial_step": math.nan},
        {"max_steps": 0},
    ):
        with pytest.raises(DomainError):
            IntegratorConfig(**bad)
    assert IntegratorConfig is _rk.IntegratorConfig and DEFAULT_CONFIG is _rk.DEFAULT_CONFIG
    assert DEFAULT_CONFIG.rel_tol == 1e-10
    assert DEFAULT_CONFIG.abs_tol == 1e-12


@pytest.mark.parametrize("c", [-7.6, -1.5, 1.27, 3.9])
def test_one_lane_matches_scalar_kernel(c):
    a = 2.0
    paths = canonical_paths(a)
    for path in (paths.c1, paths.c2):
        y0 = (1.0, 0.0, 0.0, 1.0, path.start.w)
        scalar_steps, lane_steps = [], []
        y = _rk.integrate_polyline(
            path.waypoints, y0, _joint_field(a, c),
            on_step=lambda z, y: scalar_steps.append(z),
        )
        lanes = _rk.integrate_polyline_lanes(
            path.waypoints, np.array(y0, dtype=complex)[:, None],
            _joint_field_lanes(a, np.array([c])),
            on_step=lambda z, y: lane_steps.append(z),
        )
        assert len(lane_steps) == len(scalar_steps)
        y = np.array(y)
        assert np.max(np.abs(lanes[:, 0] - y)) <= 1e-12 * np.max(np.abs(y))


def test_frames_over_c_match_integrate_frame():
    a, cs = 2.0, np.array([-4.0, -0.5, 2.0])
    path = canonical_paths(a).c2
    frames, w = integrate_frames_over_c(path, a, cs)
    assert frames.shape == (3, 2, 2) and w.shape == (3,)
    for c, F, w_end in zip(cs, frames, w):
        ref = integrate_frame(path, CurveParams(a, float(c)))
        assert np.max(np.abs(F - ref.F)) <= 1e-8 * max(1.0, float(np.max(np.abs(ref.F))))
        assert abs(w_end - ref.point.w) <= 1e-8 * abs(ref.point.w)


def test_frames_over_c_keep_the_checks(monkeypatch):
    path = canonical_paths(2.0).c2
    cs = np.array([-4.0, 1.0])
    with pytest.raises(PathError):
        integrate_frames_over_c(PathSpec(base_point(+1), (0.5j, 1.0 + 0.5j)), 2.0, cs)
    loose = IntegratorConfig(rel_tol=1e-4, abs_tol=1e-4)
    with pytest.raises(ContinuationError, match="sheet residual"):
        integrate_frames_over_c(path, 2.0, cs, loose)
    monkeypatch.setattr(transport, "TOL_DET", 1e-20)
    with pytest.raises(ContinuationError, match="determinant drift"):
        integrate_frames_over_c(path, 2.0, cs)


@pytest.mark.parametrize("r", [0.5, 2.7, 4.4])
def test_scaled_lane_matches_integrate_frame(r):
    # a lane with scale r follows r * waypoints; started with the step scaled
    # to match, it takes the steps integrate_frame takes on the scaled path
    a, c = 2.0, -1.526
    F0 = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
    unit = PathSpec(base_point(+1), (0j, 1j, np.exp(2.0j), np.exp(2.6j)))
    scaled = PathSpec(base_point(+1), tuple(r * z for z in unit.waypoints))
    ref = integrate_frame(scaled, CurveParams(a, c), F0=F0)
    cfg = IntegratorConfig(initial_step=DEFAULT_CONFIG.initial_step / r)
    F, w = integrate_frames_over_c(unit, a, c, cfg, F0=F0, scale=np.array([r]))
    assert np.max(np.abs(F[0] - ref.F)) <= 1e-12 * np.max(np.abs(ref.F))
    assert abs(w[0] - ref.point.w) <= 1e-12 * abs(ref.point.w)


def test_lane_checks_name_the_failing_lanes():
    # every lane's scaled polyline is validated: at scale 1 the segment ends
    # 0.05 from the branch point z = -1
    with pytest.raises(PathError):
        integrate_frames_over_c(
            PathSpec(base_point(+1), (0j, -1.0 + 0.05j)), 2.0, -1.526, scale=np.array([0.5, 1.0])
        )
    # a start value off the sheet fails that lane's sheet check only
    unit = PathSpec(base_point(+1), (0j, 1j, np.exp(2.0j)))
    w0 = np.ones(3, dtype=complex)
    w0[1] *= 1 + 1e-6
    with pytest.raises(LanesFailed, match="sheet residual") as exc:
        integrate_frames_over_c(
            unit, 2.0, -1.526, w0=w0, scale=np.array([0.5, 2.7, 4.4]), validated=True
        )
    assert exc.value.lanes == (1,)
    assert isinstance(exc.value, ContinuationError)


@pytest.mark.parametrize("a", [1.3, 2.0, 5.0])
def test_pieces_match_integrate_frame(a):
    # each half path in 18 pieces, as a 27-point scan block runs it
    cs = np.array([-9.0, -4.0, -0.5, 2.0, 4.0])
    paths = canonical_paths(a)
    for path in (paths.c1, paths.c2):
        frames, w = integrate_frames_in_pieces(path, a, cs, 18)
        assert frames.shape == (5, 2, 2) and w.shape == (5,)
        for c, F, w_end in zip(cs, frames, w):
            ref = integrate_frame(path, CurveParams(a, float(c)))
            assert np.max(np.abs(F - ref.F)) <= 1e-8 * max(1.0, float(np.max(np.abs(ref.F))))
            assert abs(w_end - ref.point.w) <= 1e-8 * abs(ref.point.w)


@pytest.mark.parametrize("name", ["c1", "c2"])
def test_one_piece_is_the_whole_path_bit_for_bit(name):
    a, cs = 2.0, np.linspace(-9.0, 4.0, 27)
    path = getattr(canonical_paths(a), name)
    frames, w = integrate_frames_in_pieces(path, a, cs, 1)
    whole_frames, whole_w = integrate_frames_over_c(path, a, cs)
    assert frames.tobytes() == whole_frames.tobytes()
    assert w.tobytes() == whole_w.tobytes()


def test_piece_on_the_wrong_sheet_raises():
    # from w = -1 the continuation is minus the principal root on which the
    # later pieces start: the second piece starts on the other sheet
    a, cs = 2.0, np.array([-4.0, 1.0])
    path = PathSpec(base_point(-1), canonical_paths(a).c2.waypoints)
    with pytest.raises(ContinuationError, match=r"other sheet at z = \(.+j\) for c = -4\.0$"):
        integrate_frames_in_pieces(path, a, cs, 6)
    # the whole path is continued by integration alone
    F, w = integrate_frames_in_pieces(path, a, cs, 1)
    ref = integrate_frame(path, CurveParams(a, -4.0))
    assert np.max(np.abs(F[0] - ref.F)) <= 1e-8 * max(1.0, float(np.max(np.abs(ref.F))))


def test_piece_checks_name_the_curve_point_and_c(monkeypatch):
    a, cs = 2.0, np.array([-4.0, 1.0])
    path = canonical_paths(a).c2
    loose = IntegratorConfig(rel_tol=1e-4, abs_tol=1e-4)
    with pytest.raises(ContinuationError) as exc:
        integrate_frames_in_pieces(path, a, cs, 6, loose)
    assert not isinstance(exc.value, LanesFailed)
    message = str(exc.value)
    assert message.startswith("sheet residual exceeded at z = (") and "lanes" not in message
    # the failing point lies on the curve's path, not on the unit segment
    z = complex(message.split("z = ")[1].split(" for")[0])
    assert z.imag > 0.0 and 0.0 < z.real < 4.0
    # a composed frame off SL(2) fails at the path's end, each piece passing
    mul = _rk._mul
    monkeypatch.setattr(_rk, "_mul", lambda x, y: tuple(2.0 * v for v in mul(x, y)))
    with pytest.raises(ContinuationError, match=r"drift .+ at z = \(4\+0j\) for c = -4\.0$"):
        integrate_frames_in_pieces(path, a, cs, 6)
    monkeypatch.undo()
    monkeypatch.setattr(transport, "TOL_DET", 1e-20)
    with pytest.raises(ContinuationError, match=r"determinant drift .+ for c = -4\.0$"):
        integrate_frames_in_pieces(path, a, cs, 6)


def _reference_field_lanes(a: float, cs, scale=1.0):
    """The lane field as first written, kept as the reference whose bits
    _joint_field_lanes must give: L from four separate reciprocals of
    numpy-scalar or per-lane sums, and cs * scale * u formed at every stage."""
    one, a_s = 1.0 / scale, a / scale
    cs_s = cs * scale

    def field(z, u, y):
        w = y[4]
        out = np.empty_like(y)
        top = out[0:2]
        np.multiply(y[2:4], w, out=top)
        np.subtract(y[0:2], top, out=top)
        top *= cs_s * u
        np.divide(top, w, out=out[2:4])
        L = 0.5 * (1 / (z + one) + 1 / (z - a_s) - 1 / (z - one) - 1 / (z + a_s))
        np.multiply(w, L * u, out=out[4])
        return out

    return field


def _lane_steps(field, waypoints, y0) -> tuple:
    """The accepted (z, y) states of the lane kernel as bytes, and the end state."""
    steps = []
    y = _rk.integrate_polyline_lanes(
        waypoints, y0, field, on_step=lambda z, y: steps.append((z, y.tobytes()))
    )
    return steps, y


def test_lane_field_steps_equal_the_reference_per_lane():
    # the rings of an 8 x 12 mesh of both sheets, leg by leg as build_mesh runs them
    a, c = 2.0, -1.526035
    radii = geometry._ring_radii(a, 8, 3.0 * a)
    angles = [2 * np.pi * (k + 0.5) / 12 for k in range(12)]
    order = sorted(range(12), key=lambda k: (angles[k] - np.pi / 2) % (2 * np.pi))
    scale = np.array(radii * 2)
    y = np.zeros((5, scale.size), dtype=complex)
    y[0] = y[3] = 1.0
    y[4, : len(radii)], y[4, len(radii):] = 1.0, -1.0
    for leg in geometry._unit_legs(angles, order):
        steps, end = _lane_steps(_joint_field_lanes(a, c, scale), leg, y)
        reference, y = _lane_steps(_reference_field_lanes(a, c, scale), leg, y)
        assert steps == reference
        assert end.tobytes() == y.tobytes()


@pytest.mark.parametrize("name", ["c1", "c2"])
def test_lane_field_steps_equal_the_reference_at_scale_one(name):
    # a scan block's lanes: one value of c each, scale 1
    a, cs = 2.0, np.linspace(-9.0, 4.0, 27)
    path = getattr(canonical_paths(a), name)
    y0 = np.zeros((5, cs.size), dtype=complex)
    y0[0] = y0[3] = 1.0
    y0[4] = path.start.w
    steps, end = _lane_steps(_joint_field_lanes(a, cs), path.waypoints, y0)
    reference, reference_end = _lane_steps(_reference_field_lanes(a, cs), path.waypoints, y0)
    assert steps == reference
    assert end.tobytes() == reference_end.tobytes()


# References for the curve helpers: the expressions that the fields, the sheet
# monitors and the end checks wrote out inline before they called
# curve.branch_offsets, log_derivative_of, rational_rhs_of and
# sheet_residual_of.  The helpers must reproduce them bit for bit.

PATH_NAMES = ("c1", "c2", "gamma1", "gamma2", "gamma3", "end_loop_plus", "end_loop_minus")


def _inline_joint_field(a: float, c: float):
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


def _inline_sheet_residual(z, w, a: float):
    r = (z + 1) * (z - a) / ((z - 1) * (z + a))
    return abs(w * w - r) / (1.0 + abs(r))


def _bits(states) -> bytes:
    return np.array([(z, *y) for z, y in states], dtype=complex).tobytes()


@pytest.mark.parametrize("c", [-1.526035, 1.26988])
def test_frame_steps_equal_the_inline_reference(c):
    a = 2.0
    params = CurveParams(a, c)
    cfg = DEFAULT_CONFIG
    k = branch_offsets(a)
    F0 = np.eye(2, dtype=complex)
    for name in PATH_NAMES:
        path = getattr(canonical_paths(params.a), name)
        states, reference = [], []
        end = integrate_frame(path, params, on_step=lambda z, y: states.append((z, y)))
        y = _rk.integrate_polyline(
            path.waypoints, (F0[0, 0], F0[0, 1], F0[1, 0], F0[1, 1], path.start.w),
            _inline_joint_field(a, c), cfg=cfg,
            on_step=lambda z, y: reference.append((z, y)),
        )
        assert len(states) > 10
        assert _bits(states) == _bits(reference), name
        assert end.F.tobytes() == np.array(y[:4], dtype=complex).tobytes()
        assert repr(end.point.w) == repr(y[4])
        for z, y in states:
            expected = _inline_sheet_residual(z, y[4], a)
            assert repr(sheet_residual_of(y[4], rational_rhs_of(z, k))) == repr(expected)
            assert repr(CurvePoint(z, y[4]).sheet_residual(a)) == repr(expected)


@pytest.mark.parametrize("c", [-1.526035, 1.26988])
def test_reference_frame_ends_equal_the_inline_reference(c):
    a = 2.0
    params = CurveParams(a, c)

    def rate(z, u):
        return 0.5 * (1 / (z + 1) + 1 / (z - a) - 1 / (z - 1) - 1 / (z + a)) * u

    def matrix(z, u, w):
        cu = c * u
        return cu, -cu * w, cu / w, -cu

    for name in PATH_NAMES:
        path = getattr(canonical_paths(params.a), name)
        end = reference_frame(path, params)
        F, w = _rk.integrate_polyline_rk4(
            path.waypoints, np.eye(2, dtype=complex), path.start.w, rate, matrix, 4000
        )
        assert end.F.tobytes() == F.tobytes(), name
        assert repr(end.point.w) == repr(w)


def _inline_lane_residual(z, w, a: float, scale):
    """The lanes' sheet residual from check_sheet's inline terms: |w^2 - R|
    over the lanes, and |R| taken as the scalar monitors took it where R is
    one Python complex for all lanes (scale 1)."""
    one, a_s = 1.0 / scale, a / scale
    r = (z + one) * (z - a_s) / ((z - one) * (z + a_s))
    return np.abs(w * w - r) / (1.0 + abs(r))


@pytest.mark.parametrize("name", ["c1", "c2"])
def test_scan_block_end_states_equal_the_inline_reference(name):
    a, cs = 2.0, np.linspace(-9.0, 4.0, 27)
    path = getattr(canonical_paths(a), name)
    frames, w = integrate_frames_over_c(path, a, cs)
    y0 = np.zeros((5, cs.size), dtype=complex)
    y0[0] = y0[3] = 1.0
    y0[4] = path.start.w
    steps = []
    reference = _rk.integrate_polyline_lanes(
        path.waypoints, y0, _reference_field_lanes(a, cs),
        on_step=lambda z, y: steps.append((z, y.copy())),
    )
    assert frames.tobytes() == reference[:4].T.reshape(-1, 2, 2).tobytes()
    assert w.tobytes() == reference[4].tobytes()
    k = branch_offsets(a)
    for z, y in steps:
        residual = sheet_residual_of(y[4], rational_rhs_of(z, k))
        assert residual.tobytes() == _inline_lane_residual(z, y[4], a, 1.0).tobytes()


def test_ring_end_states_equal_the_inline_reference():
    # the rings of an 8 x 12 mesh of both sheets, leg by leg as build_mesh runs them
    a, c = 2.0, -1.526035
    radii = geometry._ring_radii(a, 8, 3.0 * a)
    angles = [2 * np.pi * (k + 0.5) / 12 for k in range(12)]
    order = sorted(range(12), key=lambda k: (angles[k] - np.pi / 2) % (2 * np.pi))
    scale = np.array(radii * 2)
    k = branch_offsets(a, scale)
    y = np.zeros((5, scale.size), dtype=complex)
    y[0] = y[3] = 1.0
    y[4, : len(radii)], y[4, len(radii):] = 1.0, -1.0
    for leg in geometry._unit_legs(angles, order):
        F, w = integrate_frames_over_c(
            PathSpec(CurvePoint(leg[0], 1.0 + 0j), leg), a, c,
            F0=y[:4].T.reshape(-1, 2, 2), w0=y[4], scale=scale, validated=True,
        )
        steps, y = _lane_steps(_reference_field_lanes(a, c, scale), leg, y)
        assert F.tobytes() == y[:4].T.reshape(-1, 2, 2).tobytes()
        assert w.tobytes() == y[4].tobytes()
        for z, state in steps:
            w_z = np.frombuffer(state, dtype=complex).reshape(5, -1)[4]
            residual = sheet_residual_of(w_z, rational_rhs_of(z, k))
            assert residual.tobytes() == _inline_lane_residual(z, w_z, a, scale).tobytes()
