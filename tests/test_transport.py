import cmath
import math
import pickle

import numpy as np
import pytest

from dscat import _rk, geometry, transport
from dscat.curve import (
    CurveParams,
    CurvePoint,
    PathSpec,
    branch_offsets,
    canonical_paths,
    rational_rhs_of,
    sheet_residual_of,
    transport_w,
)
from dscat.errors import (
    ContinuationError,
    DomainError,
    DscatError,
    LanesFailed,
    PathError,
    StepLimitExceeded,
)
from dscat.monodromy import direct_loop_holonomy
from dscat.transport import (
    DEFAULT_CONFIG,
    IntegratorConfig,
    _joint_field,
    integrate_frame,
    integrate_frames_over_c,
    reference_frame,
    scalar_ode_residual,
    transfer,
)

from conftest import reference_lanes

PATH_NAMES = ("c1", "c2", "gamma1", "gamma2", "gamma3", "end_loop_plus", "end_loop_minus")


def test_tiny_c_keeps_frame_constant():
    params = CurveParams(2.0, 1e-14)
    paths = canonical_paths(params.a)
    F, _ = integrate_frame(paths.c2, params)
    assert np.max(np.abs(F - np.eye(2))) < 1e-12


def test_det_preserved_along_path():
    params = CurveParams(2.0, 1.0)
    paths = canonical_paths(params.a)
    worst = 0.0

    def capture(z, y):
        nonlocal worst
        det = y[0] * y[3] - y[1] * y[2]
        worst = max(worst, abs(det - 1.0))

    F, _ = integrate_frame(paths.c2, params, on_step=capture)
    det_end = F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0]
    assert abs(det_end - 1.0) < 1e-9
    assert worst < 1e-9


def test_self_convergence_against_fixed_step():
    params = CurveParams(2.0, -7.6119)
    paths = canonical_paths(params.a)
    adaptive, _ = integrate_frame(paths.c1, params)
    reference, _ = reference_frame(paths.c1, params, n_steps=20_000)
    scale = max(1.0, float(np.max(np.abs(adaptive))))
    assert float(np.max(np.abs(adaptive - reference))) / scale < 1e-8


def test_reference_frame_rejects_start_frame_off_sl2():
    params = CurveParams(2.0, -1.0)
    path = canonical_paths(params.a).c1
    with pytest.raises(DomainError, match="determinant 1"):
        reference_frame(path, params, 2.0 * np.eye(2, dtype=complex))


def test_reference_frame_checks_end_sheet_residual(monkeypatch):
    # w off the curve, as a wrong closed form would leave it
    params = CurveParams(2.0, -1.0)
    path = canonical_paths(params.a).c1
    continue_w = transport.continue_w
    monkeypatch.setattr(transport, "continue_w", lambda *args: 1.5 * continue_w(*args))
    with pytest.raises(ContinuationError, match="sheet residual"):
        reference_frame(path, params)


@pytest.mark.parametrize("name", PATH_NAMES)
def test_reference_frame_ends_at_transport_w(name):
    params = CurveParams(2.0, -1.526035)
    path = getattr(canonical_paths(params.a), name)
    assert reference_frame(path, params)[1] == transport_w(path, params.a).w


def test_reference_frame_self_convergence():
    # 4000 against 40 000 steps: at most 2.3e-12 of max(1, |F|) (c1 at
    # c = -1.526035), RK4's truncation error at reference_frame's default
    for c in (-7.611914, -1.526035, 1.26988, 5.33317):
        params = CurveParams(2.0, c)
        paths = canonical_paths(params.a)
        for path in (paths.c1, paths.c2):
            F, _ = reference_frame(path, params)
            fine, _ = reference_frame(path, params, n_steps=40_000)
            scale = max(1.0, float(np.max(np.abs(fine))))
            assert float(np.max(np.abs(F - fine))) <= 3e-12 * scale, c


def test_right_equivariance():
    params = CurveParams(2.0, -1.0)
    paths = canonical_paths(params.a)
    C = np.array([[2.0, 1.0j], [0.5, 1.0]], dtype=complex)
    C /= np.sqrt(np.linalg.det(C))
    plain, _ = integrate_frame(paths.c1, params)
    seeded, _ = integrate_frame(paths.c1, params, F0=C)
    scale = max(1.0, float(np.max(np.abs(seeded))))
    assert float(np.max(np.abs(seeded - plain @ C))) / scale < 1e-8


def test_homotopy_invariance_of_monodromy():
    params = CurveParams(2.0, -1.0)
    paths = canonical_paths(params.a)
    direct = direct_loop_holonomy(paths.gamma2, params)
    alternative = PathSpec(complex(+1), (0j, 1.2 + 1.3j, 4.0 + 0.4j, 4.0 + 0j, 1.8 - 1.1j, 0j))
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


def test_step_limit(monkeypatch):
    params = CurveParams(2.0, 1.0)
    paths = canonical_paths(params.a)
    cfg = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)
    monkeypatch.setattr(_rk, "MAX_STEPS", 5)
    with pytest.raises(StepLimitExceeded):
        integrate_frame(paths.gamma1, params, cfg=cfg)


def test_step_size_underflow_names_the_curve_point_and_c():
    # at c = -1e6 no step longer than 1e-14 of c1's second segment meets the
    # tolerances before its end; the error survives the worker's pickling
    a, c = 2.0, -1e6
    c1 = canonical_paths(a).c1
    p, q = c1.waypoints[1:]
    path = PathSpec(transport_w(PathSpec(c1.w0, c1.waypoints[:2]), a).w, (p, q))
    with pytest.raises(StepLimitExceeded) as exc:
        integrate_frame(path, CurveParams(a, c))
    for error in (exc.value, pickle.loads(pickle.dumps(exc.value))):
        assert type(error) is StepLimitExceeded
        head, _, tail = str(error).partition(" at z = ")
        z, _, c_named = tail.partition(" for c = ")
        assert head == "step size underflow" and float(c_named) == c
        assert abs(abs(complex(z) - p) + abs(q - complex(z)) - abs(q - p)) < 1e-12


def test_lane_step_errors_name_the_first_lane(monkeypatch):
    # an underflow or a step budget names the first lane's point of the
    # curve, scale * z, and c; an error without a point passes unchanged
    unit = PathSpec(complex(+1), (0j, 1j))
    cs, scale = np.array([-1.5, -2.0]), np.array([2.0, 3.0])
    underflow = StepLimitExceeded("step size underflow", 0.5j)
    for raised, message in (
        (underflow, "step size underflow at z = 1j for c = -1.5"),
        (StepLimitExceeded("exceeded 7 steps", 0.5j), "exceeded 7 steps at z = 1j for c = -1.5"),
        (StepLimitExceeded("exceeded 7 steps"), "exceeded 7 steps"),
    ):
        def kernel(*args, **kwargs):
            raise raised

        monkeypatch.setattr(_rk, "integrate_polyline_lanes", kernel)
        with pytest.raises(StepLimitExceeded) as exc:
            integrate_frames_over_c(unit, 2.0, cs, scale=scale)
        assert str(exc.value) == message


def test_lane_kernel_takes_the_initial_step_and_names_its_budget(monkeypatch):
    # test_rk.py's controller cases on the frame lane kernel: a first step
    # of 1e-3 along c2 is accepted as it is, and a budget of 3 steps names
    # the first lane's c and the point where the fourth step starts, a point
    # the unbounded integration reaches
    a, cs = 2.0, np.array([-1.526035, 1.26988])
    path = canonical_paths(a).c2
    u = path.waypoints[1] / abs(path.waypoints[1])
    seen, reached = [], []
    with monkeypatch.context() as patch:
        patch.setattr(_rk, "INITIAL_STEP", 1e-3)
        integrate_frames_over_c(path, a, cs, on_step=lambda z, y: seen.append(z))
    assert seen[0] == 1e-3 * u
    integrate_frames_over_c(path, a, cs, on_step=lambda z, y: reached.append(z))
    monkeypatch.setattr(_rk, "MAX_STEPS", 3)
    with pytest.raises(StepLimitExceeded) as exc:
        integrate_frames_over_c(path, a, cs)
    head, _, tail = str(exc.value).partition(" at z = ")
    z, _, c_named = tail.partition(" for c = ")
    assert head == "exceeded 3 steps" and float(c_named) == cs[0]
    assert complex(z) in reached[:3]


def test_lane_overflow_ends_in_step_size_underflow():
    # on c1's second segment at c = -1e6 and -2e6 the lanes' stage sums
    # overflow before the step size underflows; the overflow stays inside
    # the step, which a RuntimeWarning, an error here, would leave.  The
    # lanes start from diag(1e154, 1e-154), so they overflow after a short
    # run-up; 154 is the largest exponent whose frame _start_frame passes
    # with a finite scale (max |F|^2 = 1e308)
    a = 2.0
    c1 = canonical_paths(a).c1
    path = PathSpec(transport._waypoint_w(c1, branch_offsets(a))[1], c1.waypoints[1:3])
    F0 = np.diag([1e154, 1e-154]).astype(complex)
    assert np.isfinite(np.max(np.abs(F0)) ** 2)
    with pytest.raises(StepLimitExceeded) as exc:
        integrate_frames_over_c(path, a, np.array([-1e6, -2e6]), F0=F0)
    head, _, tail = str(exc.value).partition(" at z = ")
    assert head == "step size underflow" and tail.endswith(" for c = -1000000.0")


def test_initial_frame_must_be_unimodular():
    params = CurveParams(2.0, 1.0)
    paths = canonical_paths(params.a)
    with pytest.raises(DomainError):
        integrate_frame(paths.c1, params, F0=np.diag([2.0, 2.0]).astype(complex))


def test_start_frame_with_a_nan_entry_is_rejected():
    # NaN passes no comparison, so the drift rule must fail it, not pass it
    with pytest.raises(DomainError, match="^initial frame must have determinant 1$"):
        transport._start_frame(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_config_validation():
    with pytest.raises(DomainError):
        IntegratorConfig(rel_tol=0.0)
    for bad in (
        {"rel_tol": math.nan},
        {"rel_tol": math.inf},
        {"abs_tol": math.inf},
        {"abs_tol": -1e-12},
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
        y0 = (1.0, 0.0, 0.0, 1.0, path.w0)
        scalar_steps, lane_steps = [], []
        y = _rk.integrate_polyline(
            path.waypoints, y0, _joint_field(a, c),
            on_step=lambda z, y: scalar_steps.append(z),
        )
        lanes = _rk.integrate_polyline_lanes(
            path.waypoints, np.array(y0, dtype=complex)[:, None],
            np.array([c]), branch_offsets(a, np.ones(1)),
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
        F_ref, w_ref = integrate_frame(path, CurveParams(a, float(c)))
        assert np.max(np.abs(F - F_ref)) <= 1e-8 * max(1.0, float(np.max(np.abs(F_ref))))
        assert abs(w_end - w_ref) <= 1e-8 * abs(w_ref)


def test_callers_validate_the_path():
    # the path ends 0.05 from the branch point z = 1; integrate_frames_over_c
    # leaves validate_path to its callers
    path = PathSpec(complex(+1), (0j, 1.0 + 0.05j))
    cs = np.array([-4.0, 1.0])
    with pytest.raises(PathError):
        integrate_frame(path, CurveParams(2.0, -4.0))
    with pytest.raises(PathError):
        transfer(path, 2.0, cs)


def test_frames_over_c_keep_the_checks(monkeypatch):
    path = canonical_paths(2.0).c2
    cs = np.array([-4.0, 1.0])
    loose = IntegratorConfig(rel_tol=1e-4, abs_tol=1e-4)
    with pytest.raises(ContinuationError, match="sheet residual"):
        integrate_frames_over_c(path, 2.0, cs, loose)
    monkeypatch.setattr(transport, "TOL_DET", 1e-20)
    with pytest.raises(ContinuationError, match="determinant drift"):
        integrate_frames_over_c(path, 2.0, cs)


@pytest.mark.parametrize("r", [0.5, 2.7, 4.4])
def test_scaled_lane_matches_integrate_frame(r, monkeypatch):
    # a lane with scale r follows r * waypoints; started with the step scaled
    # to match, it takes the steps integrate_frame takes on the scaled path
    a, c = 2.0, -1.526
    F0 = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
    unit = PathSpec(complex(+1), (0j, 1j, np.exp(2.0j), np.exp(2.6j)))
    scaled = PathSpec(complex(+1), tuple(r * z for z in unit.waypoints))
    F_ref, w_ref = integrate_frame(scaled, CurveParams(a, c), F0=F0)
    with monkeypatch.context() as patch:
        patch.setattr(_rk, "INITIAL_STEP", _rk.INITIAL_STEP / r)
        F, w = integrate_frames_over_c(unit, a, c, F0=F0, scale=np.array([r]))
    assert np.max(np.abs(F[0] - F_ref)) <= 1e-12 * np.max(np.abs(F_ref))
    assert abs(w[0] - w_ref) <= 1e-12 * abs(w_ref)


def test_lane_checks_name_the_failing_lanes():
    # a start value off the sheet fails that lane's sheet check only
    unit = PathSpec(complex(+1), (0j, 1j, np.exp(2.0j)))
    w0 = np.ones(3, dtype=complex)
    w0[1] *= 1 + 1e-6
    with pytest.raises(LanesFailed, match="sheet residual") as exc:
        integrate_frames_over_c(unit, 2.0, -1.526, w0=w0, scale=np.array([0.5, 2.7, 4.4]))
    assert exc.value.lanes == (1,)
    assert isinstance(exc.value, ContinuationError)
    assert str(exc.value).endswith(" for c = -1.526") and "lanes" not in str(exc.value)


def test_both_kernels_fail_in_one_format():
    # at loose tolerances w leaves the curve on c2, on the scalar kernel and
    # on the lane kernel alike: one message shape, a point of the path and the c
    a, c = 2.0, -1.526035
    path = canonical_paths(a).c2
    loose = IntegratorConfig(rel_tol=1e-4, abs_tol=1e-4)
    with pytest.raises(LanesFailed) as scalar:
        integrate_frame(path, CurveParams(a, c), cfg=loose)
    with pytest.raises(LanesFailed) as lanes:
        integrate_frames_over_c(path, a, np.array([c, c]), loose)
    assert scalar.value.lanes == (0,) and lanes.value.lanes == (0, 1)
    for exc in (scalar.value, lanes.value):
        head, _, tail = str(exc).partition(" at z = ")
        z, _, c_named = tail.partition(" for c = ")
        assert head == "sheet residual exceeded"
        assert float(c_named) == c
        assert 0.0 <= complex(z).real <= 2 * a and 0.0 <= complex(z).imag <= 0.8


def _error(F: np.ndarray, R: np.ndarray) -> float:
    """The worst over the lanes of max |F - R| / max(1, max |R|)."""
    scale = np.maximum(1.0, np.abs(R).max(axis=(1, 2)))
    return float((np.abs(F - R).max(axis=(1, 2)) / scale).max())


def _first_steps(path, a, cs) -> int:
    """The steps of path's first Magnus grid for the c in cs, before
    refinement."""
    return transport._first_grid(path, a, float(np.max(np.abs(cs))), cs)[0].size


@pytest.mark.parametrize("a", [1.3, 2.0, 5.0])
@pytest.mark.parametrize("name", ["c1", "c2"])
def test_transfer_matches_dp5(a, name):
    # measured: at most 3.0e-11, at a = 5 on c2, whose |F| reaches 1e5
    cs = np.array([-9.0, -4.0, -0.5, 2.0, 4.0])
    path = getattr(canonical_paths(a), name)
    reference, w_ref = integrate_frames_over_c(path, a, cs, IntegratorConfig(rel_tol=1e-13))
    frames, w = transfer(path, a, cs)
    assert frames.shape == (cs.size, 2, 2)
    assert _error(frames, reference) <= 1e-10
    assert np.max(np.abs(w - w_ref)) <= 1e-12


def test_transfer_along_a_point_is_the_identity():
    path = PathSpec(complex(-1), (0j,))
    F, w = transfer(path, 2.0, np.array([-4.0, 1.0]))
    assert F.tolist() == [np.eye(2).tolist()] * 2 and w == -1


@pytest.mark.parametrize("name", ["c1", "c2"])
def test_the_curve_symmetries_act_exactly_on_transfer(name):
    # A = c dz [[1, -w], [1/w, -1]] on w^2 = (z+1)(z-a) / ((z-1)(z+a)), c real:
    # conj(A) is A at (conj z, conj w), S A S is A at (z, -w) and J A J is
    # A at (-z, 1/w) with dz -> -dz, and each map keeps the curve.  The first
    # two only flip signs, which rounds no float, so the frames agree byte
    # for byte.  The third holds to rounding only, since 1/w and the steps at
    # -z round differently: 1.2e-13 of max(1, |T|) measured, on c2 at
    # -7.611914, and at most 3.0e-15 elsewhere, inside the bound 1e-12.
    a, cs = 2.0, np.array([-1.526035, 1.26988, -7.611914])
    path = getattr(canonical_paths(a), name)
    waypoints = np.array(path.waypoints)
    S, J = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    F, _ = transfer(path, a, cs)
    conjugate, _ = transfer(PathSpec(path.w0.conjugate(), tuple(waypoints.conj())), a, cs)
    other_sheet, _ = transfer(PathSpec(-path.w0, path.waypoints), a, cs)
    reflected, _ = transfer(PathSpec(1.0 / path.w0, tuple(-waypoints)), a, cs)
    assert F.conj().tobytes() == conjugate.tobytes()
    assert (S @ F @ S).tobytes() == other_sheet.tobytes()
    scale = np.maximum(1.0, np.abs(F).max(axis=(1, 2)))
    assert np.max(np.abs(J @ F @ J - reflected).max(axis=(1, 2)) / scale) <= 1e-12


def test_transfer_fails_closed_on_an_overflowed_frame():
    # at c = -3e5 the frame along c1 overflows to inf and NaN: the drift
    # check names the c instead of handing the frame back
    with pytest.raises(LanesFailed) as exc:
        transfer(canonical_paths(2.0).c1, 2.0, np.array([-3e5]))
    assert str(exc.value) == "scaled determinant drift nan at z = (1.5+0j) for c = -300000.0"
    assert exc.value.lanes == (0,)


@pytest.mark.parametrize("a", [1.3, 2.0, 5.0])
def test_transfer_keeps_the_determinant(a):
    cs = np.linspace(-12.0, 6.0, 19)
    paths = canonical_paths(a)
    for path in (paths.c1, paths.c2):
        F, _ = transfer(path, a, cs)
        det = F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0]
        scale = np.maximum(1.0, np.abs(F).max(axis=(1, 2))) ** 2
        assert np.max(np.abs(det - 1.0) / scale) <= 1e-13


def test_the_series_exp_matches_the_closed_form(monkeypatch):
    # the steps of c2's first grid, unrefined, lie on both sides of
    # _SERIES_S2: exp(Omega) summed as a series where |s^2| is small equals
    # the closed form cosh(s) I + sinh(s)/s Omega to rounding
    a, cs = 2.0, np.array([-9.0, -4.0, -0.5, 2.0, 4.0])
    path, k = canonical_paths(a).c2, branch_offsets(a)
    segment, t0, dt = transport._first_grid(path, a, 9.0, cs)
    points, w = np.array(path.waypoints), np.array(transport._waypoint_w(path, k))
    p, along = points[segment], points[segment + 1] - points[segment]
    M, _ = transport._magnus_terms(p + along * t0, along * dt, p, w[segment], k, 9.0)
    omega = sum(M[j][..., None] * cs ** (j + 1) for j in range(5))
    s2 = np.abs(omega[0] ** 2 + omega[1] * omega[2])
    assert s2.min() < transport._SERIES_S2 < s2.max()
    mixed = np.array(transport._step_matrices(M, cs.astype(complex)))
    monkeypatch.setattr(transport, "_SERIES_S2", 0.0)
    closed = np.array(transport._step_matrices(M, cs.astype(complex)))
    assert np.max(np.abs(mixed - closed)) <= 1e-15 * np.max(np.abs(closed))


@pytest.mark.parametrize("name", ["c1", "c2"])
def test_transfer_converges_at_sixth_order(monkeypatch, name):
    # the first grid alone, unrefined: halving its steps cuts the error by
    # 2^6 = 64 in the limit (measured 50-61 at a = 2)
    a, cs = 2.0, np.array([-9.0, -4.0, -0.5, 2.0, 4.0])
    path = getattr(canonical_paths(a), name)
    reference, _ = integrate_frames_over_c(path, a, cs, IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15))
    monkeypatch.setattr(transport, "MAGNUS_TOL", math.inf)
    errors = []
    for step in (0.4, 0.2):
        monkeypatch.setattr(transport, "MAGNUS_STEP", step)
        errors.append(_error(transfer(path, a, cs)[0], reference))
    assert errors[1] > 1e-11  # above the rounding
    assert errors[0] >= 40 * errors[1]


def test_the_estimate_refines_a_coarsened_grid(monkeypatch):
    # a first grid ten times as coarse: the refined grid keeps the accuracy
    # that the same grid unrefined loses
    a, cs = 2.0, np.array([-9.0, -4.0, -0.5, 2.0, 4.0])
    path = canonical_paths(a).c2
    reference, _ = integrate_frames_over_c(path, a, cs, IntegratorConfig(rel_tol=1e-13))
    default = _error(transfer(path, a, cs)[0], reference)
    monkeypatch.setattr(transport, "MAGNUS_STEP", 10 * transport.MAGNUS_STEP)
    coarse_steps = _first_steps(path, a, cs)
    refined = _error(transfer(path, a, cs)[0], reference)
    monkeypatch.setattr(transport, "MAGNUS_TOL", math.inf)
    unrefined = _error(transfer(path, a, cs)[0], reference)
    assert coarse_steps < 20 and unrefined > 1e-3
    assert refined <= max(1e-10, 2 * default)


def test_transfer_step_limit_names_the_curve_point_and_c(monkeypatch):
    # the c named is the one of largest modulus, which sets the grid
    a, cs = 2.0, np.array([2.0, -9.0, -4.0])
    paths = canonical_paths(a)
    for path in (paths.c1, paths.c2):
        first = _first_steps(path, a, cs)
        # over the first grid, and over the refined grid only
        for budget in (first - 1, first + 1):
            with monkeypatch.context() as patch, pytest.raises(StepLimitExceeded) as exc:
                patch.setattr(_rk, "MAX_STEPS", budget)
                transfer(path, a, cs)
            head, _, tail = str(exc.value).partition(" by z = ")
            z, _, c = tail.partition(" for c = ")
            assert head == f"Magnus grid exceeds {budget} steps"
            assert complex(z) in path.waypoints[1:] and float(c) == -9.0


@pytest.mark.parametrize("a", [1.3, 2.0, 5.0])
def test_pieces_match_integrate_frame(a):
    # a scan cuts its c grid into blocks, and each block's half paths run on
    # a grid refined for that piece's own largest |c|: however the c are cut,
    # each piece's frames are integrate_frame's at each of its c
    cs = np.array([-9.0, -4.0, -0.5, 2.0, 4.0])
    paths = canonical_paths(a)
    for path in (paths.c1, paths.c2):
        for piece in (cs[:2], cs[2:]):
            frames, w = transfer(path, a, piece)
            assert frames.shape == (piece.size, 2, 2)
            for c, F in zip(piece, frames):
                F_ref, w_ref = integrate_frame(path, CurveParams(a, float(c)))
                assert np.max(np.abs(F - F_ref)) <= 1e-8 * max(1.0, float(np.max(np.abs(F_ref))))
                assert abs(w - w_ref) <= 1e-8 * abs(w_ref)


@pytest.mark.parametrize("a", [1.3, 2.0, 5.0])
@pytest.mark.parametrize("name", ["gamma1", "end_loop_plus", "end_loop_minus"])
def test_transfer_around_loops_matches_dp5(a, name):
    # the loops leave the upper half plane, where w is not the principal
    # root of R.  At a = 5 and c = -9 the end loops' frames leave SL(2) even
    # at rel_tol 1e-13, so the loops run at |c| <= 4.  Measured: at most
    # 1.2e-9, the end loops at a = 5, where |F| reaches 1e9 along the way
    # (DP5 at its default tolerances is 1.4e-8 off there).
    cs = np.array([-4.0, -0.5, 2.0, 4.0])
    path = getattr(canonical_paths(a), name)
    reference, _ = integrate_frames_over_c(path, a, cs, IntegratorConfig(rel_tol=1e-13))
    frames, w = transfer(path, a, cs)
    assert _error(frames, reference) <= 1e-8
    assert abs(w - path.w0) <= 1e-12


def test_transfer_checks_name_the_curve_point_and_c(monkeypatch):
    a, cs = 2.0, np.array([-4.0, 1.0])
    path = canonical_paths(a).c2
    # end frames off SL(2), from a product that rounds badly, or past a
    # tighter rule, fail at the path's end
    mul = _rk._mul
    monkeypatch.setattr(_rk, "_mul", lambda x, y: tuple(2.0 * v for v in mul(x, y)))
    with pytest.raises(LanesFailed, match=r"drift .+ at z = \(4\+0j\) for c = -4\.0$"):
        transfer(path, a, cs)
    monkeypatch.undo()
    monkeypatch.setattr(transport, "TOL_DET", 1e-20)
    with pytest.raises(LanesFailed, match=r"determinant drift .+ at z = \(4\+0j\) for c = -4\.0$"):
        transfer(path, a, cs)


def _reference_field_lanes(a: float, cs, scale=1.0):
    """The lane field as first written, kept as the reference whose bits
    the lane kernel's frame field must give: L from four separate
    reciprocals of numpy-scalar or per-lane sums, and cs * scale * u formed
    at every stage."""
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


def _on_both_kernels(monkeypatch, call, a: float, c: float, scale) -> list:
    """call(on_step) on the lane kernel and, in its place, on the one it
    replaced: conftest.reference_lanes on _reference_field_lanes(a, c, scale).
    For each, the accepted (z, y) states as bytes and the bytes of the (F, w)
    call returned, or the type, lanes and message of the DscatError it
    raised."""

    def replaced_kernel(waypoints, y0, cs, k, *, cfg, on_step):
        field = _reference_field_lanes(a, c, scale)
        return reference_lanes(waypoints, y0, field, cfg=cfg, on_step=on_step)

    runs = []
    for kernel in (_rk.integrate_polyline_lanes, replaced_kernel):
        steps = []
        with monkeypatch.context() as m:
            m.setattr(_rk, "integrate_polyline_lanes", kernel)
            try:
                F, w = call(lambda z, y: steps.append((z, y.tobytes())))
                outcome = (F.tobytes(), w.tobytes())
            except DscatError as exc:
                outcome = (type(exc), getattr(exc, "lanes", None), str(exc))
        runs.append((steps, outcome))
    return runs


def _mesh_lanes(a: float, nu: int, nv: int) -> tuple:
    """(legs, scale, y0) of the rings of both sheets of a nu x nv mesh from
    the identity frame, split into legs as build_mesh runs them."""
    radii = geometry._ring_radii(a, nu, 3.0 * a)
    angles = [2 * np.pi * (k + 0.5) / nv for k in range(nv)]
    order = sorted(range(nv), key=lambda k: (angles[k] - np.pi / 2) % (2 * np.pi))
    y0 = np.zeros((5, 2 * len(radii)), dtype=complex)
    y0[0] = y0[3] = 1.0
    y0[4, : len(radii)], y0[4, len(radii):] = 1.0, -1.0
    return geometry._unit_legs(angles, order), np.array(radii * 2), y0


@pytest.mark.parametrize("nu, nv", [(24, 24), (8, 12)])
@pytest.mark.parametrize("root", ["shallow_solution", "hyperbolic_solution", "deep_solution"])
def test_mesh_legs_equal_the_parent_kernel(request, monkeypatch, root, nu, nv):
    # every leg of the mesh at the a = 2 roots -1.526035, 1.26988 and
    # -7.611914, on the lane kernel and on the one it replaced: the same
    # accepted (z, y) per lane and the same end states
    sol = request.getfixturevalue(root)
    real = geometry.integrate_frames_over_c
    legs = []

    def both(path, a, c, cfg, **kwargs):
        runs = _on_both_kernels(
            monkeypatch, lambda on_step: real(path, a, c, cfg, on_step=on_step, **kwargs),
            a, c, kwargs["scale"],
        )
        assert runs[0] == runs[1]
        legs.append(len(runs[0][0]))
        return real(path, a, c, cfg, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(geometry, "integrate_frames_over_c", both)
        geometry.build_mesh(sol, nu, nv)
    assert len(legs) == nv + 1 and min(legs) > 0


def test_failing_lanes_equal_the_parent_kernel(monkeypatch):
    # at rel_tol 1e-6 the outermost ring of each sheet of an 8 x 12 mesh
    # leaves the curve on the radial leg: both kernels fail at the same step,
    # naming the same lanes, point of the curve and c
    a, c = 2.0, -1.526035
    legs, scale, y0 = _mesh_lanes(a, 8, 12)
    loose = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-6)
    runs = _on_both_kernels(monkeypatch, lambda on_step: integrate_frames_over_c(
        PathSpec(1.0 + 0j, legs[0]), a, c, loose,
        F0=y0[:4].T.reshape(-1, 2, 2), w0=y0[4], scale=scale, on_step=on_step,
    ), a, c, scale)
    assert runs[0] == runs[1]
    kind, lanes, message = runs[0][1]
    assert kind is LanesFailed and lanes == (7, 15)
    assert message.startswith("sheet residual exceeded at z = ")
    assert message.endswith(f" for c = {c}")


# References for the curve helpers: the expressions that the fields, the sheet
# monitors and the end checks wrote out inline before they called
# curve.branch_offsets, log_derivative_of, rational_rhs_of and
# sheet_residual_of.  The helpers must reproduce them bit for bit.


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
        F_end, w_end = integrate_frame(path, params, on_step=lambda z, y: states.append((z, y)))
        y = _rk.integrate_polyline(
            path.waypoints, (F0[0, 0], F0[0, 1], F0[1, 0], F0[1, 1], path.w0),
            _inline_joint_field(a, c), cfg=cfg,
            on_step=lambda z, y: reference.append((z, y)),
        )
        assert len(states) > 10
        assert _bits(states) == _bits(reference), name
        assert F_end.tobytes() == np.array(y[:4], dtype=complex).tobytes()
        assert repr(w_end) == repr(y[4])
        for z, y in states:
            expected = _inline_sheet_residual(z, y[4], a)
            assert repr(sheet_residual_of(y[4], rational_rhs_of(z, k))) == repr(expected)
            assert repr(CurvePoint(z, y[4]).sheet_residual(a)) == repr(expected)


def _inline_w(p, q, w, a: float, sqrt):
    r0, r1, r2, r3 = (q + 1) / (p + 1), (q - a) / (p - a), (q - 1) / (p - 1), (q + a) / (p + a)
    return w * (sqrt(r0) * sqrt(r1) / (sqrt(r2) * sqrt(r3)))


@pytest.mark.parametrize("c", [-1.526035, 1.26988])
def test_reference_frame_ends_equal_the_inline_reference(c):
    a = 2.0
    params = CurveParams(a, c)
    for name in PATH_NAMES:
        path = getattr(canonical_paths(params.a), name)
        points = path.waypoints
        w = [path.w0]
        for p, q in zip(points[:-1], points[1:]):
            w.append(_inline_w(p, q, w[-1], a, cmath.sqrt))

        def matrix(i, z, u):
            w_z = _inline_w(points[i], z, w[i], a, np.sqrt)
            cu = c * u
            return cu, -cu * w_z, cu / w_z, -cu

        F_end, w_end = reference_frame(path, params)
        F = _rk.integrate_polyline_rk4(points, np.eye(2, dtype=complex), matrix, 4000)
        assert F_end.tobytes() == F.tobytes(), name
        assert repr(w_end) == repr(w[-1])


def _inline_lane_residual(z, w, a: float, scale):
    """The lanes' sheet residual from check_sheet's inline terms: |w^2 - R|
    over the lanes, and |R| taken as the scalar monitors took it where R is
    one Python complex for all lanes (scale 1)."""
    one, a_s = 1.0 / scale, a / scale
    r = (z + one) * (z - a_s) / ((z - one) * (z + a_s))
    return np.abs(w * w - r) / (1.0 + abs(r))


@pytest.mark.parametrize("name", ["c1", "c2"])
def test_scan_block_end_states_equal_the_inline_reference(name):
    # one value of c per lane at the scale 1.0, which integrate_frames_over_c
    # hands the lane kernel as one per lane
    a, cs = 2.0, np.linspace(-9.0, 4.0, 27)
    path = getattr(canonical_paths(a), name)
    frames, w = integrate_frames_over_c(path, a, cs)
    y0 = np.zeros((5, cs.size), dtype=complex)
    y0[0] = y0[3] = 1.0
    y0[4] = path.w0
    steps = []
    reference = reference_lanes(
        path.waypoints, y0, _reference_field_lanes(a, cs, np.ones(cs.size)),
        on_step=lambda z, y: steps.append((z, y.copy())),
    )
    assert frames.tobytes() == reference[:4].T.reshape(-1, 2, 2).tobytes()
    assert w.tobytes() == reference[4].tobytes()
    k = branch_offsets(a)
    for z, y in steps:
        residual = sheet_residual_of(y[4], rational_rhs_of(z, k))
        assert residual.tobytes() == _inline_lane_residual(z, y[4], a, 1.0).tobytes()


def test_ring_end_states_equal_the_inline_reference():
    # the rings of an 8 x 12 mesh of both sheets, leg by leg as build_mesh
    # runs them: the lane kernel's accepted states and end states are the
    # reference's, and so are the sheet residuals at every step
    a, c = 2.0, -1.526035
    legs, scale, y = _mesh_lanes(a, 8, 12)
    k = branch_offsets(a, scale)
    for leg in legs:
        kernel, steps = [], []
        F, w = integrate_frames_over_c(
            PathSpec(1.0 + 0j, leg), a, c,
            F0=y[:4].T.reshape(-1, 2, 2), w0=y[4], scale=scale,
            on_step=lambda z, state: kernel.append((z, state.tobytes())),
        )
        y = reference_lanes(
            leg, y, _reference_field_lanes(a, c, scale),
            on_step=lambda z, state: steps.append((z, state.tobytes())),
        )
        assert kernel == steps
        assert F.tobytes() == y[:4].T.reshape(-1, 2, 2).tobytes()
        assert w.tobytes() == y[4].tobytes()
        for z, state in steps:
            w_z = np.frombuffer(state, dtype=complex).reshape(5, -1)[4]
            residual = sheet_residual_of(w_z, rational_rhs_of(z, k))
            assert residual.tobytes() == _inline_lane_residual(z, w_z, a, scale).tobytes()
