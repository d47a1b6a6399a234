import cmath

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dscat import _rk
from dscat.curve import (
    BRANCH_DELTA,
    CurveParams,
    CurvePoint,
    PathSpec,
    base_point,
    branch_offsets,
    branch_points,
    canonical_paths,
    log_derivative,
    log_derivative_of,
    rational_rhs,
    rational_rhs_of,
    transport_w,
    validate_path,
)
from dscat.errors import DomainError, PathError

# transport_w's settings, stated apart from curve.W_TOLERANCES
W_CFG = _rk.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


def test_params_validation():
    with pytest.raises(DomainError):
        CurveParams(1.0, 1.0)
    with pytest.raises(DomainError):
        CurveParams(0.5, 1.0)
    with pytest.raises(DomainError):
        CurveParams(2.0, 0.0)


@pytest.mark.parametrize("a", [1.0, 0.5, -2.0])
def test_curve_functions_of_a_check_it(a):
    message = f"branch parameter must satisfy a > 1, got {a}"
    for call in (
        lambda: CurveParams(a, 1.0),
        lambda: canonical_paths(a),
        lambda: transport_w(PathSpec(base_point(+1), (0j, 0.5j)), a),
    ):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message


def test_rational_rhs_values():
    assert rational_rhs(0j, 2.0) == pytest.approx(1.0)
    assert rational_rhs(0j, 3.7) == pytest.approx(1.0)
    assert rational_rhs(3.0 + 0j, 2.0) == pytest.approx(0.4)
    assert rational_rhs(-3.0 + 0j, 2.0) == pytest.approx(2.5)


def test_rational_rhs_branch_guard():
    with pytest.raises(DomainError):
        rational_rhs(1.05 + 0j, 2.0)
    with pytest.raises(DomainError):
        rational_rhs(-2.0 + 0.05j, 2.0)


@given(
    z=st.complex_numbers(max_magnitude=30.0, allow_nan=False, allow_infinity=False),
    a=st.floats(min_value=1.3, max_value=5.0),
)
def test_reciprocal_symmetry(z, a):
    if min(abs(z - b) for b in branch_points(a)) < 2 * BRANCH_DELTA:
        return
    if min(abs(-z - b) for b in branch_points(a)) < 2 * BRANCH_DELTA:
        return
    assert abs(rational_rhs(z, a) * rational_rhs(-z, a) - 1.0) < 1e-12


def test_branch_offsets_give_the_sums_bit_for_bit():
    scale = np.array([0.37, 1.0, 2.9, 5.5])
    one, a_s = 1.0 / scale, 2.0 / scale
    k = branch_offsets(2.0, scale)

    def shifts(z):
        return z + k

    for z in (0.3 + 0.2j, complex(0.4, -0.0), complex(-3.0, 0.0), complex(-0.0, -0.0), -1.7 - 2.2j):
        expected = np.stack((z + one, z - a_s, z - one, z + a_s))
        assert shifts(z).tobytes() == expected.tobytes(), z


def test_scalar_branch_offsets_keep_signed_zeros():
    k = branch_offsets(2.0)
    for z in (0.3 + 0.2j, complex(0.4, -0.0), complex(-3.0, 0.0), complex(-0.0, -0.0), -1.7 - 2.2j):
        assert repr(tuple(z + x for x in k)) == repr((z + 1, z - 2.0, z - 1, z + 2.0)), z


def test_branch_offsets_follow_the_lane_map():
    # lane j sees the curve through origin[j] + scale[j] * z
    a = 2.0
    origin = np.array([0.0, 0.3 + 0.4j, 1.2 + 0.2j])
    scale = np.array([1.0, 0.25 - 0.1j, 0.3j])
    k = branch_offsets(a, scale, origin)
    for z in (0.0, 0.5, 0.7 + 0.3j):
        mapped = origin + scale * z
        assert np.allclose(rational_rhs_of(z, k), [rational_rhs(x, a) for x in mapped], rtol=1e-13)
        assert np.allclose(
            log_derivative_of(z, k), scale * [log_derivative(x, a) for x in mapped], rtol=1e-13
        )
    # at origin 0 the offsets are those of scale alone, bit for bit
    real = np.array([0.37, 1.0, 2.9])
    assert branch_offsets(a, real, 0.0).tobytes() == branch_offsets(a, real).tobytes()
    assert repr(branch_offsets(a, 1.0, 0.0)) == repr(branch_offsets(a))


def test_log_derivative_base_value():
    # closed form at z = 0 is 1 - 1/a
    assert log_derivative(0j, 2.0) == pytest.approx(0.5)
    assert log_derivative(0j, 4.0) == pytest.approx(0.75)


def test_log_derivative_large_z_limit():
    # in the coordinate zeta = 1/z the logarithmic derivative of w tends to
    # (1 - a); chain rule gives -z^2 L(z) -> (1 - a)
    a = 2.0
    for z in (1e5 + 0j, 1e5j, (7e4 + 3e4j)):
        assert abs(-z * z * log_derivative(z, a) - (1.0 - a)) < 1e-8


def test_log_derivative_matches_transported_w():
    a = 2.0
    h = 1e-5
    base = base_point(+1)

    def w_at(z):
        return transport_w(PathSpec(base, (0j, z)), a).w

    z0 = 1j
    dw = (w_at(z0 + h) - w_at(z0 - h)) / (2 * h)
    assert abs(dw / w_at(z0) - log_derivative(z0, a)) < 1e-8


def test_transport_w_matches_guarded_field(monkeypatch):
    # transport_w inlines L(z) without log_derivative's branch guard; its end
    # point and every accepted state must equal, bit for bit, an integration
    # of the field written with the guarded log_derivative.
    a = 2.0
    paths = canonical_paths(a)
    probe = PathSpec(base_point(+1), (0j, 0.6 + 0.9j))
    integrate = _rk.integrate_polyline

    def recorded(states):
        def run(waypoints, y0, field, *, on_step, **kwargs):
            def hook(z, y):
                states.append((z, y))
                on_step(z, y)

            return integrate(waypoints, y0, field, on_step=hook, **kwargs)

        return run

    def guarded(z, u, y):
        return (y[0] * log_derivative(z, a) * u,)

    for path in (paths.gamma1, paths.gamma2, paths.gamma3, probe):
        inlined, reference = [], []
        with monkeypatch.context() as m:
            m.setattr(_rk, "integrate_polyline", recorded(inlined))
            end = transport_w(path, a)
        (w_ref,) = integrate(
            path.waypoints, (path.start.w,), guarded, cfg=W_CFG,
            on_step=lambda z, y: reference.append((z, y)),
        )
        assert len(inlined) > 10
        assert inlined == reference
        assert end.w == w_ref


def test_transport_w_ends_equal_the_inline_reference():
    # the field as transport_w wrote it before it called log_derivative_of
    a = 2.0
    paths = canonical_paths(a)

    def field(z, u, y):
        return (y[0] * (0.5 * (1 / (z + 1) + 1 / (z - a) - 1 / (z - 1) - 1 / (z + a))) * u,)

    names = ("c1", "c2", "gamma1", "gamma2", "gamma3", "end_loop_plus", "end_loop_minus")
    probe = PathSpec(base_point(+1), (0j, 0.6 + 0.9j))
    for path in [getattr(paths, name) for name in names] + [probe]:
        (w_ref,) = _rk.integrate_polyline(
            path.waypoints, (path.start.w,), field, cfg=W_CFG
        )
        assert repr(transport_w(path, a).w) == repr(w_ref)


def test_transport_constant_path():
    a = 2.0
    start = base_point(+1)
    end = transport_w(PathSpec(start, (0j, 0j)), a)
    assert end.w == start.w


def test_transport_closes_on_loops():
    a = 2.0
    paths = canonical_paths(a)
    for loop in (paths.gamma1, paths.gamma2, paths.gamma3):
        end = transport_w(loop, a)
        assert abs(end.w - loop.start.w) < 1e-8


def test_transport_c2_endpoint_sheet():
    a = 2.0
    paths = canonical_paths(a)
    end = transport_w(paths.c2, a)
    assert abs(end.w ** 2 - rational_rhs(4.0 + 0j, 2.0)) < 1e-8
    assert end.w.real > 0  # same sheet as the base point


def test_half_loop_changes_sheet():
    a = 2.0
    g1 = canonical_paths(a).gamma1
    half = PathSpec(g1.start, g1.waypoints[:5])
    end = transport_w(half, a)
    assert abs(end.w + 1.0) < 1e-8


def test_canonical_path_geometry():
    for a in (1.5, 2.0, 3.0):
        paths = canonical_paths(a)
        assert paths.c1.waypoints[-1] == pytest.approx((1 + a) / 2)
        assert paths.c2.waypoints[-1] == pytest.approx(2 * a)
        for p in (
            paths.c1,
            paths.c2,
            paths.gamma1,
            paths.gamma2,
            paths.gamma3,
            paths.end_loop_plus,
            paths.end_loop_minus,
        ):
            validate_path(p, a)  # raises on any clearance violation
        for loop in (paths.gamma1, paths.gamma2, paths.gamma3):
            assert loop.closed
    assert canonical_paths(2.0).c1.waypoints[-1] == 1.5
    assert canonical_paths(2.0).c2.waypoints[-1] == 4.0


def test_end_loops_start_on_opposite_sheets():
    paths = canonical_paths(2.0)
    assert paths.end_loop_plus.start.w == 1.0
    assert paths.end_loop_minus.start.w == -1.0
    a = 2.0
    for loop in (paths.end_loop_plus, paths.end_loop_minus):
        end = transport_w(loop, a)
        assert abs(end.w - loop.start.w) < 1e-8


def test_validate_path_rejects_branch_crossing():
    start = base_point(+1)
    with pytest.raises(PathError):
        validate_path(PathSpec(start, (0j, 2.0 + 0j)), 2.0)
    with pytest.raises(PathError):
        validate_path(PathSpec(start, (0.5j, 1.0j)), 2.0)  # start mismatch


def test_curve_point_residual():
    assert base_point(+1).sheet_residual(2.0) < 1e-15
    bad = CurvePoint(0j, 1.5 + 0j)
    assert bad.sheet_residual(2.0) > 0.5


def test_end_loop_large_circle():
    paths = canonical_paths(2.0)
    radii = [abs(z) for z in paths.end_loop_plus.waypoints[1:-1]]
    assert all(abs(r - 6.0) < 1e-9 for r in radii)
    angles = [cmath.phase(z) for z in paths.end_loop_plus.waypoints[1:4]]
    assert angles[1] > angles[0]  # counterclockwise
