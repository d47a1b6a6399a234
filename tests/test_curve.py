import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dscat import _rk, curve
from dscat.curve import (
    BRANCH_DELTA,
    TOL_SHEET,
    CurveParams,
    CurvePoint,
    PathSpec,
    base_point,
    branch_offsets,
    branch_points,
    canonical_paths,
    continue_w,
    log_derivative,
    log_derivative_of,
    rational_rhs,
    rational_rhs_of,
    transport_w,
    _segment_distances,
    validate_path,
)
from dscat.errors import DomainError, PathError

from conftest import reference_lanes, segment_distance

PATH_NAMES = ("c1", "c2", "gamma1", "gamma2", "gamma3", "end_loop_plus", "end_loop_minus")


def test_params_validation():
    with pytest.raises(DomainError):
        CurveParams(1.0, 1.0)
    with pytest.raises(DomainError):
        CurveParams(0.5, 1.0)
    with pytest.raises(DomainError):
        CurveParams(2.0, 0.0)
    for a, c in ((2.0, float("nan")), (2.0, float("inf")), (2.0, -float("inf")),
                 (float("inf"), 1.0), (float("nan"), 1.0)):
        with pytest.raises(DomainError):
            CurveParams(a, c)


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
    # lane j sees the curve through scale[j] * z
    a = 2.0
    scale = np.array([1.0, 0.25 - 0.1j, 0.3j, 2.9])
    k = branch_offsets(a, scale)
    for z in (0.5, 0.7 + 0.3j, -1.1 + 0.4j):
        mapped = scale * z
        assert np.allclose(rational_rhs_of(z, k), [rational_rhs(x, a) for x in mapped], rtol=1e-13)
        assert np.allclose(
            log_derivative_of(z, k), scale * [log_derivative(x, a) for x in mapped], rtol=1e-13
        )
    # at scale 1 the lane offsets are the scalar ones, bit for bit
    assert branch_offsets(a, np.ones(3)).tobytes() == np.array([branch_offsets(a)] * 3).T.tobytes()
    assert repr(branch_offsets(a, 1.0)) == repr(branch_offsets(a))


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

    def w_at(z):
        return transport_w(PathSpec(complex(+1), (0j, z)), a).w

    z0 = 1j
    dw = (w_at(z0 + h) - w_at(z0 - h)) / (2 * h)
    assert abs(dw / w_at(z0) - log_derivative(z0, a)) < 1e-8


DP5_CFG = _rk.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


def _dp5_w(path, field):
    """w' = field(z, u, w) integrated by DP5 along path at DP5_CFG, on one
    lane of the generic lane kernel conftest.reference_lanes."""
    start = np.full((1, 1), path.w0, dtype=complex)
    return complex(reference_lanes(path.waypoints, start, field, cfg=DP5_CFG)[0, 0])


def test_transport_w_matches_guarded_field():
    # continue_w's closed form against w' = w L(z) integrated by DP5 with the
    # guarded L at rel_tol 1e-12: they differ by at most 4.5e-12 of |w| (gamma2
    # at a = 5), the DP5 route's own error, and the closed form stays on the
    # curve to rounding
    for a in (1.3, 2.0, 5.0):
        paths = canonical_paths(a)
        probe = PathSpec(complex(+1), (0j, 0.6 + 0.9j))

        def field(z, u, y):
            return y * log_derivative(z, a) * u

        for path in [getattr(paths, name) for name in PATH_NAMES] + [probe]:
            w = continue_w(path.waypoints, path.w0, branch_offsets(a))
            w_ref = _dp5_w(path, field)
            assert abs(w - w_ref) <= 1e-11 * abs(w_ref)
            assert abs(w * w - rational_rhs(path.waypoints[-1], a)) <= 1e-14
            assert transport_w(path, a).w == w


def test_transport_w_ends_equal_the_inline_reference():
    # the field as transport_w wrote it inline when it still integrated: its
    # DP5 end values agree with transport_w's closed form to 1.6e-12 of |w| at
    # a = 2, and transport_w ends at the path's last waypoint
    a = 2.0
    paths = canonical_paths(a)

    def field(z, u, y):
        return y * (0.5 * (1 / (z + 1) + 1 / (z - a) - 1 / (z - 1) - 1 / (z + a))) * u

    probe = PathSpec(complex(+1), (0j, 0.6 + 0.9j))
    for path in [getattr(paths, name) for name in PATH_NAMES] + [probe]:
        w_ref = _dp5_w(path, field)
        end = transport_w(path, a)
        assert end.z == path.waypoints[-1]
        assert abs(end.w - w_ref) <= 1e-11 * abs(w_ref)


def test_continue_w_lanes_follow_the_lane_map():
    # lane j follows scale[j] * gamma1, which encircles -1 and 1 at each scale
    a = 2.0
    scale = np.array([0.9, 1.0, 1.2])
    k = branch_offsets(a, scale)
    loop = canonical_paths(a).gamma1.waypoints
    for wp, w_end in ((loop[:5], -1.0), (loop, 1.0)):  # sheet -1 at z1, back at -z1
        lanes = continue_w(wp, 1.0, k)
        one_by_one = [continue_w(tuple(s * z for z in wp), 1.0, branch_offsets(a)) for s in scale]
        assert np.allclose(lanes, one_by_one, rtol=1e-14, atol=0.0)
        assert np.abs(lanes - w_end).max() < 1e-14


def test_transport_w_integrates_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("transport_w ran an integrator")

    for name in ("integrate_polyline", "integrate_polyline_lanes", "integrate_polyline_rk4"):
        monkeypatch.setattr(_rk, name, refuse)
    for path in (getattr(canonical_paths(2.0), name) for name in PATH_NAMES):
        transport_w(path, 2.0)


def test_transport_constant_path():
    a = 2.0
    end = transport_w(PathSpec(complex(+1), (0j, 0j)), a)
    assert end.w == complex(+1)


def test_transport_closes_on_loops():
    a = 2.0
    paths = canonical_paths(a)
    for loop in (paths.gamma1, paths.gamma2, paths.gamma3):
        end = transport_w(loop, a)
        assert abs(end.w - loop.w0) < 1e-8


def test_transport_c2_endpoint_sheet():
    a = 2.0
    paths = canonical_paths(a)
    end = transport_w(paths.c2, a)
    assert abs(end.w ** 2 - rational_rhs(4.0 + 0j, 2.0)) < 1e-8
    assert end.w.real > 0  # same sheet as the base point


def test_half_loop_changes_sheet():
    a = 2.0
    g1 = canonical_paths(a).gamma1
    half = PathSpec(g1.w0, g1.waypoints[:5])
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
            assert loop.waypoints[-1] == loop.waypoints[0]
    assert canonical_paths(2.0).c1.waypoints[-1] == 1.5
    assert canonical_paths(2.0).c2.waypoints[-1] == 4.0


def test_end_loops_start_on_opposite_sheets():
    paths = canonical_paths(2.0)
    assert paths.end_loop_plus.w0 == 1.0
    assert paths.end_loop_minus.w0 == -1.0
    a = 2.0
    for loop in (paths.end_loop_plus, paths.end_loop_minus):
        end = transport_w(loop, a)
        assert abs(end.w - loop.w0) < 1e-8


def test_validate_path_rejects_branch_crossing():
    with pytest.raises(PathError):
        validate_path(PathSpec(complex(+1), (0j, 2.0 + 0j)), 2.0)
    with pytest.raises(PathError):
        validate_path(PathSpec(complex(+1), (0.5j, 1.0j)), 2.0)  # w = 1 is off the curve at 0.5i
    for far in (complex("inf"), complex("nan"), complex(4.0, float("inf"))):
        with pytest.raises(PathError, match="finite"):
            validate_path(PathSpec(complex(+1), (0j, 0.5j, far)), 2.0)


def _validate_path_by_segment(path, a):
    """validate_path as a loop over the segments and branch points, the
    reference for its one numpy pass."""
    wp = path.waypoints
    if len(wp) < 1:
        raise PathError("path needs at least one waypoint")
    if not all(cmath.isfinite(z) for z in wp):
        raise PathError("waypoints must be finite")
    if CurvePoint(wp[0], path.w0).sheet_residual(a) > TOL_SHEET:
        raise PathError("start point does not lie on the curve")
    for p, q in zip(wp[:-1], wp[1:]):
        for b in branch_points(a):
            if segment_distance(p, q, b) < BRANCH_DELTA:
                raise PathError(
                    f"segment {p} -> {q} passes within {BRANCH_DELTA} of branch point {b}"
                )


def _outcome(validate, path, a):
    try:
        validate(path, a)
    except DomainError as exc:  # a start within BRANCH_DELTA of a branch point too
        return type(exc), str(exc)
    return None


def _grazing_paths(a: float, seed: int) -> list:
    """Paths through segments that pass each branch point at a distance
    within a few rounding errors of BRANCH_DELTA, each followed by a
    zero-length segment; a path whose segments pass -1, then 1 and -1; one
    that passes a at 0.05 after 1 at 0.28; and paths whose squared segment
    lengths overflow, as do all segments at a = 1e200."""
    rng = np.random.default_rng(seed)
    k = branch_offsets(a)
    paths = []
    for b in branch_points(a):
        for rel in (0.0, 2e-16, -2e-16, 1e-15, -1e-15, 1e-9, -1e-9):
            u = cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
            foot = b + BRANCH_DELTA * (1 + rel) * 1j * u
            p, q = foot - rng.uniform(0.0, 2.0) * u, foot + rng.uniform(-0.05, 2.0) * u
            paths.append(PathSpec(cmath.sqrt(rational_rhs_of(p, k)), (p, q, q)))
    paths.append(PathSpec(complex(+1), (0j, -1.0 + 0.05j, 1.0 + 0.05j)))
    paths.append(PathSpec(complex(+1), (0j, 5e199 + 0.8j, -1e308 + 1e200j)))
    paths.append(PathSpec(complex(+1), (0j, 0.5j, 1.0 + 0.5j, 1e308 + 1e308j)))
    paths.append(PathSpec(complex(+1), (0j, 0.5j, 2 * a - 0.4j)))
    return paths


def _unvalidated_canonical_paths(monkeypatch, a):
    """The seven canonical paths of a as canonical_paths builds them, before
    it validates them."""
    with monkeypatch.context() as m:
        m.setattr(curve, "_validate_paths", lambda paths, a: None)
        paths = canonical_paths(a)
    return [getattr(paths, name) for name in PATH_NAMES]


def _first_outcome(validate, paths, a):
    """The outcome of validating paths one after the other, in order, up to
    the first that fails."""
    return next((out for out in (_outcome(validate, p, a) for p in paths) if out), None)


@pytest.mark.parametrize("a", [1.23, 1.25, 2.0, 7.8, 8.0, 1e200])
def test_validate_path_raises_where_the_loop_over_segments_does(monkeypatch, a):
    # the canonical paths at a = 1.23, 8 and 1e200 pass too near a branch point
    cases = _unvalidated_canonical_paths(monkeypatch, a) + _grazing_paths(a, int(100 * a))
    outcomes = [(_outcome(validate_path, p, a), _outcome(_validate_path_by_segment, p, a)) for p in cases]
    assert all(new == old for new, old in outcomes)
    assert sum(old is not None for _, old in outcomes[: len(PATH_NAMES)]) == {1.23: 2, 8.0: 3, 1e200: 5}.get(a, 0)
    assert {old is None for _, old in outcomes} == {True, False}


@pytest.mark.parametrize("a", [1.2, 1.23, 1.25, 2.0, 7.8, 8.0, 1e200])
def test_canonical_paths_raise_as_validate_path_in_turn(monkeypatch, a):
    # one pass over the seven paths raises what validate_path raises on c1,
    # c2, gamma1, gamma2, gamma3, end_loop_plus and end_loop_minus in turn
    paths = _unvalidated_canonical_paths(monkeypatch, a)
    expected = _first_outcome(validate_path, paths, a)
    try:
        canonical_paths(a)
        outcome = None
    except PathError as exc:
        outcome = type(exc), str(exc)
    assert outcome == expected
    assert (expected is None) == (a in (1.25, 2.0, 7.8))
    if a == 8.0:  # c1 clears the branch points and c2 does not
        assert _outcome(validate_path, paths[0], a) is None
        assert _outcome(validate_path, paths[1], a) == expected


@pytest.mark.parametrize("a", [1.23, 2.0, 8.0, 1e200])
def test_many_paths_raise_the_first_failing_paths_error(monkeypatch, a):
    # _validate_paths on several paths at once raises what the loop over
    # segments raises on them one after the other: the first failing path's
    # error, of any of the checks, wherever that path stands; each case alone
    # is a group too, so passing groups are there whatever the random draws
    odd = [
        PathSpec(complex(+1), ()),
        PathSpec(complex(+1), (0j, 0.5j, complex("nan"))),
        PathSpec(2.0 + 0j, (0j, 0.5j)),  # start off the curve
        PathSpec(0j, (1.05 + 0j, 0.5j)),  # DomainError
    ]
    cases = _unvalidated_canonical_paths(monkeypatch, a) + _grazing_paths(a, int(100 * a)) + odd
    rng = np.random.default_rng(int(100 * a))
    groups = [cases] + [cases[k : k + 3] for k in range(len(cases) - 2)] + [
        [cases[k] for k in rng.permutation(len(cases))[: rng.integers(2, 9)]] for _ in range(40)
    ] + [[case] for case in cases]
    outcomes = [
        (_outcome(curve._validate_paths, group, a), _first_outcome(_validate_path_by_segment, group, a))
        for group in groups
    ]
    assert all(new == old for new, old in outcomes)
    assert {old is None for _, old in outcomes} == {True, False}
    # groups whose first path passes and a later one fails
    assert any(
        old is not None and _outcome(_validate_path_by_segment, group[0], a) is None
        for group, (_, old) in zip(groups, outcomes)
    )


def test_segment_distance_survives_overflow_of_the_squared_length():
    # |d|^2 = 2.5e399 overflows; the segment passes 0.8 / 5e199 = 1.6e-200
    # above z = 1
    def distance(p, q, b):
        return float(_segment_distances(np.array(p), np.array(q), np.array(b)))

    assert distance(0j, 5e199 + 0.8j, 1.0) == pytest.approx(1.6e-200, rel=1e-12)
    assert distance(0j, 5e199 + 0.8j, -1.0) == 1.0
    assert distance(-1e308 + 0j, 1e308 + 1j, 0.0) == pytest.approx(0.5, rel=1e-12)
    assert distance(0j, 5e199 + 0.8j, 1e200) == pytest.approx(5e199)
    # a = 1e200 makes the canonical paths pass next to the branch points
    with pytest.raises(PathError):
        canonical_paths(1e200)


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
