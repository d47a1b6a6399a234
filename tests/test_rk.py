"""The kernels against per-step loops.

_reference_dp5 is the loop integrate_polyline once ran, and
_reference_joint_field is the frame field as it was, with L(z) from the
guarded curve.log_derivative.  They are fed the start state the way
integrate_frame feeds it, as the numpy complex scalars of the start frame.
The DP5 kernel must reproduce its loop bit for bit, every accepted step and
every endpoint component exactly equal: with its fused step on the frame
field of transport._joint_field, and with the generic step on any other
field, such as the same field wrapped in a plain function.  _reference_rk4
is the per-step RK4 loop of a linear 2 x 2 system, the frame's with w in
closed form; the RK4 kernel takes the same steps but multiplies per-step
transfer matrices in blocks, so it agrees with the loop up to rounding.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from dscat import _rk, geometry, monodromy
from dscat._rk import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
    _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6,
    _E1, _E3, _E4, _E5, _E6, _E7,
)
from dscat.curve import CurveParams, PathSpec, canonical_paths, log_derivative, validate_path
from dscat.errors import StepLimitExceeded
from dscat.transport import _joint_field, reference_frame

from conftest import one_cpu, reference_lanes

C_VALUES = (-7.6, -1.526035, 1.26988, 3.9)
PATH_NAMES = ("c1", "c2", "gamma1", "gamma2", "gamma3", "end_loop_plus", "end_loop_minus")
# The identity and a gauge frame of determinant exactly 1.
START_FRAMES = {
    "identity": np.eye(2, dtype=complex),
    "gauge": np.array([[1.25, 0.75j], [-0.75j, 1.25]], dtype=complex),
}


def _reference_joint_field(a, c):
    def field(z, u, y):
        F11, F12, F21, F22, w = y
        iw = 1.0 / w
        cu = c * u
        return (
            cu * (F11 - w * F21),
            cu * (F12 - w * F22),
            cu * (F11 * iw - F21),
            cu * (F12 * iw - F22),
            w * log_derivative(z, a) * u,
        )

    return field


def _reference_dp5(waypoints, y0, field, *, rel_tol=1e-10, abs_tol=1e-12,
                   max_steps=400_000, first_step=0.05, on_step=None):
    y = tuple(y0)
    n = len(y)
    steps = 0
    h = first_step
    for p, q in zip(waypoints[:-1], waypoints[1:]):
        seg = q - p
        seg_len = abs(seg)
        if seg_len == 0.0:
            continue
        u = seg / seg_len
        s = 0.0
        k1 = field(p, u, y)
        h = min(h, seg_len)
        while seg_len - s > 1e-14 * seg_len:
            h = min(h, seg_len - s)
            z0 = p + s * u
            y2 = tuple(y[i] + h * _A21 * k1[i] for i in range(n))
            k2 = field(z0 + 0.2 * h * u, u, y2)
            y3 = tuple(y[i] + h * (_A31 * k1[i] + _A32 * k2[i]) for i in range(n))
            k3 = field(z0 + 0.3 * h * u, u, y3)
            y4 = tuple(y[i] + h * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i]) for i in range(n))
            k4 = field(z0 + 0.8 * h * u, u, y4)
            y5 = tuple(
                y[i] + h * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i] + _A54 * k4[i])
                for i in range(n)
            )
            k5 = field(z0 + (8 / 9) * h * u, u, y5)
            y6 = tuple(
                y[i]
                + h * (_A61 * k1[i] + _A62 * k2[i] + _A63 * k3[i] + _A64 * k4[i] + _A65 * k5[i])
                for i in range(n)
            )
            k6 = field(z0 + h * u, u, y6)
            ynew = tuple(
                y[i] + h * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i] + _B5 * k5[i] + _B6 * k6[i])
                for i in range(n)
            )
            k7 = field(z0 + h * u, u, ynew)
            err_sq = 0.0
            for i in range(n):
                e_i = h * (
                    _E1 * k1[i]
                    + _E3 * k3[i]
                    + _E4 * k4[i]
                    + _E5 * k5[i]
                    + _E6 * k6[i]
                    + _E7 * k7[i]
                )
                sc = abs_tol + rel_tol * max(abs(y[i]), abs(ynew[i]))
                err_sq += (abs(e_i) / sc) ** 2
            err = math.sqrt(err_sq / n)
            steps += 1
            if steps > max_steps:
                raise StepLimitExceeded(f"exceeded {max_steps} steps")
            if err <= 1.0:
                s += h
                y = ynew
                k1 = k7
                if on_step is not None:
                    on_step(z0 + h * u, y)
            if err == 0.0:
                h *= 5.0
            else:
                h *= min(5.0, max(0.2, 0.9 * err ** -0.2))
            if h < 1e-14 * seg_len:
                raise StepLimitExceeded("step size underflow")
    return y


def _reference_rk4(waypoints, F0, field, n_steps):
    """The per-step RK4 loop of dF/ds = field(i, z, u, F) on segment i."""
    y = tuple(F0.ravel())
    total = sum(abs(q - p) for p, q in zip(waypoints[:-1], waypoints[1:]))
    if total == 0.0:
        return np.array(y).reshape(2, 2)
    h_target = total / n_steps
    for i, (p, q) in enumerate(zip(waypoints[:-1], waypoints[1:])):
        seg = q - p
        seg_len = abs(seg)
        if seg_len == 0.0:
            continue
        u = seg / seg_len
        m = max(1, int(math.ceil(seg_len / h_target)))
        h = seg_len / m
        for j in range(m):
            z0 = p + j * h * u
            k1 = field(i, z0, u, y)
            y2 = tuple(y[n] + 0.5 * h * k1[n] for n in range(4))
            k2 = field(i, z0 + 0.5 * h * u, u, y2)
            y3 = tuple(y[n] + 0.5 * h * k2[n] for n in range(4))
            k3 = field(i, z0 + 0.5 * h * u, u, y3)
            y4 = tuple(y[n] + h * k3[n] for n in range(4))
            k4 = field(i, z0 + h * u, u, y4)
            y = tuple(y[n] + (h / 6) * (k1[n] + 2 * k2[n] + 2 * k3[n] + k4[n]) for n in range(4))
    return np.array(y).reshape(2, 2)


def _reference_frame_field(a, c, path):
    """The frame field of the loop, w being cmath's closed form from the
    waypoint before z, as curve.continue_w writes it."""
    def w_from(p, q, w):
        r0, r1, r2, r3 = (q + 1) / (p + 1), (q - a) / (p - a), (q - 1) / (p - 1), (q + a) / (p + a)
        return w * (cmath.sqrt(r0) * cmath.sqrt(r1) / (cmath.sqrt(r2) * cmath.sqrt(r3)))

    points = path.waypoints
    w = [path.w0]
    for p, q in zip(points[:-1], points[1:]):
        w.append(w_from(p, q, w[-1]))

    def field(i, z, u, F):
        F11, F12, F21, F22 = F
        w_z = w_from(points[i], z, w[i])
        cu = c * u
        return (
            cu * (F11 - w_z * F21),
            cu * (F12 - w_z * F22),
            cu * (F11 / w_z - F21),
            cu * (F12 / w_z - F22),
        )

    return field, w[-1]


def _start(path, F0):
    return (F0[0, 0], F0[0, 1], F0[1, 0], F0[1, 1], path.w0)


@pytest.mark.parametrize("frame", sorted(START_FRAMES))
@pytest.mark.parametrize("c", C_VALUES)
def test_dp5_matches_reference_loop(c, frame):
    a = 2.0
    paths = canonical_paths(a)
    F0 = START_FRAMES[frame]
    for name in PATH_NAMES:
        path = getattr(paths, name)
        steps, ref_steps = [], []
        y = _rk.integrate_polyline(
            path.waypoints, _start(path, F0), _joint_field(a, c),
            on_step=lambda z, y: steps.append((z, y)),
        )
        ref = _reference_dp5(
            path.waypoints, _start(path, F0), _reference_joint_field(a, c),
            on_step=lambda z, y: ref_steps.append((z, y)),
        )
        assert y == ref, name
        assert len(steps) == len(ref_steps) > 0, name
        assert steps == ref_steps, name


def _plain(field, calls=None):
    """field wrapped in a plain function, as the benchmark's tracer wraps it,
    so that the kernel takes the generic step; calls, when given, collects
    the points at which it is called."""
    def wrapped(z, u, y):
        if calls is not None:
            calls.append(z)
        return field(z, u, y)

    return wrapped


# Settings beyond the defaults, each as (cfg, scale): loose tolerances, whose
# steps are long and often rejected, a long first step, and a complex scale,
# which rotates and stretches the polyline.
SETTINGS = {
    "loose": (_rk.IntegratorConfig(rel_tol=1e-4, abs_tol=1e-4), 1.0),
    "initial-step": (_rk.IntegratorConfig(initial_step=0.2), 1.0),
    "complex-scale": (_rk.DEFAULT_CONFIG, 0.95 * cmath.exp(0.1j)),
}


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("c", C_VALUES)
def test_fused_step_matches_reference_loop_at_other_settings(c, setting):
    # at a complex scale the reference loop takes the same field as a plain
    # function: L comes from the scaled branch offsets, whose bits the
    # guarded log_derivative of _reference_joint_field does not give
    a = 2.0
    cfg, scale = SETTINGS[setting]
    paths = canonical_paths(a)
    for name in PATH_NAMES:
        path = getattr(paths, name)
        validate_path(PathSpec(path.w0, tuple(scale * z for z in path.waypoints)), a)
        field = _joint_field(a, c, scale)
        reference = _reference_joint_field(a, c) if scale == 1.0 else _plain(field)
        steps, ref_steps = [], []
        y = _rk.integrate_polyline(
            path.waypoints, _start(path, START_FRAMES["gauge"]), field, cfg=cfg,
            on_step=lambda z, y: steps.append((z, y)),
        )
        ref = _reference_dp5(
            path.waypoints, _start(path, START_FRAMES["gauge"]), reference,
            rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol, first_step=cfg.initial_step,
            on_step=lambda z, y: ref_steps.append((z, y)),
        )
        assert y == ref, name
        assert len(steps) == len(ref_steps) > 0, name
        assert steps == ref_steps, name


def test_frame_field_is_called_once_per_segment():
    # the fused step evaluates the field itself, so the kernel calls the
    # frame field only for k1 at the start of each segment of nonzero length;
    # a fallback to the generic step would call it six times a step
    a, c = 2.0, -1.526035
    field = _joint_field(a, c)
    calls = []
    counted = _plain(field, calls)
    counted.frame = field.frame
    path = canonical_paths(a).c1
    p, q, r = path.waypoints
    waypoints, y0 = (p, q, q, r), (1, 0, 0, 1, path.w0)
    y = _rk.integrate_polyline(waypoints, y0, counted)
    assert calls == [p, q]
    assert y == _rk.integrate_polyline(waypoints, y0, field)


def test_plain_field_takes_the_generic_step_with_the_same_bits():
    # a plain wrapper of the frame field, as the benchmark's tracer makes,
    # runs the generic step: one call per stage, six per attempted step and
    # one per segment, and every accepted step and the end state of the
    # fused step
    a, c = 2.0, 1.26988
    field = _joint_field(a, c)
    paths = canonical_paths(a)
    for name in PATH_NAMES:
        path = getattr(paths, name)
        y0 = _start(path, START_FRAMES["identity"])
        calls, steps, plain_steps = [], [], []
        y = _rk.integrate_polyline(
            path.waypoints, y0, field, on_step=lambda z, y: steps.append((z, y))
        )
        y_plain = _rk.integrate_polyline(
            path.waypoints, y0, _plain(field, calls),
            on_step=lambda z, y: plain_steps.append((z, y)),
        )
        segments = sum(1 for p, q in zip(path.waypoints[:-1], path.waypoints[1:]) if q != p)
        assert (len(calls) - segments) % 6 == 0
        assert (len(calls) - segments) // 6 >= len(steps) > 0
        assert y_plain == y and plain_steps == steps, name


@pytest.mark.usefixtures("fresh_worker")
def test_library_integrations_take_no_generic_step(monkeypatch, shallow_solution):
    # the library's integrations of the frame field run the fused step, or
    # the lane kernel for a mesh's rings: half paths, with both halves
    # here, a loop, an end loop, the frame at a point and a small mesh
    def refuse(*args):
        raise AssertionError("the generic step ran")

    one_cpu(monkeypatch)
    monkeypatch.setattr(_rk, "_dp5_step5", refuse)
    sol = shallow_solution
    params = CurveParams(sol.a, sol.c)
    paths = canonical_paths(sol.a)
    monodromy.half_path_frames(params, paths=paths)
    for loop in (paths.gamma1, paths.end_loop_plus):
        monodromy.direct_loop_holonomy(loop, params)
    geometry.frame_at(sol, 0.5 + 0.5j)
    geometry.build_mesh(sol, 4, 6)


@pytest.mark.parametrize("frame", sorted(START_FRAMES))
@pytest.mark.parametrize("c", C_VALUES)
def test_rk4_matches_reference_loop(c, frame):
    # Over these cases the blocked kernel is within 7.7e-12 of the loop,
    # scaled by max(1, |F|), the worst case being end_loop_plus at c = -7.6,
    # and it ends at the loop's w bit for bit.
    a = 2.0
    params = CurveParams(a, c)
    paths = canonical_paths(params.a)
    F0 = START_FRAMES[frame]
    for name in PATH_NAMES:
        path = getattr(paths, name)
        F, w_end = reference_frame(path, params, F0, n_steps=2000)
        field, w = _reference_frame_field(a, c, path)
        F_ref = _reference_rk4(path.waypoints, F0, field, 2000)
        scale = max(1.0, float(np.max(np.abs(F_ref))))
        assert float(np.max(np.abs(F - F_ref))) <= 2e-11 * scale, name
        assert w_end == w, name


def _toy(coefficients):
    """A linear system with M depending on z, not rank one, and on segment i
    through coefficients[i]: (matrix for the kernel, field for the loop)."""
    def matrix(i, z, u):
        return z * u, (1 + 0.3j * z) * u, (0.2j * z - 0.5) * u, coefficients[i] * u

    def field(i, z, u, F):
        m11, m12, m21, m22 = matrix(i, z, u)
        F11, F12, F21, F22 = F
        return (
            m11 * F11 + m12 * F21,
            m11 * F12 + m12 * F22,
            m21 * F11 + m22 * F21,
            m21 * F12 + m22 * F22,
        )

    return matrix, field


def _assert_toy_matches_loop(waypoints, n_steps, coefficients=(0.2, -0.4j, 0.7)):
    F0 = START_FRAMES["gauge"]
    matrix, field = _toy(coefficients)
    F = _rk.integrate_polyline_rk4(waypoints, F0, matrix, n_steps)
    # Measured over these cases: within 1.3e-14 (|F| <= 2.4).
    assert float(np.max(np.abs(F - _reference_rk4(waypoints, F0, field, n_steps)))) < 2e-13
    return F


def test_rk4_partial_block():
    # One segment of 2 * RK4_BLOCK + 3 steps: two full blocks and a short one.
    n = 2 * _rk.RK4_BLOCK + 3
    _assert_toy_matches_loop((0j, 1 + 0.5j), n)


def test_rk4_one_step_segment():
    # The second segment is shorter than the step length, so it takes one step.
    _assert_toy_matches_loop((0j, 1 + 0j, 1 + 0.01j), 20)
    _assert_toy_matches_loop((0j, 0.5 + 0.5j), 1)


def test_rk4_skips_zero_length_segments():
    # matrix still receives each segment's own index
    F = _assert_toy_matches_loop(
        (0j, 0.5 + 0j, 0.5 + 0j, 0.5 + 0.5j, 0.5 + 0.5j), 300, (0.2, math.nan, 0.7, math.nan)
    )
    assert np.array_equal(F, _assert_toy_matches_loop((0j, 0.5 + 0j, 0.5 + 0.5j), 300, (0.2, 0.7)))


def test_rk4_zero_length_path_returns_start():
    def unused(*args):
        raise AssertionError("a path of zero length evaluates nothing")

    F0 = START_FRAMES["gauge"]
    z = 0.3 + 0.1j
    assert np.array_equal(_rk.integrate_polyline_rk4((z, z), F0, unused, 100), F0)


def test_rk4_memory_is_fixed_per_block():
    # The kernel holds one block of RK4_BLOCK steps at a time: 0.60 MB peak at
    # 200 000 steps.  Holding all steps at once would take over
    # 50 MB.
    params = CurveParams(2.0, -1.526035)
    path = canonical_paths(params.a).c1
    tracemalloc.start()
    try:
        reference_frame(path, params, n_steps=200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def _decaying(z, u, y):
    return tuple(-v * u for v in y)


def _constant(z, u, y):
    """A field every step meets the tolerances of."""
    return (u,) * len(y)


def _scalar_kernel(waypoints, n, field, **kwargs):
    return _rk.integrate_polyline(waypoints, (1.0,) * n, field, **kwargs)


def _lane_kernel(waypoints, n, field, **kwargs):
    """conftest.reference_lanes, the generic lane kernel, on three lanes,
    each from the start state of _scalar_kernel; a scalar component of
    field serves every lane.  _rk.integrate_polyline_lanes takes the frame
    field only: test_transport.py holds it to the initial step and the
    budget on the frame system."""
    def lanes_field(z, u, y):
        return np.array(field(z, u, y)).reshape(n, -1)

    return reference_lanes(waypoints, np.ones((n, 3), dtype=complex), lanes_field, **kwargs)


# The scalar kernel takes the frame transport's five components, the
# reference lane kernel, which runs on the kernels' controller _drive, any
# number.
KERNELS = [
    pytest.param(_scalar_kernel, 5, id="5"),
    pytest.param(_lane_kernel, 1, id="lanes-1"),
    pytest.param(_lane_kernel, 5, id="lanes-5"),
]


@pytest.mark.parametrize("kernel, n", KERNELS)
def test_step_budget(kernel, n):
    with pytest.raises(StepLimitExceeded, match="exceeded 3 steps"):
        kernel((0j, 10 + 0j), n, _decaying, cfg=_rk.IntegratorConfig(max_steps=3))


@pytest.mark.parametrize("kernel, n", KERNELS)
def test_first_step_is_the_initial_step(kernel, n):
    for h in (_rk.DEFAULT_CONFIG.initial_step, 1e-3):
        seen = []
        cfg = _rk.IntegratorConfig(initial_step=h)
        kernel((0j, 10 + 0j), n, _constant, cfg=cfg, on_step=lambda z, y: seen.append(z))
        assert seen[0] == h


@pytest.mark.parametrize("kernel, n", KERNELS)
def test_step_size_underflow(kernel, n):
    def jump(z, u, y):
        # A step across z = 0.5 errs by about 1e9 h, so no step longer than
        # the underflow limit 1e-14 meets the tolerances there.
        return (1e12 if z.real > 0.5 else 0.0,) * n

    with pytest.raises(StepLimitExceeded, match="underflow"):
        kernel((0j, 1 + 0j), n, jump)


@pytest.mark.parametrize("n", [5])
def test_state_is_python_complex(n):
    start = tuple(np.ones(n, dtype=complex))
    assert all(type(v) is np.complex128 for v in start)
    seen = []
    y = _rk.integrate_polyline(
        (0j, 1 + 1j), start, _decaying, on_step=lambda z, y: seen.append(y)
    )
    assert seen and all(type(s) is tuple for s in seen)
    assert all(type(v) is complex for s in seen + [y] for v in s)
    assert abs(y[0] - np.exp(-(1 + 1j))) < 1e-9


def test_rk4_contract():
    # F' = J F along [0, 1] from F = I, with scalar coefficients: F(1) is the
    # rotation by 1.
    F0 = [[1.0, 0.0], [0.0, 1.0]]
    F = _rk.integrate_polyline_rk4((0j, 1 + 0j), F0, lambda i, z, u: (0.0, u, -u, 0.0), 50)
    assert type(F) is np.ndarray and F.shape == (2, 2) and F.dtype == complex
    assert F0 == [[1.0, 0.0], [0.0, 1.0]]
    rotation = np.array([[math.cos(1), math.sin(1)], [-math.sin(1), math.cos(1)]])
    assert float(np.max(np.abs(F - rotation))) < 1e-8
