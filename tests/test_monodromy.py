import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dscat import monodromy
from dscat.curve import CurveParams, PathSpec, canonical_paths
from dscat.errors import ContinuationError, DegenerateDenominator
from dscat.monodromy import (
    HalfPathFrames,
    assemble_monodromies,
    direct_loop_holonomy,
    half_path_frames,
    period_functions,
    period_values,
    structure_defect,
)
from dscat.transport import reference_frame


def random_sl2(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return m / np.sqrt(np.linalg.det(m))


def test_identity_frames_give_identity_triple():
    h = HalfPathFrames(
        np.eye(2, dtype=complex), np.eye(2, dtype=complex), CurveParams(2.0, 1.0)
    )
    triple = assemble_monodromies(h)
    for phi in (triple.Phi1, triple.Phi2, triple.Phi3):
        assert np.allclose(phi, np.eye(2))


def test_assembled_entries_match_closed_forms():
    F1, F2 = random_sl2(1), random_sl2(2)
    h = HalfPathFrames(F1, F2, CurveParams(2.0, 1.0))
    triple = assemble_monodromies(h)
    A2, B2, C2, D2 = F2[0, 0], F2[0, 1], F2[1, 0], F2[1, 1]
    cj = np.conj
    psi11 = A2 * cj(D2) - cj(B2) * C2
    i_psi12 = B2 * cj(D2) - cj(B2) * D2
    i_psi21 = cj(A2) * C2 - A2 * cj(C2)
    assert triple.Phi2[0, 0] == pytest.approx(psi11)
    assert triple.Phi2[0, 1] == pytest.approx(i_psi12)
    assert triple.Phi2[1, 0] == pytest.approx(i_psi21)
    assert triple.Phi2[1, 1] == pytest.approx(cj(psi11))

    A1, B1, C1, D1 = F1[0, 0], F1[0, 1], F1[1, 0], F1[1, 1]
    s = cj(A1) * D1 + B1 * cj(C1)
    u = cj(A1) * C1 + A1 * cj(C1)
    v = cj(B1) * D1 + B1 * cj(D1)
    phi11 = abs(s) ** 2 - u ** 2
    phi22 = abs(s) ** 2 - v ** 2
    phi12 = s * (v - u)
    assert triple.Phi1[0, 0] == pytest.approx(phi11)
    assert triple.Phi1[1, 1] == pytest.approx(phi22)
    assert triple.Phi1[0, 1] == pytest.approx(phi12)
    assert triple.Phi1[1, 0] == pytest.approx(-cj(phi12))


@pytest.mark.parametrize("c", [1.0, -1.0, -7.6119])
def test_products_match_direct_holonomy(c):
    params = CurveParams(2.0, c)
    paths = canonical_paths(params.a)
    triple = assemble_monodromies(half_path_frames(params))
    for loop, phi in (
        (paths.gamma1, triple.Phi1),
        (paths.gamma2, triple.Phi2),
        (paths.gamma3, triple.Phi3),
    ):
        direct = direct_loop_holonomy(loop, params)
        scale = max(1.0, float(np.max(np.abs(phi))))
        assert float(np.max(np.abs(direct - phi))) / scale < 1e-6


def test_direct_holonomy_structure_forms():
    # the structural shape of directly integrated monodromies tests the
    # sheet bookkeeping, not just the algebra of the products
    params = CurveParams(2.0, -1.0)
    paths = canonical_paths(params.a)
    from dscat.monodromy import MonodromyTriple

    triple = MonodromyTriple(
        direct_loop_holonomy(paths.gamma1, params),
        direct_loop_holonomy(paths.gamma2, params),
        direct_loop_holonomy(paths.gamma3, params),
    )
    assert structure_defect(triple) < 1e-7
    assert abs(triple.Phi2[0, 1].real) < 1e-8
    assert abs(triple.Phi2[1, 0].real) < 1e-8


def test_contractible_loop_is_trivial():
    params = CurveParams(2.0, 1.0)
    loop = PathSpec(complex(+1), (0j, 0.3 + 0.3j, 0.6j, -0.3 + 0.3j, 0j))
    phi = direct_loop_holonomy(loop, params)
    assert float(np.max(np.abs(phi - np.eye(2)))) < 1e-8


def test_loop_followed_by_reverse_is_trivial():
    params = CurveParams(2.0, 1.0)
    g2 = canonical_paths(params.a).gamma2
    # no flag makes it a loop: it ends at its first waypoint
    out_and_back = PathSpec(g2.w0, g2.waypoints + tuple(reversed(g2.waypoints[:-1])))
    phi = direct_loop_holonomy(out_and_back, params)
    assert float(np.max(np.abs(phi - np.eye(2)))) < 1e-7


def test_holonomy_requires_closed_loop(monkeypatch):
    # a path is a loop when its last waypoint equals its first, exactly: c1 is
    # open, and so is gamma2 ending 1e-12 short of its start; neither is integrated
    params = CurveParams(2.0, 1.0)
    paths = canonical_paths(params.a)
    g2 = paths.gamma2
    short = PathSpec(g2.w0, g2.waypoints[:-1] + (1e-12j,))

    def refuse(*args, **kwargs):
        raise AssertionError("an open path was integrated")

    monkeypatch.setattr(monodromy, "integrate_frame", refuse)
    for path in (paths.c1, short):
        with pytest.raises(ContinuationError, match="^holonomy requires a closed loop$"):
            direct_loop_holonomy(path, params)


def test_loop_around_one_branch_point_does_not_close():
    # w changes sheet around z = 1 alone: it ends at -w_start
    params = CurveParams(2.0, 1.0)
    loop = PathSpec(complex(+1), (0j, 1.0 + 0.5j, 1.5 + 0j, 1.0 - 0.5j, 0j))
    with pytest.raises(ContinuationError, match=r"did not close on the curve \(w drift 2\.0"):
        direct_loop_holonomy(loop, params)


def test_period_functions_reality_and_convergence():
    params = CurveParams(2.0, -1.0)
    h = half_path_frames(params)
    f1, f2 = period_functions(h)
    assert isinstance(f1, float) and isinstance(f2, float)

    paths = canonical_paths(params.a)
    ref = HalfPathFrames(
        reference_frame(paths.c1, params, n_steps=20_000)[0],
        reference_frame(paths.c2, params, n_steps=20_000)[0],
        params,
    )
    g1, g2 = period_functions(ref)
    assert abs(f1 - g1) < 1e-8
    assert abs(f2 - g2) < 1e-8


def test_period_functions_degenerate_denominator():
    # an identity frame along c2 zeroes the f2 denominator
    h = HalfPathFrames(random_sl2(5), np.eye(2, dtype=complex), CurveParams(2.0, 1.0))
    with pytest.raises(DegenerateDenominator):
        period_functions(h)


def test_period_values_over_stacked_frames():
    # the period functions are real for any frames; an identity frame along
    # c2 zeroes the f2 denominator of its lane only
    frames1 = np.stack([random_sl2(k) for k in range(4)])
    frames2 = np.stack([random_sl2(10 + k) for k in range(4)])
    frames2[2] = np.eye(2)
    f1, f2, d1, d2 = period_values(frames1, frames2)
    assert np.isnan(f1).tolist() == [False, False, True, False]
    assert np.isnan(f2).tolist() == [False, False, True, False]
    assert d2[2] == 0.0 and np.all(d1 != 0.0)
    for j in (0, 1, 3):
        g1, g2 = period_functions(HalfPathFrames(frames1[j], frames2[j], None))
        assert abs(f1[j] - g1) <= 1e-14 * max(1.0, abs(g1)) ** 2
        assert abs(f2[j] - g2) <= 1e-14 * max(1.0, abs(g2)) ** 2


def _complex_quotients(F_c1, F_c2) -> tuple:
    """The period sums and quotients in complex arithmetic, the reference for
    period_values: (num1, den1, num2, den2, -num1 / den1, -num2 / den2,
    den1 vanished, den2 vanished), each quotient over 1 where its
    denominator vanished."""
    (A1, B1), (C1, D1) = np.moveaxis(F_c1, (-2, -1), (0, 1))
    (A2, B2), (C2, D2) = np.moveaxis(F_c2, (-2, -1), (0, 1))
    cj = np.conj
    num1 = cj(A1) * C1 + A1 * cj(C1) + cj(B1) * D1 + B1 * cj(D1)
    den1 = cj(A1) * D1 + A1 * cj(D1) + cj(B1) * C1 + B1 * cj(C1)
    num2 = cj(A2) * C2 - A2 * cj(C2) + cj(B2) * D2 - B2 * cj(D2)
    den2 = cj(A2) * D2 - A2 * cj(D2) + cj(B2) * C2 - B2 * cj(C2)
    v1 = np.abs(den1) <= 1e-12 * (1.0 + np.abs(num1))
    v2 = np.abs(den2) <= 1e-12 * (1.0 + np.abs(num2))
    q1, q2 = -num1 / np.where(v1, 1.0, den1), -num2 / np.where(v2, 1.0, den2)
    return num1, den1, num2, den2, q1, q2, v1, v2


def _bits(x) -> bytes:
    return np.atleast_1d(np.asarray(x, dtype=float)).tobytes()


# lanes of (F_c1, F_c2): an identity F_c2, whose f2 denominator vanishes; a
# negative d1, over an exactly zero numerator and over a nonzero one; and
# entries near 1e60
_FIXED = np.stack([
    (np.array([[1 + 2j, 0.5j], [-1, 3]]), np.eye(2)),
    (np.array([[0, 1j], [-1j, 0]]), np.array([[2, 1j], [1, 1 - 1j]])),
    (np.array([[1, 1], [-1, 0]]) * np.exp(0.3j), np.array([[1 + 1j, 2j], [1, 1]])),
    (np.array([[3e59 - 1e60j, 7e59j], [-2e60, 5e59 + 1e59j]]),
     np.array([[1e60j, -4e59], [6e59 + 2e60j, 9e59]])),
]).astype(complex)


@given(arrays(complex, st.tuples(st.integers(1, 4), st.just(2), st.just(2), st.just(2)),
              elements=st.complex_numbers(max_magnitude=1e60, allow_infinity=False)))
@example(_FIXED)
def test_period_values_equal_the_complex_quotient(frames):
    # the real form against the complex one, on each pair alone and on the stack
    for F1, F2 in [*frames, frames.swapaxes(0, 1)]:
        f1, f2, d1, d2 = period_values(F1, F2)
        num1, den1, num2, den2, q1, q2, v1, v2 = _complex_quotients(F1, F2)
        # the other part of each sum is exactly 0
        for part in (num1.imag, den1.imag, num2.real, den2.real):
            assert np.all(part == 0.0)
        assert _bits(d1) == _bits(den1.real) and _bits(d2) == _bits(den2.imag)
        vanished = np.atleast_1d(v1 | v2)
        for f, q, num in ((f1, q1, num1), (f2, q2, num2)):
            f, q, num = np.atleast_1d(f), np.atleast_1d(q.real), np.atleast_1d(num)
            assert np.isnan(f).tolist() == vanished.tolist()
            kept = ~vanished
            # Smith's algorithm gives -0.0 for a zero numerator over a
            # negative denominator, the reciprocal +0.0
            zero = kept & (num == 0)
            assert _bits(f[kept & ~zero]) == _bits(q[kept & ~zero])
            assert np.all(f[zero] == q[zero])
