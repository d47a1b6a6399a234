import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dscat import period as period_module
from dscat.errors import (
    DegenerateDenominator,
    DomainError,
    LostBracket,
    NotAdmissible,
    VerificationFailed,
)
from dscat.linalg2c import ConjugacyKind, mat2c, su11_distance
from dscat.monodromy import assemble_monodromies, half_path_frames, period_values
from dscat.curve import CurveParams
from dscat.transport import DEFAULT_CONFIG, IntegratorConfig
from dscat.period import (
    _periods_at,
    bracketed_root,
    gauged_residuals,
    opposite_signs,
    refine_root,
    scan_c,
    solve_at_bracket,
    solve_gauge,
    verify_solution,
)


def test_bracketed_root_sanity():
    assert abs(bracketed_root(lambda c: c, -1.0, 2.0, 1e-12)) < 1e-12
    assert bracketed_root(lambda c: c * c - 2.0, 0.0, 2.0, 1e-12) == pytest.approx(
        math.sqrt(2.0), abs=1e-10
    )
    with pytest.raises(LostBracket):
        bracketed_root(lambda c: 1.0 + c * c, -1.0, 1.0, 1e-12)


def test_bracketed_root_compares_signs_not_products():
    # f_lo * f_hi and f_lo * f_mid underflow to 0 for values this small
    with pytest.raises(LostBracket):
        bracketed_root(lambda c: 1e-200, 0.0, 1.0, 1e-3)
    root = bracketed_root(lambda c: (math.exp(c) - math.exp(0.3)) * 1e-170, 0.0, 1.0, 1e-9)
    assert abs(root - 0.3) <= 1e-9


def test_opposite_signs():
    assert opposite_signs(-1e-200, 1e-200) and opposite_signs(1e-200, -1e-200)
    for x, y in ((1e-200, 1e-200), (-1.0, -2.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -0.0)):
        assert not opposite_signs(x, y)
    # elementwise on arrays, and never where an entry is NaN
    x = np.array([-1e-200, 1e-200, 1.0, 0.0, -1.0, np.nan, -1.0])
    y = np.array([1e-200, -1e-200, 2.0, -1.0, -0.0, 1.0, np.nan])
    assert opposite_signs(x, y).tolist() == [True, True, False, False, False, False, False]


def _brackets_by_pair(c: list, f1: list, f2: list) -> list:
    """The bracket rule as a loop over neighbouring kept points, a point
    being skipped where f1 is NaN: (c_lo, c_hi, hint) of each bracket."""
    kept = {k: (c[k], x1 - x2, abs(x1) > 1.0 and abs(x2) > 1.0)
            for k, (x1, x2) in enumerate(zip(f1, f2)) if not math.isnan(x1)}
    brackets = []
    for k, (c0, d0, hint0) in kept.items():
        if k + 1 not in kept:
            continue
        c1, d1, hint1 = kept[k + 1]
        if d0 == 0.0:
            brackets.append((c0, c0, hint0))
        elif d0 < 0.0 < d1 or d1 < 0.0 < d0:
            brackets.append((c0, c1, hint0 and hint1))
    return brackets


_F = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-200, -1e-200, 1.0, -1.0, 1.5, -1.5, 1e300, -1e300]),
    st.floats(min_value=-1e3, max_value=1e3),
)
# a skipped point, any (f1, f2), or an exact zero of f1 - f2
_POINT = st.one_of(st.none(), st.tuples(_F, _F), _F.map(lambda f: (f, f)))


@settings(max_examples=300)
@given(st.lists(_POINT, min_size=2, max_size=40))
# a zero of f1 - f2 gives a zero-width bracket, but not before a skipped point
@example([(2.0, 2.0), (3.0, 1.0), (0.5, 0.5), None, (1e-200, 0.0), (-1e-200, 0.0)])
def test_brackets_follow_the_per_pair_rule(points):
    c = -3.0 + np.arange(len(points)) * 0.25
    f1 = np.array([math.nan if p is None else p[0] for p in points])
    f2 = np.array([math.nan if p is None else p[1] for p in points])
    brackets, hints = period_module._brackets(c, f1, f2)
    assert brackets.shape == (len(hints), 2)
    found = [(lo, hi, hint) for (lo, hi), hint in zip(brackets.tolist(), hints.tolist())]
    assert found == _brackets_by_pair(c.tolist(), f1.tolist(), f2.tolist())


def test_scan_near_zero_window():
    result = scan_c(2.0, -0.07, 0.05, 120)
    kept = result.c[result.kept]
    assert kept.tolist() == sorted(kept.tolist())
    assert all(abs(c) >= 0.01 for c in kept.tolist())
    assert len(result.brackets) == 1
    root = refine_root(2.0, result.brackets[0])
    assert root.is_crossing
    assert -0.07 < root.c < 0.05
    assert abs(root.f) < 1.0


def test_scan_no_crossing_interval():
    coarse = scan_c(2.0, 3.0, 4.0, 100)
    assert coarse.brackets.shape == (0, 2)
    dense = scan_c(2.0, 3.0, 4.0, 800)
    assert dense.brackets.shape == (0, 2)


@pytest.mark.parametrize(
    "a, c_min, c_max, steps",
    # each grid spans a pole and a genuine crossing of f1 - f2
    [(1.5, -3.6, -2.9, 15), (2.0, -1.8, -1.45, 15), (3.0, -0.95, -0.65, 13)],
)
def test_scan_matches_single_c_evaluation(a, c_min, c_max, steps):
    result = scan_c(a, c_min, c_max, steps)
    spacing = (c_max - c_min) / (steps - 1)
    grid = [c_min + k * spacing for k in range(steps)]
    ref = []
    for c in grid:
        try:
            ref.append((c, *_periods_at(a, c, DEFAULT_CONFIG)[:2]))
        except DegenerateDenominator:
            pass
    assert result.c.tolist() == grid
    kept = result.kept
    assert result.c[kept].tolist() == [c for c, _, _ in ref]
    rows = zip(*(x[kept].tolist() for x in (result.f1, result.f2, result.admissible_hint)))
    for (x1, x2, hint), (_, f1, f2) in zip(rows, ref):
        assert abs(x1 - f1) <= 1e-7 * max(1.0, abs(f1)) ** 2
        assert abs(x2 - f2) <= 1e-7 * max(1.0, abs(f2)) ** 2
        assert hint == (abs(f1) > 1.0 and abs(f2) > 1.0)
    assert len(ref) == steps  # no gaps, so every sign change is a bracket
    ref_brackets = [
        (c0, c1, abs(f10) > 1 and abs(f20) > 1 and abs(f11) > 1 and abs(f21) > 1)
        for (c0, f10, f20), (c1, f11, f21) in zip(ref[:-1], ref[1:])
        if (f10 - f20) * (f11 - f21) < 0.0
    ]
    assert len(ref_brackets) == 2
    assert [(lo, hi, hint) for (lo, hi), hint in
            zip(result.brackets.tolist(), result.bracket_hint.tolist())] == ref_brackets


def test_scan_validates_a_when_every_point_is_skipped():
    # all three grid points lie in the skip window around c = 0
    with pytest.raises(DomainError):
        scan_c(0.5, -0.005, 0.005, 3)


def test_scan_rejects_bad_arguments_with_domain_error():
    with pytest.raises(DomainError, match="^need --c-min < --c-max$"):
        scan_c(2.0, 1.0, 0.0, 5)
    with pytest.raises(DomainError, match="^--steps must be at least 2$"):
        scan_c(2.0, 0.0, 1.0, 1)


def test_scan_matches_a_tight_scan():
    # at a = 5 |F| reaches 1e5 on c2 and f2 is ill-conditioned near
    # c = -10.6: 8.9e-10 measured, where the DP5 piece pass this kernel
    # replaced read 1.4e-9
    args = (5.0, -12.0, 6.0, 27)
    reference = scan_c(*args, IntegratorConfig(rel_tol=1e-13))
    result = scan_c(*args)
    assert result.c[result.kept].tolist() == reference.c[reference.kept].tolist()
    assert result.brackets.tolist() == reference.brackets.tolist() and len(result.brackets) == 7
    assert result.bracket_hint.tolist() == reference.bracket_hint.tolist()
    kept = reference.kept
    error = max(
        abs(f - f_ref) / max(1.0, abs(f_ref)) ** 2
        for x, x_ref in ((result.f1, reference.f1), (result.f2, reference.f2))
        for f, f_ref in zip(x[kept].tolist(), x_ref[kept].tolist())
    )
    assert error <= 1.4e-9


def test_solve_integrates_each_c_once(monkeypatch):
    seen = []

    def counting(params, cfg=DEFAULT_CONFIG, paths=None):
        seen.append(params.c)
        return half_path_frames(params, cfg, paths)

    monkeypatch.setattr(period_module, "half_path_frames", counting)
    sol = solve_at_bracket(2.0, (1.25, 1.29))
    assert len(seen) == len(set(seen))
    # the frames handed on from refinement give what a fresh integration gives
    fresh = verify_solution(2.0, sol.c, sol.P)
    assert (fresh.f, fresh.su11_residual) == (sol.f, sol.su11_residual)


def test_refine_builds_the_paths_once(monkeypatch):
    from dscat import curve, monodromy

    built = []

    def counting(a):
        built.append(a)
        return curve.canonical_paths(a)

    monkeypatch.setattr(period_module, "canonical_paths", counting)
    monkeypatch.setattr(monodromy, "canonical_paths", counting)
    root = refine_root(2.0, (1.25, 1.29), 1e-9)
    assert built == [2.0]
    f1, f2, _ = _periods_at(2.0, root.c, DEFAULT_CONFIG)
    assert (root.f, root.gap) == (0.5 * (f1 + f2), abs(f1 - f2))


def test_refine_paper_roots():
    root = refine_root(2.0, (-7.65, -7.58), 1e-6)
    assert root.is_crossing
    assert root.c == pytest.approx(-7.6119, abs=0.01)
    assert root.f > 1.0

    root = refine_root(2.0, (1.25, 1.29), 1e-6)
    assert root.is_crossing
    assert root.c == pytest.approx(1.26988, abs=0.01)
    assert root.f > 1.0


@pytest.mark.parametrize(
    "which, bracket",
    # the zeros of the f1 denominator near -0.555 and 0.757 and of the f2
    # denominator near -4.797 and -1.692 at a = 2
    [("f1", (-0.56, -0.55)), ("f1", (0.75, 0.76)), ("f2", (-4.80, -4.79)), ("f2", (-1.70, -1.69))],
    ids=lambda v: v if isinstance(v, str) else str(v[0]),
)
def test_refine_detects_pole_bracket(which, bracket):
    root = refine_root(2.0, bracket, 1e-8)
    assert not root.is_crossing
    assert bracket[0] < root.c < bracket[1]
    assert root.gap > 1e3
    with pytest.raises(NotAdmissible, match="converged onto a pole"):
        solve_at_bracket(2.0, bracket)
    # the denominator of the function with the pole alone changes sign
    d1, d2 = (
        np.sign(period_values(h.F_c1, h.F_c2)[2:4])
        for h in (_periods_at(2.0, c, DEFAULT_CONFIG)[2] for c in bracket)
    )
    assert (d1 != d2).tolist() == [which == "f1", which == "f2"]


def test_refine_ends_on_a_vanished_denominator_as_a_pole():
    # at this width an iterate lands where the f2 denominator vanishes
    root = refine_root(2.0, (-4.85, -4.75), 1e-13)
    assert not root.is_crossing
    assert root.c == pytest.approx(-4.796708, abs=1e-6)
    assert root.gap == math.inf


def test_refine_small_crossing_is_a_crossing():
    # the crossing near -0.0555 is genuine but has |f| < 1
    root = refine_root(2.0, (-0.06, -0.05), 1e-9)
    assert root.is_crossing
    assert root.c == pytest.approx(-0.05548, abs=1e-5)
    assert root.gap < 1e-6 and abs(root.f) < 1.0
    with pytest.raises(NotAdmissible, match=r"\|f\| > 1"):
        solve_at_bracket(2.0, (-0.06, -0.05))


@pytest.mark.parametrize("bracket", [(-0.005, 0.005), (0.0, 0.01), (-0.01, 0.0), (-0.006, 0.014)])
def test_refine_rejects_a_bracket_containing_zero(monkeypatch, bracket):
    # c = 0 is neither a root nor a pole: the frame is I there and the f2
    # denominator vanishes identically.  Nothing is integrated.
    def no_periods(*args):
        raise AssertionError("a period evaluation")

    monkeypatch.setattr(period_module, "_periods_at", no_periods)
    lo, hi = bracket
    message = f"bracket [{lo}, {hi}] contains c = 0, which is neither a root nor a pole"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        refine_root(2.0, bracket)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        solve_at_bracket(2.0, bracket)


def test_solve_gauge_positive_branch():
    g = solve_gauge(3.0)
    assert g.epsilon == 1.0
    assert g.beta == pytest.approx(8.0 ** -0.25, abs=1e-12)
    assert g.alpha == pytest.approx(-0.5 * 8.0 ** 0.25, abs=1e-12)
    assert np.allclose(
        g.P, mat2c(g.alpha, g.beta, g.alpha, -g.beta), atol=1e-15
    )


def test_solve_gauge_negative_branch():
    # 4 beta^4 = (f-1)/(f+1) = 2 for f = -3, so beta lands above (1/4)^(1/4)
    g = solve_gauge(-3.0)
    assert g.epsilon == -1.0
    assert g.beta == pytest.approx(2.0 ** -0.25, abs=1e-12)
    assert g.alpha == pytest.approx(0.5 * 2.0 ** 0.25, abs=1e-12)


def test_solve_gauge_boundary():
    for f in (1.0, -1.0, 0.5, 0.0):
        with pytest.raises(NotAdmissible):
            solve_gauge(f)


@given(
    f=st.one_of(
        st.floats(min_value=1.0 + 1e-6, max_value=1e4),
        st.floats(min_value=-1e4, max_value=-1.0 - 1e-6),
    )
)
def test_gauge_identities(f):
    g = solve_gauge(f)
    assert abs(g.alpha * g.beta + g.epsilon / 2.0) < 1e-15
    b4 = 4.0 * g.beta ** 4
    # reconstruction is conditioned like f^2 (the denominator 1 - 4 beta^4
    # shrinks as 2/f); at the period-problem roots |f| < 1.4 this is 1e-12
    assert abs((1.0 + b4) / (1.0 - b4) - f) < 1e-12 * max(1.0, f * f)
    det = g.P[0, 0] * g.P[1, 1] - g.P[0, 1] * g.P[1, 0]
    assert abs(det - 1.0) < 1e-12


@given(
    f=st.floats(min_value=-50.0, max_value=-1.01),
    v=st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
    phase=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_gauge_closes_synthetic_monodromy(f, v, phase):
    # any matrix preserving the Hermitian form attached to f must be carried
    # into SU(1,1) by the solved gauge, on the negative branch included
    g = solve_gauge(f)
    u = cmath.exp(1j * phase) * math.sqrt(1.0 + abs(v) ** 2)
    U = mat2c(u, v, v.conjugate(), u.conjugate())
    Phi = g.P @ U @ np.linalg.inv(g.P)
    assert su11_distance(np.linalg.inv(g.P) @ Phi @ g.P) < 1e-9


def test_verify_solution_end_to_end(shallow_solution):
    sol = shallow_solution
    assert sol.c == pytest.approx(-1.526035, abs=0.01)
    assert sol.f == pytest.approx(1.36741, abs=1e-4)
    assert sol.su11_residual < 1e-6
    assert sol.su11_residual_abs < 1e-6  # moderate norms at this root
    assert sol.end_type.kind is ConjugacyKind.ELLIPTIC
    assert abs(sol.alpha * sol.beta + sol.epsilon / 2.0) < 1e-15


def test_identity_gauge_fails(shallow_solution):
    with pytest.raises(VerificationFailed):
        verify_solution(2.0, shallow_solution.c, np.eye(2, dtype=complex))
    h = half_path_frames(CurveParams(2.0, shallow_solution.c))
    _, rel = gauged_residuals(assemble_monodromies(h), np.eye(2, dtype=complex))
    assert max(rel) > 1e-2


def test_gauge_freedom(shallow_solution):
    sol = shallow_solution
    v = 0.4 + 0.3j
    u = cmath.exp(0.5j) * math.sqrt(1.0 + abs(v) ** 2)
    U = mat2c(u, v, v.conjugate(), u.conjugate())
    moved = verify_solution(2.0, sol.c, sol.P @ U)
    assert moved.su11_residual < max(2.0 * sol.su11_residual, 1e-8)


def test_verify_rejects_off_locus_points():
    with pytest.raises(NotAdmissible):
        verify_solution(2.0, -2.5, np.eye(2, dtype=complex))
