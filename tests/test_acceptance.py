"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Matrix-residual metrics are scale normalized (divided by max(1, entry size)
for entrywise comparisons, max(1, entry size squared) for determinant-like
cancellations): the boost-type monodromy of the first generator reaches entry
sizes of 1e4 .. 5e7 over the tested parameter range, where the absolute defect
of any double-precision computation is floored at size^2 * 1e-16.  Absolute
residuals are also asserted wherever that floor sits below the tolerance, and
are printed for every root.
"""

import math

import numpy as np

from dscat.curve import CurveParams, PathSpec, base_point, canonical_paths, transport_w
from dscat.ends import classify_end, end_loop_check, osserman_equality_check
from dscat.geometry import (
    build_mesh,
    frame_at,
    immerse,
    schwarzian_check,
    secondary_gauss,
    small_formula_check,
    unit_normal,
)
from dscat.linalg2c import ConjugacyKind, eigenvalues
from dscat.monodromy import (
    MonodromyTriple,
    assemble_monodromies,
    direct_loop_holonomy,
    half_path_frames,
    structure_defect,
)
from dscat.period import gauged_residuals, refine_root, scan_c
from dscat.transport import integrate_frame, scalar_ode_residual

from conftest import quadric_residuals

PAPER_ROOTS = (-7.6119, -4.06015, -1.526035, -0.55, 1.26988)
ADMISSIBLE_ROOTS = (-7.6119, -4.06015, -1.526035, 1.26988)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_figure3_roots():
    """Scan reproduces the published crossing locations and admissibility."""
    result = scan_c(2.0, -9.0, 4.0, 2600)
    roots = [refine_root(2.0, b, 1e-6) for b in result.brackets]

    matched = {}
    for target in PAPER_ROOTS:
        hits = [r for r in roots if abs(r.c - target) <= 0.01]
        matched[target] = hits[0] if hits else None

    extra = [
        r
        for r in roots
        if r.is_crossing and -0.07 < r.c < 0.05
    ]
    admissible = [r for r in roots if r.is_crossing and abs(r.f) > 1.0]

    ok = all(matched[t] is not None for t in PAPER_ROOTS)
    ok = ok and len(extra) == 1 and abs(extra[0].f) < 1.0
    ok = ok and len(admissible) == 4
    ok = ok and all(
        any(abs(r.c - t) <= 0.01 for r in admissible) for t in ADMISSIBLE_ROOTS
    )
    detail = (
        f"{len(result.brackets)} sign-change brackets; paper values matched at "
        + ", ".join(f"{matched[t].c:.5f}" for t in PAPER_ROOTS if matched[t])
        + f"; extra crossing at {extra[0].c:.5f} (f = {extra[0].f:.5f})"
        if extra
        else "missing the near-zero crossing"
    )
    report(1, ok, detail)
    assert all(matched[t] is not None for t in PAPER_ROOTS), matched
    assert len(extra) == 1 and abs(extra[0].f) < 1.0
    assert len(admissible) == 4
    for t in ADMISSIBLE_ROOTS:
        assert any(abs(r.c - t) <= 0.01 for r in admissible)


def test_criterion_2_period_closure(
    deep_solution, mid_solution, shallow_solution, hyperbolic_solution
):
    """Gauged monodromies close into SU(1,1); the identity gauge does not."""
    ok_all = True
    details = []
    for sol in (deep_solution, mid_solution, shallow_solution, hyperbolic_solution):
        h = half_path_frames(CurveParams(2.0, sol.c))
        triple = assemble_monodromies(h)
        abs_res, rel_res = gauged_residuals(triple, sol.P)
        _, rel_id = gauged_residuals(triple, np.eye(2, dtype=complex))
        norms = [
            float(np.max(np.abs(np.linalg.inv(sol.P) @ phi @ sol.P)))
            for phi in (triple.Phi1, triple.Phi2, triple.Phi3)
        ]
        floor = max(n * n for n in norms) * 5e-14
        attainable = floor < 1e-7
        ok = max(rel_res) < 1e-6 and max(rel_id) > 1e-2
        if attainable:
            ok = ok and max(abs_res) < 1e-6
        ok_all = ok_all and ok
        details.append(
            f"c={sol.c:.5f}: rel={max(rel_res):.2e} abs={max(abs_res):.2e}"
            + ("" if attainable else f" (abs floor {floor:.1e}, not attainable)")
            + f" identity={max(rel_id):.2e}"
        )
        assert max(rel_res) < 1e-6
        assert max(rel_id) > 1e-2
        if attainable:
            assert max(abs_res) < 1e-6
    report(2, ok_all, "; ".join(details))
    assert ok_all


def test_criterion_3_end_types(
    deep_solution, mid_solution, shallow_solution, hyperbolic_solution
):
    """Negative roots give elliptic ends, the positive root hyperbolic ones."""
    details = []
    for sol, expected in (
        (deep_solution, ConjugacyKind.ELLIPTIC),
        (mid_solution, ConjugacyKind.ELLIPTIC),
        (shallow_solution, ConjugacyKind.ELLIPTIC),
        (hyperbolic_solution, ConjugacyKind.HYPERBOLIC),
    ):
        closed_form = classify_end(2.0, sol.c)
        assert closed_form.end_type is expected
        worst = 0.0
        for which in (+1, -1):
            analysis = end_loop_check(2.0, sol.c, which)
            assert analysis.end_type is expected
            worst = max(worst, analysis.eigenvalue_mismatch)
        assert worst < 1e-6
        details.append(f"c={sol.c:.5f}: {expected.value}, mismatch {worst:.1e}")
    report(3, True, "; ".join(details))


def test_criterion_4_monodromy_structure_grid():
    """Structure lemmas, product holonomy, and lift independence on the grid."""
    B = np.array([[2.0, 0.0], [0.0, 0.5]], dtype=complex)
    worst_det = worst_form = worst_prod = worst_eig = 0.0
    points = 0
    for a in (1.5, 2.0, 3.0):
        for c in np.linspace(-9.0, 4.0, 50):
            c = float(c)
            if abs(c) < 0.01:
                continue
            params = CurveParams(a, c)
            paths = canonical_paths(params.a)
            h = half_path_frames(params)
            triple = assemble_monodromies(h)
            directs = MonodromyTriple(
                direct_loop_holonomy(paths.gamma1, params),
                direct_loop_holonomy(paths.gamma2, params),
                direct_loop_holonomy(paths.gamma3, params),
            )
            for phi in (
                triple.Phi1,
                triple.Phi2,
                triple.Phi3,
                directs.Phi1,
                directs.Phi2,
                directs.Phi3,
            ):
                det = phi[0, 0] * phi[1, 1] - phi[0, 1] * phi[1, 0]
                scale = max(1.0, float(np.max(np.abs(phi))) ** 2)
                worst_det = max(worst_det, abs(det - 1.0) / scale)
            worst_form = max(worst_form, structure_defect(directs))
            for direct, phi in (
                (directs.Phi1, triple.Phi1),
                (directs.Phi2, triple.Phi2),
                (directs.Phi3, triple.Phi3),
            ):
                diff = float(np.max(np.abs(direct - phi)))
                worst_prod = max(
                    worst_prod, diff / max(1.0, float(np.max(np.abs(phi))))
                )
            seeded = integrate_frame(paths.gamma2, params, F0=B).F
            lam_b = eigenvalues(np.linalg.solve(B, seeded))
            lam_i = eigenvalues(directs.Phi2)
            worst_eig = max(
                worst_eig,
                max(
                    abs(x - y) / max(1.0, abs(x)) for x, y in zip(lam_i, lam_b)
                ),
            )
            points += 1
    ok = (
        worst_det <= 1e-9
        and worst_form <= 1e-7
        and worst_prod <= 1e-6
        and worst_eig <= 1e-7
    )
    report(
        4,
        ok,
        f"{points} grid points: det {worst_det:.2e}, forms {worst_form:.2e}, "
        f"product-vs-direct {worst_prod:.2e}, eigenvalue independence {worst_eig:.2e}",
    )
    assert worst_det <= 1e-9
    assert worst_form <= 1e-7
    assert worst_prod <= 1e-6
    assert worst_eig <= 1e-7


def test_criterion_5_exact_identities(shallow_solution):
    """Scalar equation, Schwarzian relation, and frame reconstruction residuals."""
    worst_scalar = 0.0
    for a, c in ((2.0, 1.0), (2.0, -7.6119), (3.0, -2.0)):
        params = CurveParams(a, c)
        paths = canonical_paths(params.a)
        worst_scalar = max(
            worst_scalar,
            scalar_ode_residual(paths.c1, params, 50),
            scalar_ode_residual(paths.c2, params, 50),
        )

    sol = shallow_solution
    params = CurveParams(sol.a, sol.c)
    probes = []
    for z in (0.6 + 0.9j, 0.45 + 1.2j):
        probes.append(transport_w(PathSpec(base_point(+1), (0j, z)), params.a))
    res_h = schwarzian_check(sol, probes[0], 1e-3)
    res_2h = schwarzian_check(sol, probes[0], 2e-3)
    ratio = res_2h / max(res_h, 1e-300)
    worst_small = max(small_formula_check(sol, p) for p in probes)

    ok = (
        worst_scalar < 1e-8
        and res_h < 1e-4
        and 2.5 < ratio < 6.5
        and worst_small < 1e-5
    )
    report(
        5,
        ok,
        f"scalar {worst_scalar:.2e}; schwarzian {res_h:.2e} at h=1e-3 "
        f"(halving ratio {ratio:.2f}); frame reconstruction {worst_small:.2e}",
    )
    assert worst_scalar < 1e-8
    assert res_h < 1e-4
    assert 2.5 < ratio < 6.5
    assert worst_small < 1e-5


def test_criterion_6_geometric_invariants(
    shallow_solution, hyperbolic_solution, deep_solution, deep_mesh
):
    """Quadric, hollow-ball bound, single-valuedness, unit normal on meshes."""
    details = []
    for sol in (shallow_solution, hyperbolic_solution):
        mesh = build_mesh(sol, 12, 14)
        assert len(mesh.z)
        worst_q = float(quadric_residuals(mesh.X).max())
        assert worst_q < 1e-7
        r2 = (mesh.Y ** 2).sum(axis=1)
        assert ((math.exp(-math.pi) < r2) & (r2 < math.exp(math.pi))).all()

        params = CurveParams(sol.a, sol.c)
        paths = canonical_paths(params.a)
        z_probe = 0.6 + 0.9j
        direct = frame_at(sol, z_probe)
        X0 = np.array(immerse(direct.F))
        worst_mono = 0.0
        for loop in (paths.gamma1, paths.gamma2, paths.gamma3):
            looped = integrate_frame(loop, params, F0=sol.P)
            translated = integrate_frame(
                PathSpec(looped.point, (0j, z_probe)), params, F0=looped.F
            )
            X1 = np.array(immerse(translated.F))
            worst_mono = max(
                worst_mono,
                float(np.max(np.abs(X0 - X1))) / max(1.0, float(np.max(np.abs(X0)))),
            )
        assert worst_mono < 1e-6

        worst_norm = 0.0
        checked = 0
        for z, w, singular, g_abs in zip(mesh.z, mesh.w, mesh.singular, mesh.g_abs):
            if checked >= 3 or singular or not math.isfinite(g_abs):
                continue
            try:
                state = frame_at(sol, z)
            except Exception:
                continue
            if abs(state.point.w - w) > 1e-6:
                continue
            g = secondary_gauss(state.F, state.point)
            n0, n1, n2, n3 = unit_normal(state.F, g)
            scale = max(1.0, float(np.sum(np.array([n0, n1, n2, n3]) ** 2)))
            lorentz = -n0 ** 2 + n1 ** 2 + n2 ** 2 + n3 ** 2
            worst_norm = max(worst_norm, abs(lorentz + 1.0) / scale)
            checked += 1
        assert checked >= 1
        assert worst_norm < 1e-9
        details.append(
            f"c={sol.c:.5f}: quadric {worst_q:.1e}, monodromy translation "
            f"{worst_mono:.1e}, normal {worst_norm:.1e}"
        )

    # singular contour present on the first published example
    below = int((deep_mesh.g_abs < 1.0).sum())
    above = int((deep_mesh.g_abs > 1.0).sum())
    assert below > 0 and above > 0
    details.append(f"c={deep_solution.c:.5f}: singular contour present")
    report(6, True, "; ".join(details))


def test_criterion_7_osserman_equality():
    """Degree arithmetic: the family sits at equality."""
    ok = (
        osserman_equality_check(1, 2, 2) is True
        and osserman_equality_check(0, 2, 1) is True
        and osserman_equality_check(1, 2, 1) is False
    )
    report(7, ok, "2 deg(G) = -chi + n holds for (genus, ends, deg) = (1, 2, 2)")
    assert ok
