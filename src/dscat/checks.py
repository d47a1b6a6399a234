"""The invariant battery behind `dscat verify`: an ordered registry of checks.

Each check takes a CheckContext and returns (ok, detail).  The quantities
that several checks read (loop holonomies and half-path frames with the
accepted states of their integrations, the refined root with its gauge and
solution, the probe point, the Schwarzian residual) are built once per (a, c),
on first use.  Checks that need the period solution report "skipped (...)"
when an earlier step did not produce it.

run_invariant_suite refines the root and then uses both cores: the worker
process of _worker.pair runs every check but geometry-invariants on a pickled
copy of the context, which carries the root, gauge and solution or the error
that stopped them, while this process runs geometry-invariants on its 8 x 12
mesh.  At the a = 2 roots the two shares take about the same time, and which
is the longer depends on the root (tools/scan_shares.py times both).

Beside each bound is its reason and the largest value `verify --deep` measured
at the five a = 2 roots c = -7.611914, -4.06015, -1.526035, 1.26988, 5.333170,
the published values, from which `verify` refines each root at the default
tol_c (-4.06015 is 3.6e-5 from the converged -4.0601136297618).
"""

from __future__ import annotations

import math

import numpy as np

from . import _worker, geometry, monodromy, period, transport
from .curve import CurveParams, CurvePoint, PathSpec, canonical_paths, same_sheet, transport_w
from .ends import TOL_EIG, end_loop_check, lift_independence_check
from .errors import DscatError
from .linalg2c import TOL_SU11, det2, max_abs
from .transport import IntegratorConfig


class CheckContext:
    """Quantities at one (a, c) that several checks read, each built once on
    first use.  One whose build raised a DscatError raises that error again on
    every later use instead of being rebuilt.
    """

    def __init__(self, a: float, c: float, cfg: IntegratorConfig):
        self.a, self.c, self.cfg = a, c, cfg
        self.params = CurveParams(a, c)
        self.paths = canonical_paths(a)
        self._built: dict = {}
        self._states: dict = {}

    def _once(self, key: str, build):
        if key not in self._built:
            try:
                self._built[key] = (build(), None)
            except DscatError as exc:
                self._built[key] = (None, exc)
        value, exc = self._built[key]
        if exc is not None:
            raise exc
        return value

    @staticmethod
    def maybe(getter):
        """getter(), or None where it raises a DscatError."""
        try:
            return getter()
        except DscatError:
            return None

    def _recorder(self, name: str):
        """An on_step hook that keeps the accepted (z, y) states of the
        integration along the canonical path `name`, for states()."""
        states = self._states[name] = []
        return lambda z, y: states.append((z, y))

    def holonomy(self, loop: str) -> np.ndarray:
        """Direct holonomy of the canonical loop gamma1, gamma2 or gamma3."""
        path = getattr(self.paths, loop)
        return self._once(loop, lambda: monodromy.direct_loop_holonomy(
            path, self.params, self.cfg, on_step=self._recorder(loop)))

    def half_paths(self) -> monodromy.HalfPathFrames:
        """Endpoint frames along c1 and c2, as monodromy.half_path_frames."""

        def build():
            F1, F2 = (
                transport.integrate_frame(
                    getattr(self.paths, name), self.params, cfg=self.cfg,
                    on_step=self._recorder(name),
                )[0]
                for name in ("c1", "c2")
            )
            return monodromy.HalfPathFrames(F1, F2, self.params)

        return self._once("half_paths", build)

    def states(self, name: str) -> list:
        """The accepted (z, (F11, F12, F21, F22, w)) states of the integration
        behind holonomy(name) (a loop) or half_paths() (c1 or c2)."""
        if name in ("c1", "c2"):
            self.half_paths()
        else:
            self.holonomy(name)
        return self._states[name]

    def root(self) -> period.RefinedRoot:
        """The root refined from the bracket period.near(c)."""
        window = period.near(self.c)
        return self._once("root", lambda: period.refine_root(self.a, window, cfg=self.cfg))

    def gauge(self) -> period.GaugeSolution | None:
        """The closing gauge, or None unless the root is a crossing with |f| > 1."""
        root = self.maybe(self.root)
        if root is None or not (root.is_crossing and abs(root.f) > 1.0):
            return None
        return self._once("gauge", lambda: period.solve_gauge(root.f))

    def solution(self) -> period.PeriodSolution | None:
        """The period solution verified at the root, or None without a gauge."""
        gauge = self.gauge()
        if gauge is None:
            return None
        frames = self.root().frames
        return self._once("solution", lambda: period._verify_frames(frames, gauge, gauge.P))

    def probe(self) -> CurvePoint:
        """The curve point over z = 0.6 + 0.9i on the w = +1 sheet."""
        path = PathSpec(complex(+1), (0j, 0.6 + 0.9j))
        return self._once("probe", lambda: transport_w(path, self.a))

    def mesh(self) -> geometry.MeshResult:
        """The 8 x 12 mesh over solution() that geometry-invariants reads."""
        return self._once("mesh", lambda: geometry.build_mesh(self.solution(), 8, 12, self.cfg))

    def schwarzian(self) -> float:
        """Schwarzian identity residual at the probe point with h = 1e-3."""
        return self._once("schwarzian", lambda: geometry.schwarzian_check(
            self.solution(), self.probe(), 1e-3, self.cfg))


def _sheet_closure(ctx: CheckContext):
    worst = 0.0
    for loop in (ctx.paths.gamma1, ctx.paths.gamma2, ctx.paths.gamma3):
        end = transport_w(loop, ctx.a)
        worst = max(worst, abs(end.w - loop.w0))
    # 6.8e-16: w is in closed form, and its other value -w lies 2|w| away
    return worst <= 1e-8, f"max |w_end - w_start| = {worst:.3e}"


def _det_preservation(ctx: CheckContext):
    worst = max(transport._drifted(y)[0] for _, y in ctx.states("gamma2"))
    return worst <= transport.TOL_DET, f"max scaled |det F - 1| = {worst:.3e}"


def _scalar_residual(ctx: CheckContext):
    worst = max(
        transport.row_equation_residual(ctx.states("c1"), ctx.params),
        transport.row_equation_residual(ctx.states("c2"), ctx.params),
    )
    # 1.1e-14: an algebraic identity, so only rounding.  It vanishes for any
    # (z, F, w), solution or not (row_equation_residual), so no wrong field fails it
    return worst <= 1e-8, f"max row equation residual = {worst:.3e}"


def _structure_forms(ctx: CheckContext):
    triple = monodromy.MonodromyTriple(
        ctx.holonomy("gamma1"), ctx.holonomy("gamma2"), ctx.holonomy("gamma3")
    )
    defect = monodromy.structure_defect(triple)
    # 7.0e-10, the holonomies' integration error; 1e-7 is 140 times that
    return defect <= 1e-7, f"scaled structure defect = {defect:.3e}"


def _product_vs_direct(ctx: CheckContext):
    triple = monodromy.assemble_monodromies(ctx.half_paths())
    worst = 0.0
    for loop, Phi in (("gamma1", triple.Phi1), ("gamma2", triple.Phi2), ("gamma3", triple.Phi3)):
        worst = max(worst, max_abs(ctx.holonomy(loop) - Phi) / max(1.0, max_abs(Phi)))
    # 8.3e-10, two integrations' error; a wrong symmetry in the assembly gives O(1)
    return worst <= 1e-6, f"max scaled |product - direct| = {worst:.3e}"


def _lift_independence(ctx: CheckContext):
    B = np.array([[2.0, 0.0], [0.0, 0.5]], dtype=complex)
    Phi = ctx.holonomy("gamma2")
    d = lift_independence_check(ctx.params, ctx.paths.gamma2, B, Phi, ctx.cfg)
    # 3.0e-11: equal spectra in exact arithmetic, so integration error only
    return d <= 1e-7, f"eigenvalue discrepancy = {d:.3e}"


def _period_crossing(ctx: CheckContext):
    root = ctx.root()
    if not root.is_crossing:
        return False, (
            f"bracket converged onto a pole at c = {root.c:.6f} "
            f"(|f1 - f2| = {root.gap:.3e})"
        )
    return True, f"crossing at c = {root.c:.8f}, f = {root.f:.8f}"


def _admissibility(ctx: CheckContext):
    root = ctx.maybe(ctx.root)
    if root is None:
        return False, "skipped (no crossing)"
    return root.is_crossing and abs(root.f) > 1.0, f"|f| = {abs(root.f):.8f}"


def _gauge_identity(ctx: CheckContext):
    gauge = ctx.gauge()
    if gauge is None:
        return False, "skipped (not admissible)"
    b4 = 4.0 * gauge.beta ** 4
    reproduced = (1.0 + b4) / (1.0 - b4)
    err = max(
        abs(reproduced - gauge.f),
        abs(det2(gauge.P) - 1.0),
        abs(gauge.alpha * gauge.beta + gauge.epsilon / 2.0),
    )
    # 0: closed-form algebra on numbers of order 1, so 1e-12 allows its rounding
    return err <= 1e-12, f"max identity defect = {err:.3e}"


def _period_closure(ctx: CheckContext):
    sol = ctx.solution()
    if sol is None:
        return False, "skipped (no gauge)"
    return sol.su11_residual <= TOL_SU11, (
        f"su11 residual = {sol.su11_residual:.3e} "
        f"(absolute {sol.su11_residual_abs:.3e})"
    )


def _identity_gauge_fails(ctx: CheckContext):
    root = ctx.maybe(ctx.root)
    if root is None or not root.is_crossing:
        return False, "skipped (no crossing)"
    triple = monodromy.assemble_monodromies(root.frames)
    _, rel = period.gauged_residuals(triple, np.eye(2, dtype=complex))
    # a floor, at least 0.43: 1e-2 is 40 times below that and 1e4 times above
    # TOL_SU11, the bound on the solved gauge's residual
    return max(rel) > 1e-2, f"identity-gauge residual = {max(rel):.3e}"


def _end_eigenvalues(ctx: CheckContext):
    worst = 0.0
    for which in (+1, -1):
        analysis = end_loop_check(ctx.a, ctx.c, which, ctx.cfg)
        worst = max(worst, analysis.eigenvalue_mismatch)
    return worst <= TOL_EIG, f"max relative mismatch = {worst:.3e}"


def _schwarzian(ctx: CheckContext):
    if ctx.maybe(ctx.solution) is None:
        return False, "skipped (no solution)"
    res = ctx.schwarzian()
    # 7.4e-5 (c = 5.333170): the O(h^2) truncation of the five-point stencils
    # at h = 1e-3, not integration error (schwarzian-order measures the h^2)
    return res <= 1e-4, f"residual at h = 1e-3: {res:.3e}"


def _small_formula(ctx: CheckContext):
    sol = ctx.maybe(ctx.solution)
    if sol is None:
        return False, "skipped (no solution)"
    res = geometry.small_formula_check(sol, ctx.probe(), ctx.cfg)
    # 4.2e-12: analytic derivatives of one integrated frame, so integration error
    return res <= 1e-5, f"frame reconstruction residual = {res:.3e}"


def _geometry_invariants(ctx: CheckContext):
    sol = ctx.maybe(ctx.solution)
    if sol is None:
        return False, "skipped (no solution)"
    mesh = ctx.mesh()
    if not len(mesh.z):
        return False, "empty mesh"
    X, frame_scale = mesh.X.tolist(), mesh.frame_scale.tolist()
    # the quadric defect of a sample is conditioned like frame_scale^4
    # (products of that size cancel when forming X), so normalize by it;
    # the radius bound is widened by each sample's own evaluation noise
    # (frame_scale^2 * eps relative to |X|), which also covers the
    # atan saturation at the punctures
    worst_quadric = max(
        abs(-x0 ** 2 + x1 ** 2 + x2 ** 2 + x3 ** 2 - 1.0) / max(1.0, scale ** 4)
        for (x0, x1, x2, x3), scale in zip(X, frame_scale)
    )
    radius_ok = True
    for (x0, x1, x2, x3), (y1, y2, y3), scale in zip(X, mesh.Y.tolist(), frame_scale):
        norm_x = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3)
        width = max(1e-12, 3.0 * geometry.RESOLVE_EPS * scale ** 2 / max(1.0, norm_x))
        r2 = y1 ** 2 + y2 ** 2 + y3 ** 2
        if not (
            math.exp(-math.pi) * (1.0 - width)
            < r2
            < math.exp(math.pi) * (1.0 + width)
        ):
            radius_ok = False
    # unit normal at a few regular samples
    worst_norm = 0.0
    checked = 0
    for z, w, singular, g_abs in zip(
        mesh.z.tolist(), mesh.w.tolist(), mesh.singular.tolist(), mesh.g_abs.tolist()
    ):
        if checked >= 5 or singular or not math.isfinite(g_abs):
            continue
        F, w_frame = geometry.frame_at(sol, z, ctx.cfg)
        if not same_sheet(w_frame, w):
            continue
        g = geometry.secondary_gauss(F, w_frame)
        n0, n1, n2, n3 = geometry.unit_normal(F, g)
        scale = max(1.0, n0 ** 2 + n1 ** 2 + n2 ** 2 + n3 ** 2)
        worst_norm = max(worst_norm, abs(-n0 ** 2 + n1 ** 2 + n2 ** 2 + n3 ** 2 + 1.0) / scale)
        checked += 1
    # quadric 9.4e-12 and normal 8.3e-14, both scaled, so rounding only
    ok = worst_quadric <= 1e-7 and radius_ok and worst_norm <= 1e-9
    return ok, (
        f"quadric {worst_quadric:.3e}, radius bound {'ok' if radius_ok else 'violated'}, "
        f"normal defect {worst_norm:.3e}"
    )


def _reference_agreement(ctx: CheckContext):
    # 6.0e-11.  RK4 at reference_frame's 4000 steps, with w in closed form, is
    # within 2.3e-12 of max(1, |F|) of RK4 at 40 000 on c1 and c2 at the five
    # roots, so the deviation is the adaptive DP5 frames' own error.  1e-8, 170
    # times the largest, flags frames that have lost two digits more.
    h = ctx.half_paths()
    worst = 0.0
    for path, adaptive in ((ctx.paths.c1, h.F_c1), (ctx.paths.c2, h.F_c2)):
        reference, _ = transport.reference_frame(path, ctx.params)
        worst = max(worst, max_abs(adaptive - reference) / max(1.0, max_abs(adaptive)))
    return worst <= 1e-8, f"max scaled deviation = {worst:.3e}"


def _homotopy_invariance(ctx: CheckContext):
    a = ctx.a
    alt = PathSpec(complex(+1), (0j, 0.6 * a + 1.3j, 2.0 * a + 0.4j, 2.0 * a, 0.9 * a - 1.1j, 0j))
    direct = ctx.holonomy("gamma2")
    other = monodromy.direct_loop_holonomy(alt, ctx.params, ctx.cfg)
    diff = max_abs(direct - other) / max(1.0, max_abs(direct))
    # 5.0e-11: two integrations of homotopic loops, so integration error only
    return diff <= 1e-7, f"scaled monodromy deviation = {diff:.3e}"


def _schwarzian_order(ctx: CheckContext):
    sol = ctx.maybe(ctx.solution)
    if sol is None:
        return False, "skipped (no solution)"
    res_coarse = geometry.schwarzian_check(sol, ctx.probe(), 2e-3, ctx.cfg)
    ratio = res_coarse / max(ctx.schwarzian(), 1e-300)
    # 4.00-4.55: doubling h multiplies an O(h^2) error by 4; the range shuts
    # out first order (2) and third (8)
    return 2.5 <= ratio <= 6.5, f"residual(2e-3)/residual(1e-3) = {ratio:.2f}"


# (name, check) in the order they run and print.
CHECKS = (
    ("sheet-closure", _sheet_closure),
    ("det-preservation", _det_preservation),
    ("scalar-ode-residual", _scalar_residual),
    ("structure-forms", _structure_forms),
    ("product-vs-direct", _product_vs_direct),
    ("lift-independence", _lift_independence),
    ("period-crossing", _period_crossing),
    ("admissibility", _admissibility),
    ("gauge-identity", _gauge_identity),
    ("period-closure", _period_closure),
    ("identity-gauge-fails", _identity_gauge_fails),
    ("end-eigenvalues", _end_eigenvalues),
    ("schwarzian-identity", _schwarzian),
    ("small-formula", _small_formula),
    ("geometry-invariants", _geometry_invariants),
)
# Run after CHECKS by `dscat verify --deep`.
DEEP_CHECKS = (
    ("reference-agreement", _reference_agreement),
    ("homotopy-invariance", _homotopy_invariance),
    ("schwarzian-order", _schwarzian_order),
)


def run_invariant_suite(a: float, c: float, cfg: IntegratorConfig, deep: bool = False) -> list:
    """Invariant battery at (a, c); returns a list of (name, ok, detail) in
    registry order.

    A check that raises a DscatError fails with the error as its detail.  The
    root is refined here; then the other checks run in the worker process of
    _worker.pair while this process runs geometry-invariants; the results are
    those of a serial run.
    """
    ctx = CheckContext(a, c, cfg)
    ctx.maybe(ctx.solution)  # built once, here, before the context is pickled
    registry = CHECKS + (DEEP_CHECKS if deep else ())
    mesh_check = ("geometry-invariants", _geometry_invariants)
    others = tuple(entry for entry in registry if entry != mesh_check)
    there, here = _worker.pair("dscat.checks._run_checks", (ctx, others), (ctx, (mesh_check,)))
    order = [name for name, _ in registry]
    return sorted(there + here, key=lambda result: order.index(result[0]))


def _run_checks(ctx: CheckContext, checks: tuple) -> list:
    """[(name, ok, detail)] of the (name, check) pairs run in order on ctx."""
    results: list = []
    for name, check in checks:
        try:
            ok, detail = check(ctx)
        except DscatError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
