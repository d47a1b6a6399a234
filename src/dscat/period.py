"""Period problem: scan the coefficient c, refine crossings, solve the gauge.

A closed surface requires f1(c) = f2(c) with common value f of modulus
greater than 1; the initial frame P(alpha, beta) then conjugates all three
loop monodromies into SU(1,1).  The scan brackets sign changes of f1 - f2;
refinement distinguishes genuine crossings from poles of the period
functions by the size of |f1 - f2| at the converged point.  Each
denominator has isolated zeros in c: at a = 2 the poles near c = -4.80 and
-1.69 are zeros of the f2 denominator, those near -0.555 and 0.757 zeros of
the f1 denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _worker
from .curve import CanonicalPaths, CurveParams, canonical_paths
from .ends import end_conjugacy_type
from .errors import (
    LostBracket,
    NotAdmissible,
    VerificationFailed,
)
from .linalg2c import ConjugacyType, TOL_SU11, su11_distance, su11_distance_rel
from .monodromy import (
    HalfPathFrames,
    MonodromyTriple,
    assemble_monodromies,
    half_path_frames,
    period_functions,
    period_values,
)
from .transport import DEFAULT_CONFIG, IntegratorConfig, integrate_frames_over_c

# Half width of the default exclusion window around c = 0.
SKIP_HALFWIDTH = 0.01
# A refined bracket is a genuine crossing when |f1 - f2| is below this,
# relative to the function size; poles converge with a huge gap.
CROSSING_GAP_TOL = 1e-2
# Most grid points scan_c integrates together.  The cost per point has
# stopped falling by this size (the 2600-point scan at a = 2 took 1.3 s in
# blocks of 256, 0.85 s in blocks of 1024 and 0.84 s in one block), and the
# bound keeps the memory of the lane arrays flat however many grid points are
# asked for.
SCAN_BLOCK = 1024


@dataclass(frozen=True)
class ScanRecord:
    c: float
    f1: float
    f2: float
    admissible_hint: bool


@dataclass(frozen=True)
class Bracket:
    c_lo: float
    c_hi: float
    admissible_hint: bool


@dataclass(frozen=True)
class ScanResult:
    records: list
    brackets: list
    skipped: list


@dataclass(frozen=True)
class RefinedRoot:
    c: float
    f: float
    f1: float
    f2: float
    gap: float
    is_crossing: bool
    # half-path frames at c, handed on to verification
    frames: HalfPathFrames = field(repr=False, compare=False)


@dataclass(frozen=True)
class GaugeSolution:
    epsilon: float
    beta: float
    alpha: float
    P: np.ndarray


@dataclass(frozen=True)
class PeriodSolution:
    a: float
    c: float
    f: float
    epsilon: float
    beta: float
    alpha: float
    P: np.ndarray
    su11_residual: float
    su11_residual_abs: float
    end_type: ConjugacyType


def _periods_at(
    a: float, c: float, cfg: IntegratorConfig, paths: CanonicalPaths | None = None
) -> tuple:
    """(f1, f2, half-path frames) at one c, along paths when given."""
    h = half_path_frames(CurveParams(a, c), cfg, paths)
    return (*period_functions(h), h)


def scan_c(
    a: float,
    c_min: float,
    c_max: float,
    steps: int,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    skip_halfwidth: float = SKIP_HALFWIDTH,
) -> ScanResult:
    """Evaluate the period functions on a uniform c grid and bracket crossings.

    Grid points inside the exclusion window around c = 0 and points where a
    period denominator degenerates are recorded as skipped, not fatal.  Sign
    changes of f1 - f2 are only bracketed between adjacent surviving grid
    points, so a gap never manufactures a spurious bracket.

    Up to SCAN_BLOCK grid points are integrated together, sharing one step
    sequence that meets the tolerances of the hardest of them.  Scan values
    therefore match single-c evaluation (_periods_at) within the integrator
    tolerance, not bit for bit; for fixed arguments they are deterministic.
    Each block's c1 lanes run in the worker process of _worker.pair while
    this process integrates its c2 lanes.
    """
    if not c_min < c_max:
        raise ValueError("need c_min < c_max")
    if steps < 2:
        raise ValueError("need at least 2 grid points")
    # validates a even when every grid point is skipped; the paths depend on
    # a alone, so any nonzero c serves
    paths = canonical_paths(CurveParams(a, 1.0))
    spacing = (c_max - c_min) / (steps - 1)
    grid = [c_min + k * spacing for k in range(steps)]
    live = [k for k, c in enumerate(grid) if not (abs(c) < skip_halfwidth or c == 0.0)]
    f1 = np.empty(len(live))
    f2 = np.empty(len(live))
    degenerate = np.zeros(len(live), dtype=bool)
    for lo in range(0, len(live), SCAN_BLOCK):
        block = slice(lo, lo + SCAN_BLOCK)
        cs = np.array([grid[k] for k in live[block]])
        (F1, _), (F2, _) = _worker.pair(
            "dscat.transport.integrate_frames_over_c",
            lambda: integrate_frames_over_c(paths.c2, a, cs, cfg),
            paths.c1, a, cs, cfg,
        )
        f1[block], f2[block], degenerate[block] = period_values(F1, F2)

    values = dict(zip(live, zip(f1.tolist(), f2.tolist(), degenerate.tolist())))
    records: list = []
    skipped: list = []
    index_of: dict = {}
    for k, c in enumerate(grid):
        if k not in values or values[k][2]:
            skipped.append(c)
            continue
        x1, x2, _ = values[k]
        index_of[len(records)] = k
        records.append(ScanRecord(c, x1, x2, abs(x1) > 1.0 and abs(x2) > 1.0))

    brackets: list = []
    for i in range(len(records) - 1):
        if index_of[i + 1] - index_of[i] != 1:
            continue
        r0, r1 = records[i], records[i + 1]
        d0 = r0.f1 - r0.f2
        d1 = r1.f1 - r1.f2
        if d0 == 0.0:
            brackets.append(Bracket(r0.c, r0.c, r0.admissible_hint))
        elif d0 * d1 < 0.0:
            brackets.append(
                Bracket(r0.c, r1.c, r0.admissible_hint and r1.admissible_hint)
            )
    return ScanResult(records, brackets, skipped)


def bracketed_root(fn, lo: float, hi: float, tol: float, max_iter: int = 200) -> float:
    """Regula-falsi / bisection hybrid for a bracketed sign change of fn."""
    f_lo, f_hi = fn(lo), fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise LostBracket(f"no sign change over [{lo}, {hi}]")
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        # secant candidate, fall back to bisection when it stalls
        denom = f_hi - f_lo
        if denom != 0.0:
            mid = lo - f_lo * (hi - lo) / denom
        else:
            mid = 0.5 * (lo + hi)
        margin = 0.1 * (hi - lo)
        if not (lo + margin < mid < hi - margin):
            mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def refine_root(
    a: float,
    bracket: tuple,
    tol_c: float = 1e-6,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> RefinedRoot:
    """Refine a sign-change bracket of f1 - f2 to width tol_c.

    The result records |f1 - f2| at the converged point: a genuine crossing
    has a vanishing gap, while a bracket that converged onto a pole of a
    period function keeps a large one and is flagged is_crossing = False.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    # the paths depend on a alone, so any nonzero c serves
    paths = canonical_paths(CurveParams(a, 1.0))

    cache: dict = {}

    def diff(c: float) -> float:
        cache[c] = _periods_at(a, c, cfg, paths)
        return cache[c][0] - cache[c][1]

    c_star = bracketed_root(diff, lo, hi, tol_c)
    if c_star not in cache:
        cache[c_star] = _periods_at(a, c_star, cfg, paths)
    f1, f2, h = cache[c_star]
    gap = abs(f1 - f2)
    is_crossing = gap <= CROSSING_GAP_TOL * max(1.0, abs(f1), abs(f2))
    return RefinedRoot(c_star, 0.5 * (f1 + f2), f1, f2, gap, is_crossing, h)


def solve_gauge(f: float) -> GaugeSolution:
    """Initial frame P(alpha, beta) closing the periods for a common value f.

    Requires |f| > 1.  With 4 beta^4 = (f - 1)/(f + 1), epsilon = sign(f),
    alpha = -epsilon / (2 beta):

        P = [[alpha, epsilon beta], [alpha, -epsilon beta]],  det P = 1,

    and (1 + 4 beta^4) / (1 - 4 beta^4) reproduces f.  The quantity
    (f - 1)/(f + 1) is positive for every |f| > 1; it exceeds 1 exactly when
    f < -1, which puts beta above (1/4)^(1/4) on that branch.
    """
    if not math.isfinite(f) or abs(f) <= 1.0:
        raise NotAdmissible(f"period value must satisfy |f| > 1, got {f}")
    four_beta4 = (f - 1.0) / (f + 1.0)
    beta = (four_beta4 / 4.0) ** 0.25
    epsilon = 1.0 if f > 0 else -1.0
    alpha = -epsilon / (2.0 * beta)
    P = np.array(
        [[alpha, epsilon * beta], [alpha, -epsilon * beta]], dtype=complex
    )
    return GaugeSolution(epsilon, beta, alpha, P)


def gauged_residuals(triple: MonodromyTriple, P: np.ndarray) -> tuple:
    """(absolute, scale-normalized) SU(1,1) defects of P^-1 Phi_j P, j = 1..3."""
    P_inv = np.linalg.inv(P)
    abs_res = []
    rel_res = []
    for Phi in (triple.Phi1, triple.Phi2, triple.Phi3):
        G = P_inv @ Phi @ P
        abs_res.append(su11_distance(G))
        rel_res.append(su11_distance_rel(G))
    return abs_res, rel_res


def verify_solution(
    a: float,
    c: float,
    P: np.ndarray,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> PeriodSolution:
    """Recompute the monodromies at (a, c), conjugate by P, and fail closed.

    The recorded su11_residual is the scale-normalized defect
    max_j su11_distance(G_j) / max(1, |G_j|^2): boost-type monodromies reach
    entry sizes of 1e6 where the absolute defect is floored at
    |G|^2 * 1e-16 by double precision.  The absolute defect is kept in
    su11_residual_abs.  Verification fails when the normalized residual
    exceeds TOL_SU11.
    """
    return _verify_frames(half_path_frames(CurveParams(a, c), cfg), P)


def _verify_frames(h: HalfPathFrames, P: np.ndarray) -> PeriodSolution:
    """verify_solution at (h.params.a, h.params.c) from its half-path frames."""
    a, c = h.params.a, h.params.c
    f1, f2 = period_functions(h)
    gap = abs(f1 - f2)
    if gap > CROSSING_GAP_TOL * max(1.0, abs(f1), abs(f2)):
        raise NotAdmissible(
            f"(a, c) = ({a}, {c}) is not on the crossing locus (|f1 - f2| = {gap:.3e})"
        )
    f = 0.5 * (f1 + f2)
    gauge = solve_gauge(f)

    triple = assemble_monodromies(h)
    abs_res, rel_res = gauged_residuals(triple, P)
    worst = int(np.argmax(rel_res))
    if rel_res[worst] > TOL_SU11:
        raise VerificationFailed(worst + 1, rel_res[worst])
    return PeriodSolution(
        a=a,
        c=c,
        f=f,
        epsilon=gauge.epsilon,
        beta=gauge.beta,
        alpha=gauge.alpha,
        P=P,
        su11_residual=max(rel_res),
        su11_residual_abs=max(abs_res),
        end_type=end_conjugacy_type(a, c),
    )


def solve_at_bracket(
    a: float,
    bracket: tuple,
    tol_c: float = 1e-9,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> PeriodSolution:
    """Full pipeline: refine the bracket, solve the gauge, verify closure.

    The SU(1,1) defect of the gauged monodromies is first order in the offset
    from the exact root, so the default refinement is much tighter than the
    root-location tolerance needed for reporting c itself.
    """
    root = refine_root(a, bracket, tol_c, cfg)
    if not root.is_crossing:
        raise NotAdmissible(
            f"bracket [{bracket[0]}, {bracket[1]}] converged onto a pole of the "
            f"period functions at c = {root.c:.6f} (|f1 - f2| = {root.gap:.3e})"
        )
    return _verify_frames(root.frames, solve_gauge(root.f).P)
