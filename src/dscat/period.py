"""Period problem: scan the coefficient c, refine crossings, solve the gauge.

A closed surface requires f1(c) = f2(c) with common value f of modulus
greater than 1; the initial frame P(alpha, beta) then conjugates all three
loop monodromies into SU(1,1).  The scan brackets sign changes of f1 - f2,
which are crossings or poles of the period functions, where a denominator
has an isolated zero in c: at a = 2 the poles near c = -4.80 and -1.69 are
zeros of the f2 denominator, those near -0.555 and 0.757 zeros of the f1
denominator.  Refinement tells them apart by the signs of the denominators
at the ends of its final bracket: across a pole one of them changes sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _worker
from .curve import CanonicalPaths, CurveParams, canonical_paths
from .ends import end_conjugacy_type
from .errors import (
    DegenerateDenominator,
    DomainError,
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
from .transport import DEFAULT_CONFIG, IntegratorConfig, integrate_frames_in_pieces

# Half width of the default exclusion window around c = 0.
SKIP_HALFWIDTH = 0.01
# Half width of near(c), the bracket searched for a crossing near a given c.
ROOT_WINDOW = 0.01
# Width of refinement's final bracket, far below the precision c is reported to:
# the SU(1,1) defect of the gauged monodromies is first order in the root's offset.
TOL_C = 1e-9
# Most grid points scan_c integrates together.  The cost per point has
# stopped falling by this size (the 2600-point scan at a = 2 took 1.3 s in
# blocks of 256, 0.85 s in blocks of 1024 and 0.84 s in one block), and the
# bound keeps the memory of the lane arrays flat however many grid points are
# asked for.
SCAN_BLOCK = 1024
# Lanes a scan block's half path is cut up to fill: a block of n grid points
# runs each half path as LANE_BUDGET // n pieces side by side
# (transport.integrate_frames_in_pieces), one piece when n > LANE_BUDGET // 2.
# A shared DP5 step of c2 at a = 2 cost 180 us at 27 lanes, 220 at 108,
# 338 at 216, 438 at 432 and 897 at 864 (one core of a 2-core Xeon, numpy
# 2.4, scaled to the benchmark's nominal speed): 16 times the lanes cost 2.4
# times as much per step, so a short block gains by trading its chain of
# steps along the path for more lanes, up to about the size where the cost
# per step grows in proportion to the lanes.
LANE_BUDGET = 512


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
    # |f1 - f2| at c, which the messages about a pole print
    gap: float
    is_crossing: bool
    # half-path frames at c, handed on to verification; None at a vanished denominator
    frames: HalfPathFrames = field(repr=False, compare=False)


@dataclass(frozen=True)
class GaugeSolution:
    f: float
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
) -> ScanResult:
    """Evaluate the period functions on a uniform c grid and bracket crossings.

    Grid points within SKIP_HALFWIDTH of c = 0 and points where a period
    denominator degenerates are recorded as skipped, not fatal.  Sign changes
    of f1 - f2 are only bracketed between adjacent surviving grid points, so
    a gap never manufactures a spurious bracket.

    Up to SCAN_BLOCK grid points are integrated together, sharing one step
    sequence that meets the tolerances of the hardest of them.  A block of n
    points cuts each half path into LANE_BUDGET // n pieces, each (piece, c)
    pair one lane, and multiplies each c's piece transfer matrices in path
    order (transport.integrate_frames_in_pieces); a block of more than
    LANE_BUDGET // 2 points runs the whole path as one piece.  Scan values
    therefore match single-c evaluation (_periods_at) within the integrator
    tolerance, not bit for bit; for fixed arguments they are deterministic.
    Each block's c1 pass runs in the worker process of _worker.pair while
    this process integrates c2.  Raises DomainError unless steps >= 2 and
    c_min < c_max.
    """
    if steps < 2:
        raise DomainError("--steps must be at least 2")
    if not c_min < c_max:
        raise DomainError("need --c-min < --c-max")
    paths = canonical_paths(a)  # validates a even when every grid point is skipped
    spacing = (c_max - c_min) / (steps - 1)
    grid = [c_min + k * spacing for k in range(steps)]
    live = [k for k, c in enumerate(grid) if not (abs(c) < SKIP_HALFWIDTH or c == 0.0)]
    kept: dict = {}  # grid index -> record, for the grid points not skipped
    for lo in range(0, len(live), SCAN_BLOCK):
        block = live[lo:lo + SCAN_BLOCK]
        cs = np.array([grid[k] for k in block])
        pieces = LANE_BUDGET // len(block)
        (F1, _), (F2, _) = _worker.pair(
            "dscat.transport.integrate_frames_in_pieces",
            lambda: integrate_frames_in_pieces(paths.c2, a, cs, pieces, cfg),
            paths.c1, a, cs, pieces, cfg,
        )
        f1, f2, _, _, degenerate = period_values(F1, F2)
        for k, x1, x2, bad in zip(block, f1.tolist(), f2.tolist(), degenerate.tolist()):
            if not bad:
                kept[k] = ScanRecord(grid[k], x1, x2, abs(x1) > 1.0 and abs(x2) > 1.0)

    brackets: list = []
    for k, r0 in kept.items():
        r1 = kept.get(k + 1)
        if r1 is None:
            continue
        d0, d1 = r0.f1 - r0.f2, r1.f1 - r1.f2
        if d0 == 0.0:
            brackets.append(Bracket(r0.c, r0.c, r0.admissible_hint))
        elif opposite_signs(d0, d1):
            brackets.append(Bracket(r0.c, r1.c, r0.admissible_hint and r1.admissible_hint))
    skipped = [c for k, c in enumerate(grid) if k not in kept]
    return ScanResult(list(kept.values()), brackets, skipped)


def opposite_signs(x: float, y: float) -> bool:
    """Whether x and y have opposite nonzero signs, even where x * y underflows."""
    return x < 0.0 < y or y < 0.0 < x


def bracketed_root(fn, lo: float, hi: float, tol: float) -> float:
    """Regula-falsi / bisection hybrid for a bracketed sign change of fn."""
    f_lo, f_hi = fn(lo), fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if not opposite_signs(f_lo, f_hi):
        raise LostBracket(f"no sign change over [{lo}, {hi}]")
    for _ in range(200):  # each iteration keeps at most 0.9 of the bracket
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
        if opposite_signs(f_lo, f_mid):
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def refine_root(
    a: float,
    bracket: tuple,
    tol_c: float = TOL_C,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> RefinedRoot:
    """Refine a sign-change bracket of f1 - f2 to width tol_c.

    The root is a pole of a period function, is_crossing = False, where a
    real denominator d1, d2 of period_values has opposite signs at the last
    points evaluated with each sign of f1 - f2 (the final bracket, narrowed
    by the converged c), or vanished at an iterate (gap inf); otherwise it is
    a crossing.  Raises DomainError unless tol_c is finite and positive.
    """
    if not 0.0 < tol_c < math.inf:
        raise DomainError(f"tol_c must be finite and positive, got {tol_c}")
    lo, hi = float(bracket[0]), float(bracket[1])
    paths = canonical_paths(a)

    cache: dict = {}
    tried: list = []  # every c evaluated, in order
    last: dict = {}  # f1 > f2 -> the last c evaluated with that sign

    def diff(c: float) -> float:
        tried.append(c)
        if c not in cache:
            cache[c] = _periods_at(a, c, cfg, paths)
        f1, f2, _ = cache[c]
        last[f1 > f2] = c
        return f1 - f2

    def signs(c: float) -> list:
        h = cache[c][2]
        return np.sign(period_values(h.F_c1, h.F_c2)[2:4]).tolist()

    try:
        c_star = bracketed_root(diff, lo, hi, tol_c)
        diff(c_star)
    except DegenerateDenominator:
        return RefinedRoot(tried[-1], math.nan, math.inf, False, None)
    f1, f2, h = cache[c_star]
    is_crossing = f1 == f2 or signs(last[False]) == signs(last[True])
    return RefinedRoot(c_star, 0.5 * (f1 + f2), abs(f1 - f2), is_crossing, h)


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
    return GaugeSolution(f, epsilon, beta, alpha, P)


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
    exceeds TOL_SU11.  Raises NotAdmissible where (a, c) is off the crossing
    locus.
    """
    h = half_path_frames(CurveParams(a, c), cfg)
    f1, f2 = period_functions(h)
    gap = abs(f1 - f2)
    # One point has no bracket over which to read the denominators' signs, so
    # only here the gap's size tells the crossing locus from a point off it;
    # such a point is not admissible, not a failed closure of a meaningless f.
    if gap > 1e-2 * max(1.0, abs(f1), abs(f2)):
        raise NotAdmissible(
            f"(a, c) = ({a}, {c}) is not on the crossing locus (|f1 - f2| = {gap:.3e})"
        )
    return _verify_frames(h, solve_gauge(0.5 * (f1 + f2)), P)


def _verify_frames(h: HalfPathFrames, gauge: GaugeSolution, P: np.ndarray) -> PeriodSolution:
    """verify_solution from the half-path frames and the gauge of their common f."""
    a, c = h.params.a, h.params.c
    triple = assemble_monodromies(h)
    abs_res, rel_res = gauged_residuals(triple, P)
    worst = int(np.argmax(rel_res))
    if rel_res[worst] > TOL_SU11:
        raise VerificationFailed(worst + 1, rel_res[worst])
    return PeriodSolution(
        a, c, gauge.f, gauge.epsilon, gauge.beta, gauge.alpha, P,
        max(rel_res), max(abs_res), end_conjugacy_type(a, c),
    )


def near(c: float) -> tuple:
    """The bracket c +- ROOT_WINDOW searched for a crossing near c."""
    return (c - ROOT_WINDOW, c + ROOT_WINDOW)


def solve_at_bracket(
    a: float,
    bracket: tuple,
    tol_c: float = TOL_C,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> PeriodSolution:
    """Full pipeline: refine the bracket to width tol_c, solve the gauge,
    verify closure."""
    root = refine_root(a, bracket, tol_c, cfg)
    if not root.is_crossing:
        raise NotAdmissible(
            f"bracket [{bracket[0]}, {bracket[1]}] converged onto a pole of the "
            f"period functions at c = {root.c:.6f} (|f1 - f2| = {root.gap:.3e})"
        )
    gauge = solve_gauge(root.f)
    return _verify_frames(root.frames, gauge, gauge.P)
