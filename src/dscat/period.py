"""Period problem: scan the coefficient c, refine crossings, solve the gauge.

A closed surface requires f1(c) = f2(c) with common value f of modulus
greater than 1; the initial frame P(alpha, beta) then conjugates all three
loop monodromies into SU(1,1).  The scan brackets sign changes of f1 - f2,
which are crossings or poles of the period functions, where a denominator
has an isolated zero in c: at a = 2 the poles near c = -4.80 and -1.69 are
zeros of the f2 denominator, those near -0.555 and 0.757 zeros of the f1
denominator.  c = 0 is a pole of f2 too, where the frames tend to I: the f2
numerator vanishes like c and its denominator d2 like c^2, so d2 keeps its
sign, but d2/c changes it.  Refinement reads the signs of d1 and d2/c at the
two ends of the bracket it is given, before it refines anything: across a
pole one of them changes sign, and such a bracket is refused.
The scan and refinement evaluate the period functions on transport's Magnus
kernel (transport.transfer, in _periods_over): a transfer along c1 and one
along c2 for each block of the scan's grid and for each iterate of
refinement, paired as in monodromy.half_path_frames: c1 in the worker
process of _worker.pair, c2 in this one.  The refined root and verification
are then evaluated at one c on the adaptive DP5 kernel (half_path_frames),
so every check confirms the root by a route other than the one that found it.
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
from .transport import DEFAULT_CONFIG, IntegratorConfig

# Half width of near(c), the bracket searched for a crossing near a given c.
ROOT_WINDOW = 0.01
# Width of refinement's final bracket, far below the precision c is reported to:
# the SU(1,1) defect of the gauged monodromies is first order in the root's offset.
TOL_C = 1e-9
# Most grid points scan_c integrates together.  Smaller blocks refine their
# grids for a smaller |c|, larger ones pay a transfer's fixed cost less often;
# the block sets each grid, so a scan's values depend on it.  The median
# 2600-point scan of [-9, 4] at a = 1.5, 2 and 3 took 103, 148 and 200 ms in
# blocks of 512, against 130, 153 and 190 ms in blocks of 256 and 113, 153 and
# 176 ms in blocks of 1024 (four alternating runs each, two cores).
# The bound also keeps the memory of a transfer's lane arrays flat however
# many grid points are asked for.
SCAN_BLOCK = 512


@dataclass(frozen=True, eq=False)
class ScanResult:
    """The scan as one table: f1 and f2 at each point of the grid c, NaN where
    skipped, and the brackets (c_lo, c_hi) of f1 - f2 in grid order."""

    c: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    brackets: np.ndarray
    bracket_hint: np.ndarray

    @property
    def kept(self) -> np.ndarray:
        return ~np.isnan(self.f1)

    @property
    def admissible_hint(self) -> np.ndarray:
        return _admissible(self.f1, self.f2)


@dataclass(frozen=True)
class RefinedRoot:
    c: float
    f: float
    # half-path frames at c on the DP5 kernel, f's source, handed on to verification
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


def _periods_over(a: float, cs, cfg: IntegratorConfig, paths: CanonicalPaths) -> tuple:
    """period_values' (f1, f2, d1, d2) at each c of the 1-d array cs, from
    one transfer pair on transport's Magnus kernel, c1 in the worker."""
    (F1, _), (F2, _) = _worker.pair(
        "dscat.transport.transfer", (paths.c1, a, cs, cfg), (paths.c2, a, cs, cfg)
    )
    return period_values(F1, F2)


def scan_c(
    a: float,
    c_min: float,
    c_max: float,
    steps: int,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> ScanResult:
    """Evaluate the period functions on a uniform c grid and bracket crossings.

    Points where a period denominator vanishes are skipped, not fatal:
    period_values returns f1 and f2 as NaN there, and they are stored as
    returned.  That is the only reason a point near the pole of
    f2 at c = 0 is skipped: its denominator, about 16.9 c^2 at a = 2, fails
    period_values' 1e-12 test for |c| below about 2.4e-7.  Sign changes of
    f1 - f2 are bracketed between adjacent kept grid points only.

    The grid is taken SCAN_BLOCK points at a time, and each block's half
    paths run on transport's Magnus kernel, whose grid, shared by the
    block's c, is refined for the largest |c| among them.  Scan values
    therefore match single-c evaluation (_periods_at, on adaptive DP5)
    within the integrators' tolerances, not bit for bit; for fixed arguments
    they are deterministic.  The blocks run in grid order, each in one
    _worker.pair call, c1 in the worker while this process takes c2, as
    half_path_frames does; an integration failure is that of the first block
    that fails, c1 before c2, and ends the scan.  Raises DomainError
    unless steps >= 2 and c_min < c_max, both finite with a positive, finite
    grid spacing, and where the grid's arrays cannot be allocated.
    """
    if steps < 2:
        raise DomainError("--steps must be at least 2")
    if not c_min < c_max:
        raise DomainError("need --c-min < --c-max")
    paths = canonical_paths(a)
    try:
        spacing = (c_max - c_min) / (steps - 1)
    except OverflowError:  # steps - 1 is beyond the floats
        spacing = 0.0
    if not 0.0 < spacing < math.inf:
        raise DomainError("need a finite --c-min, --c-max and a positive, finite grid spacing")
    try:
        c = c_min + np.arange(steps) * spacing
        f1, f2 = np.full(steps, np.nan), np.full(steps, np.nan)
    except (ValueError, MemoryError):  # numpy's size limit, or the memory's
        raise DomainError(f"--steps {steps} is too many grid points to allocate") from None
    for start in range(0, steps, SCAN_BLOCK):
        k = slice(start, start + SCAN_BLOCK)
        f1[k], f2[k], _, _ = _periods_over(a, c[k], cfg, paths)
    return ScanResult(c, f1, f2, *_brackets(c, f1, f2))


def _brackets(c: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> tuple:
    """(brackets, hints) of d = f1 - f2 on the grid c, f1 NaN where skipped:
    of each two kept neighbours k, k + 1, (c[k], c[k]) where d[k] == 0 and
    (c[k], c[k + 1]) where d has opposite signs; hinted if both ends are admissible."""
    d, kept = f1 - f2, ~np.isnan(f1)
    pair = kept[:-1] & kept[1:]
    zero = d[:-1] == 0.0
    k = np.flatnonzero(pair & (zero | opposite_signs(d[:-1], d[1:])))
    hi = np.where(zero[k], k, k + 1)
    hint = _admissible(f1, f2)
    return np.column_stack((c[k], c[hi])), hint[k] & hint[hi]


def _admissible(f1, f2):
    """|f1| > 1 and |f2| > 1, elementwise: necessary for a closing f (solve_gauge)."""
    return (np.abs(f1) > 1.0) & (np.abs(f2) > 1.0)


def opposite_signs(x, y):
    """Whether x and y have opposite nonzero signs, elementwise, even where x * y underflows."""
    return (x < 0.0) & (0.0 < y) | (y < 0.0) & (0.0 < x)


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
        # secant candidate; f_lo and f_hi have opposite nonzero signs, so
        # f_hi - f_lo is not 0.  Bisect where the candidate stalls at an end.
        mid = lo - f_lo * (hi - lo) / (f_hi - f_lo)
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
    """Refine the crossing of f1 and f2 in a sign-change bracket of f1 - f2 to width tol_c.

    Each iterate takes f1 - f2 from one transfer pair on the scan's Magnus
    kernel (_periods_over).  The root c* is then evaluated once on the DP5
    kernel (_periods_at): its half-path frames become the RefinedRoot's
    frames, and f = (f1 + f2)/2 is taken from them, so the gauge and
    verification confirm c* by a route other than the one that found it.

    Raises LostBracket, after the evaluations at the two ends, where d1 or
    d2/c has opposite signs there (d1, d2 the real denominators of
    period_values; d2/c, since d2 keeps its sign at the pole of f2 at 0):
    the bracket holds a pole of f1, f2 or both, not a crossing.  A
    denominator that vanishes at an iterate, or at c* on DP5, loses the
    bracket too.  Raises DomainError before any evaluation unless tol_c is
    finite and positive, lo <= hi (scan_c brackets (c, c) where f1 - f2 is 0
    at a grid point) and CurveParams takes both ends, which refuses c = 0,
    where the frames are I.
    """
    if not 0.0 < tol_c < math.inf:
        raise DomainError(f"tol_c must be finite and positive, got {tol_c}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo <= hi:
        raise DomainError(f"need lo <= hi, got bracket [{lo}, {hi}]")
    for c in (lo, hi):
        CurveParams(a, c)
    paths = canonical_paths(a)
    cache: dict = {}

    def lost(c: float) -> LostBracket:
        return LostBracket(f"a period denominator vanished at c = {c}")

    def periods(c: float) -> tuple:
        if c not in cache:
            f1, f2, d1, d2 = (float(x[0]) for x in _periods_over(a, [c], cfg, paths))
            if math.isnan(f1):
                raise lost(c)
            cache[c] = f1, f2, d1, d2
        return cache[c]

    def signs(c: float) -> list:
        d1, d2 = periods(c)[2:]
        return [np.sign(d1), np.sign(d2) * np.sign(c)]

    poles = [f for f, s_lo, s_hi in zip(("f1", "f2"), signs(lo), signs(hi)) if s_lo != s_hi]
    if poles:
        raise LostBracket(
            f"bracket [{lo}, {hi}] holds a pole of {' and '.join(poles)}, not a crossing"
        )

    def diff(c: float) -> float:
        f1, f2, _, _ = periods(c)
        return f1 - f2

    c_star = bracketed_root(diff, lo, hi, tol_c)
    try:
        f1, f2, h = _periods_at(a, c_star, cfg, paths)
    except DegenerateDenominator:
        raise lost(c_star) from None
    return RefinedRoot(c_star, 0.5 * (f1 + f2), h)


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
    gauge = solve_gauge(root.f)
    return _verify_frames(root.frames, gauge, gauge.P)
