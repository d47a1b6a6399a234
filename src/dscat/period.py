"""Period problem: scan the coefficient c, refine crossings, solve the gauge.

A closed surface requires f1(c) = f2(c) with common value f of modulus
greater than 1; the initial frame P(alpha, beta) then conjugates all three
loop monodromies into SU(1,1).  The scan brackets sign changes of f1 - f2,
which are crossings or poles of the period functions, where a denominator
has an isolated zero in c: at a = 2 the poles near c = -4.80 and -1.69 are
zeros of the f2 denominator, those near -0.555 and 0.757 zeros of the f1
denominator.  Refinement tells them apart by the signs of the denominators
at the ends of its final bracket: across a pole one of them changes sign.
The scan evaluates many c at once on transport's Magnus kernel
(transport.transfer), a whole transfer along c1 and one along c2 for each
block of its grid, all planned onto the two processes of _worker.pair in one
call; refinement and verification evaluate one c at a time on the adaptive
DP5 kernel (monodromy.half_path_frames).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _worker
from .curve import CanonicalPaths, CurveParams, branch_points, canonical_paths
from .ends import end_conjugacy_type
from .errors import (
    DegenerateDenominator,
    DomainError,
    DscatError,
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
from .transport import DEFAULT_CONFIG, IntegratorConfig, transfer

# Half width of the default exclusion window around c = 0.
SKIP_HALFWIDTH = 0.01
# Half width of near(c), the bracket searched for a crossing near a given c.
ROOT_WINDOW = 0.01
# Width of refinement's final bracket, far below the precision c is reported to:
# the SU(1,1) defect of the gauged monodromies is first order in the root's offset.
TOL_C = 1e-9
# Most grid points scan_c integrates together.  Smaller blocks refine their
# grids for a smaller |c| and give the planner more jobs, larger ones pay a
# transfer's fixed cost less often: the median 2600-point scan of [-9, 4] at
# a = 1.5, 2 and 3 took 133, 169 and 196 ms in blocks of 512, against 146-149,
# 181-183 and 222 ms in blocks of 256 and 1024 (four alternating runs each).
# The bound also keeps the memory of a transfer's lane arrays flat however
# many grid points are asked for.
SCAN_BLOCK = 512
# Where _work samples each segment.  Over thirty scans (a = 1.3 to 5, 2600
# to 10000 points) its plans' two shares of refined steps x (lanes + 30)
# differ by 1.8% on average and 7.5% at most (plans from those counts: 0.6%
# and 2.7%; from lanes x path length x sqrt(max(1, max |c|)): 3.1% and 9.7%).
_WORK_T = (0.125, 0.375, 0.625, 0.875)


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
    denominator degenerates are skipped, not fatal: f1 and f2 are NaN there.
    Sign changes of f1 - f2 are only bracketed between adjacent kept grid
    points (_brackets), so a gap never manufactures a spurious bracket.

    The grid is taken SCAN_BLOCK points at a time, and each block's half
    paths run on transport's Magnus kernel, whose grid, shared by the
    block's c, is refined for the largest |c| among them.  Scan values
    therefore match single-c evaluation (_periods_at, on adaptive DP5)
    within the integrators' tolerances, not bit for bit; for fixed arguments
    they are deterministic.  The c of all blocks are built first, and their
    transfers along c1 and c2 run in one _worker.pair call, planned onto the
    two processes by _transfer_all; an integration failure is that of the
    first block in grid order that fails, c1 before c2.  Raises DomainError
    unless steps >= 2 and c_min < c_max, both finite with a positive, finite
    grid spacing.
    """
    if steps < 2:
        raise DomainError("--steps must be at least 2")
    if not c_min < c_max:
        raise DomainError("need --c-min < --c-max")
    paths = canonical_paths(a)  # validates a even when every grid point is skipped
    try:
        spacing = (c_max - c_min) / (steps - 1)
    except OverflowError:  # steps - 1 is beyond the floats
        spacing = 0.0
    if not 0.0 < spacing < math.inf:
        raise DomainError("need a finite --c-min, --c-max and a positive, finite grid spacing")
    c = c_min + np.arange(steps) * spacing
    f1, f2 = np.full(steps, np.nan), np.full(steps, np.nan)
    live = np.flatnonzero(np.abs(c) >= SKIP_HALFWIDTH)
    blocks = [k for k in np.split(live, live.searchsorted(range(0, steps, SCAN_BLOCK))) if k.size]
    jobs = [(path, c[k]) for k in blocks for path in (paths.c1, paths.c2)]
    frames = iter(_transfer_all(jobs, a, cfg) if jobs else ())
    for k in blocks:
        x1, x2, _, _, degenerate = period_values(next(frames), next(frames))
        f1[k], f2[k] = np.where(degenerate, np.nan, x1), np.where(degenerate, np.nan, x2)
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


def _transfer_all(jobs: list, a: float, cfg) -> list:
    """transport.transfer's end frames for each (path, cs) of jobs, in order,
    from one _worker.pair call on the shares of _plan.  Each process stops
    at its first failure (_transfer_each), so the error raised is the first
    failing job's, whichever process ran it."""
    here, there = _plan([_work(path, a, cs) for path, cs in jobs])
    replies = _worker.pair(
        "dscat.period._transfer_each",
        lambda: _transfer_each([jobs[j] for j in here], a, cfg),
        [jobs[j] for j in there], a, cfg,
    )
    frames = dict(zip(there + here, replies[0][0] + replies[1][0]))
    failed = [(share[len(done)], error) for share, (done, error) in zip((there, here), replies)
              if error is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return [frames[j] for j in range(len(jobs))]


def _plan(work: list) -> tuple:
    """(here, there): the jobs of the given work, by index in order, for this
    process and the worker, packed longest processing time first (Graham,
    1969): each job, heaviest first, joins the share with less work so far,
    and the lighter share goes to the worker."""
    shares, loads = ([], []), [0.0, 0.0]
    for j in sorted(range(len(work)), key=work.__getitem__, reverse=True):
        lighter = 0 if loads[0] <= loads[1] else 1
        shares[lighter].append(j)
        loads[lighter] += work[j]
    heavier = 0 if loads[0] >= loads[1] else 1
    return sorted(shares[heavier]), sorted(shares[1 - heavier])


def _work(path, a: float, cs: np.ndarray) -> float:
    """transfer's work along path for the c of cs, without a grid: lanes x
    the integral of |dz| / (distance to the nearest branch point), which the
    first grid's steps follow, x max(1, max |c|)^0.6, which the refined
    grid's follow (c1 and c2 at a = 1.5, 2 and 3 take 3.9-4.3 times the
    steps at |c| = 12 as at 1, and 12^0.6 = 4.4)."""
    wp, b = path.waypoints, branch_points(a)
    steps = sum(abs(q - p) / min(abs(p + (q - p) * t - x) for x in b)
                for p, q in zip(wp[:-1], wp[1:]) for t in _WORK_T)
    return cs.size * steps * max(1.0, float(np.max(np.abs(cs)))) ** 0.6


def _transfer_each(jobs: list, a: float, cfg) -> tuple:
    """(frames, error): transfer's end frames for each (path, cs) of jobs up
    to the first that raises a DscatError, and that error or None."""
    frames: list = []
    for path, cs in jobs:
        try:
            frames.append(transfer(path, a, cs, cfg)[0])
        except DscatError as exc:
            return frames, exc
    return frames, None


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
    a crossing.  Raises DomainError unless tol_c is finite and positive, and
    where the bracket holds c = 0: the frame is I there and the f2 denominator
    vanishes identically, so it is neither a root nor a pole.
    """
    if not 0.0 < tol_c < math.inf:
        raise DomainError(f"tol_c must be finite and positive, got {tol_c}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if lo <= 0.0 <= hi:
        raise DomainError(
            f"bracket [{lo}, {hi}] contains c = 0, which is neither a root nor a pole"
        )
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
