"""Accuracy of the scan's Magnus kernel against adaptive DP5, per half path.

    python3 tools/scan_accuracy.py

Run it from any directory: it imports dscat from the src/ of the checkout that
holds it.  For 180 values of c evenly spaced over [-12, 6] at a = 1.3, 2 and 5,
and for each half path c1 and c2, it prints the worst error of
transport.transfer (the scan's kernel) and of the DP5 lane kernel
(transport.integrate_frames_over_c) at the default tolerances, both against
the DP5 lane kernel at rel_tol 1e-13.  The error of a frame F against the
reference R is max |F - R| / max(1, max |R|), the worst over the 180 c; the
last columns give the Magnus grid's steps (after refinement) and the time of
each kernel.  Both kernels run all 180 c in one call, as a scan block does.
transfer's error should be no larger than DP5 default's on every row.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from dscat import transport  # noqa: E402
from dscat.curve import canonical_paths  # noqa: E402

A_VALUES = (1.3, 2.0, 5.0)
CS = np.linspace(-12.0, 6.0, 180)
REFERENCE = transport.IntegratorConfig(rel_tol=1e-13)


def error(F: np.ndarray, R: np.ndarray) -> float:
    """The worst over the lanes of max |F - R| / max(1, max |R|)."""
    scale = np.maximum(1.0, np.abs(R).max(axis=(1, 2)))
    return float((np.abs(F - R).max(axis=(1, 2)) / scale).max())


def timed(call) -> tuple:
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def main() -> int:
    print("a    path  transfer   DP5 default  Magnus steps  transfer ms  DP5 ms")
    worse = 0
    for a in A_VALUES:
        paths = canonical_paths(a)
        for name in ("c1", "c2"):
            path = getattr(paths, name)
            reference, _ = transport.integrate_frames_over_c(path, a, CS, REFERENCE)
            steps = []
            refine = transport._refine

            def counting(*args):
                M = refine(*args)
                steps.append(M.shape[2])
                return M

            transport._refine = counting
            try:
                (magnus, _), t_magnus = timed(lambda: transport.transfer(path, a, CS))
            finally:
                transport._refine = refine
            (dp5, _), t_dp5 = timed(lambda: transport.integrate_frames_over_c(path, a, CS))
            e_magnus, e_dp5 = error(magnus, reference), error(dp5, reference)
            worse += e_magnus > e_dp5
            print(
                f"{a:<4} {name:<5} {e_magnus:.2e}   {e_dp5:.2e}     {sum(steps):>6}"
                f"        {1e3 * t_magnus:>6.1f}     {1e3 * t_dp5:>6.1f}"
            )
    print(f"{worse} row(s) where transfer is less accurate than DP5 default")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
