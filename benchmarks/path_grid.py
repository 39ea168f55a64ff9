"""Per-path reference figures: each evaluation path timed alone over a t grid.

    python3 benchmarks/path_grid.py

Prints a markdown table of the median of REPEATS calls, in calibrated seconds
(see calibration.py), with its quartiles, and the largest t at which the
path's median call stays within one second: found by doubling t past the
grid while it does, then by bisection, to about 5%. A path is not run at
larger t once one call takes longer than ``CAP`` seconds. Not part of the
benchmark's timed runs; its output is the reference table in README.md.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from calibration import calibrate, scale  # noqa: E402
from qwalk import closedform_mixed, closedform_pure, direct, spectral  # noqa: E402
from qwalk.core import CoinParams, MixedLocalizedState, PureState  # noqa: E402
from workloads import clear_mixed_tables  # noqa: E402

GRID = (25, 50, 100, 200, 400)
REPEATS = 5
CAP = 3.0
LIMIT = 1.0

HADAMARD = CoinParams.hadamard()
OFF_GRID = CoinParams.make(0.7, 1.1, 2.3)
EXACT_START = PureState.plus_i()
FLOAT_START = EXACT_START.to_float()
BLOCH = (0.5, 0.1, 0.2, 0.15)


def _mixed(mode):
    def call(t):
        clear_mixed_tables()
        closedform_mixed.distribution_mixed(t, BLOCH, mode)
    return call


PATHS = {
    "direct exact": lambda t: direct.evolve_pure(EXACT_START, HADAMARD, t),
    "direct float": lambda t: direct.evolve_pure(FLOAT_START, OFF_GRID, t),
    "spectral repeated": lambda t: spectral.simulate(FLOAT_START, OFF_GRID, t),
    "spectral horner": lambda t: spectral.simulate(FLOAT_START, OFF_GRID, t, power="horner"),
    "closed form exact": lambda t: closedform_pure.distribution(t, EXACT_START, HADAMARD, "exact"),
    "closed form adaptive": lambda t: closedform_pure.distribution(t, FLOAT_START, OFF_GRID),
    "closed form double": lambda t: closedform_pure.distribution(
        t, FLOAT_START, OFF_GRID, "double"),
    "mixed direct": lambda t: direct.evolve_mixed(
        MixedLocalizedState.from_pauli(*BLOCH), HADAMARD, t),
    "mixed consistent": _mixed("consistent"),
    "mixed pipeline-literal": _mixed("pipeline-literal"),
    "mixed literal": _mixed("literal"),
}


def _times(call, t: int, repeats: int) -> list[float]:
    out = []
    for _ in range(repeats):
        before = calibrate()
        start = time.perf_counter()
        call(t)
        elapsed = time.perf_counter() - start
        out.append(elapsed * scale(before, calibrate()))
        if out[-1] > CAP:
            break
    return out


def _largest_within_limit(call, lo: int, hi: int | None) -> int:
    """Bisect on t between a passing lo and a failing hi (None: double lo
    until it fails)."""
    while hi is None:
        if statistics.median(_times(call, 2 * lo, 3)) <= LIMIT:
            lo *= 2
        else:
            hi = 2 * lo
    while hi - lo > max(1, lo // 20):
        mid = (lo + hi) // 2
        if statistics.median(_times(call, mid, 3)) <= LIMIT:
            lo = mid
        else:
            hi = mid
    return lo


def main() -> None:
    print("| path | " + " | ".join(f"t={t}" for t in GRID) + " | largest t within 1 s |")
    print("|---" * (len(GRID) + 2) + "|")
    for name, call in PATHS.items():
        cells, passing, failing, too_slow = [], 0, None, False
        for t in GRID:
            if too_slow:
                cells.append("-")
                continue
            times = _times(call, t, REPEATS)
            too_slow = max(times) > CAP
            med = statistics.median(times)
            if len(times) >= 4:
                q1, _, q3 = statistics.quantiles(times, n=4)
                cells.append(f"{med:.3g} ({q1:.3g}-{q3:.3g})")
            else:
                cells.append(f"{med:.3g} (n={len(times)})")
            if failing is None:
                if med <= LIMIT:
                    passing = t
                else:
                    failing = t
        limit = _largest_within_limit(call, passing, failing) if passing else f"< {GRID[0]}"
        print(f"| {name} | " + " | ".join(cells) + f" | {limit} |", flush=True)


if __name__ == "__main__":
    main()
