"""Calibrated seconds.

On a shared host the speed of this machine drifts, in steps of up to about
40%, over seconds to minutes: a fixed pure-Python loop that takes 67 ms in
one minute takes 100 ms in the next, in either CPU, with no steal time
reported. Raw times of two runs of the same code then differ by more than
any useful regression bound. The benchmark therefore runs a fixed
calibration loop before and after every timed interval and reports the
interval scaled by CAL_REF over the mean of the two calibration times.
One calibrated second is the time in which the loop would run
1 / CAL_REF times; on the machine the figures in README.md come from, in
its fast state, calibrated and wall seconds agree to a few percent. Raw
times are kept in the result files.
"""

import time

# Time of one calibration loop on the reference machine in its fast state.
CAL_REF = 0.018


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop (about CAL_REF)."""
    start = time.perf_counter()
    total = 0
    for i in range(250_000):
        total += i * i % 7
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor turning an interval's raw seconds into calibrated seconds."""
    return CAL_REF / ((before + after) / 2)
