"""Time one cold start: import ``qwalk`` in this fresh interpreter, then
build a workload's request list.

    python3 benchmarks/setup_probe.py WORKLOAD SEED OUT_DIR SMOKE(0|1)

Prints the raw seconds; the caller calibrates them. Importing the
benchmark's own modules between the two steps is not timed.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> None:
    workload, seed, out_dir, smoke = sys.argv[1:]
    start = time.perf_counter()
    import qwalk  # noqa: F401

    imported = time.perf_counter()
    import workloads

    resumed = time.perf_counter()
    workloads.make(workload, int(seed), smoke == "1", Path(out_dir))
    done = time.perf_counter()
    print(repr((imported - start) + (done - resumed)))


if __name__ == "__main__":
    main()
