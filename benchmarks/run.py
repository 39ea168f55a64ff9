"""Benchmark of qwalk's three evaluation routes, driven from one process
and one thread through the public functions of its modules.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --smoke

A run builds the workload's request list from the seed, then repeats whole
rounds of it until the next round would end after ``--seconds``. Every
request's output is checked against the independent reference; a request
that raises or fails a check counts as failed. The checks and the reference
are never inside a timed region. Times are calibrated seconds (see
calibration.py). ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics of ``tracing.py`` plus the tracing overhead.
``--smoke`` runs one round of every workload at tiny t in both modes, with
every check, and prints one result line for each. The exit code is 0 only
when no request failed.

The last line of standard output is the JSON result; the line before it
records the machine and versions. Result and trace files go to
``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from calibration import calibrate, scale

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = HERE / "out"
# Fresh interpreters timed for setup_s, one before each of the first
# rounds (after one untimed start that compiles the bytecode), so that the
# median neither rests on one slow start nor on one moment of the run.
SETUP_SAMPLES = 7
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required unless --smoke is given")
    return args


def _environment() -> dict:
    import mpmath
    import numpy

    import qwalk

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    # The first `version = "..."` of pyproject.toml is the [project] one.
    version = re.search(r'^version\s*=\s*"([^"]*)"', (REPO / "pyproject.toml").read_text(),
                        re.MULTILINE)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "qwalk.__version__": qwalk.__version__,
        "pyproject_version": version and version.group(1),
    }


class SetupProbe:
    """Cold starts of the workload in fresh interpreters, timed inside them
    and calibrated here, where the calibration loop runs warm."""

    def __init__(self, workload: str, seed: int, smoke: bool, out_dir: Path) -> None:
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
                     str(out_dir), "1" if smoke else "0"]
        self.calibrated: list[float] = []
        self.raw: list[float] = []
        if not smoke:
            self._start()

    def _start(self) -> float:
        done = subprocess.run(self.argv, capture_output=True, text=True, check=True, timeout=120)
        return float(done.stdout)

    def sample(self) -> None:
        before = calibrate()
        raw = self._start()
        self.calibrated.append(raw * scale(before, calibrate()))
        self.raw.append(raw)


class Round:
    """Per-request raw times, calibration factors and failures of one pass
    over the request list. A request that raised has no time."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.factors: list[float] = []
        self.request_ids: list[int] = []
        self.failed = 0

    @property
    def times(self) -> list[float]:
        return [t * f for t, f in zip(self.raw, self.factors)]

    @property
    def wall(self) -> float:
        return sum(self.times)


def _timed_call(call) -> tuple[object, float, float]:
    """Run one request; return its output, raw seconds and calibrated
    seconds."""
    before = calibrate()
    start = time.perf_counter()
    out = call()
    raw = time.perf_counter() - start
    return out, raw, raw * scale(before, calibrate())


def _run_round(workload: str, requests, tracer=None) -> Round:
    result = Round()
    for req in requests:
        req.prepare()
        with tracer.request(req.label) if tracer else nullcontext() as request_id:
            try:
                out, raw, calibrated = _timed_call(req.call)
            except Exception as exc:  # a crash is one failed request, not the end of the run
                problems = [f"{type(exc).__name__}: {exc}"]
            else:
                result.raw.append(raw)
                result.factors.append(calibrated / raw if raw else 1.0)
                result.request_ids.append(request_id)
                problems = req.check(out)
        if problems:
            result.failed += 1
            for msg in problems[:3]:
                print(f"FAIL {workload} {req.label}: {msg}", file=sys.stderr)
    return result


def _measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
             out_dir: Path) -> dict:
    import tracing
    import workloads

    setup = SetupProbe(workload, seed, smoke, out_dir)
    requests = workloads.make(workload, seed, smoke, out_dir)
    tracer = tracing.Tracer() if trace else None
    plain: list[Round] = []
    traced: list[Round] = []
    layers: list[dict[str, float]] = []
    began = time.perf_counter()
    while True:
        if len(setup.raw) < (1 if smoke else SETUP_SAMPLES):
            setup.sample()
        start = time.perf_counter()
        plain.append(_run_round(workload, requests))
        if tracer:
            with tracer.installed():
                traced.append(_run_round(workload, requests, tracer))
            factors = dict(zip(traced[-1].request_ids, traced[-1].factors))
            layers.append(tracer.layer_metrics(tracer.take_round(), factors))
        took = time.perf_counter() - start
        if smoke or time.perf_counter() - began + took > seconds:
            break
    while len(setup.raw) < (1 if smoke else SETUP_SAMPLES):
        setup.sample()

    rounds = plain + traced
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "requests": [req.label for req in requests],
        "rounds": [{"raw": r.raw, "factors": r.factors} for r in plain],
        "setup": {"calibrated": setup.calibrated, "raw": setup.raw},
        "environment": _environment(),
    }
    if trace:
        units = dict(tracing.PER_LAYER)
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                       - statistics.median(r.wall for r in plain))
        unsteady = [name for name, unit in units.items()
                    if unit != "s" and len({m[name] for m in layers}) > 1]
        if unsteady:
            print(f"warning: counts differ between rounds: {unsteady}", file=sys.stderr)
        record["traced_rounds"] = [{"raw": r.raw, "factors": r.factors} for r in traced]
        name = f"{'smoke-' if smoke else ''}trace-{workload}-seed{seed}.json"
        (out_dir / name).write_text(json.dumps(tracer.dump()))
    else:
        if not any(r.times for r in plain):
            sys.exit(f"error: every {workload} request raised, so nothing was timed")
        units = dict(END_TO_END)
        metrics = {
            "setup_s": statistics.median(setup.calibrated),
            "wall_s": statistics.median(r.wall for r in plain),
            "latency_p50_s": statistics.median(t for r in plain for t in r.times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    result = {
        # No request of any workload is expected to fail, so one that raised
        # or gave a wrong output makes the whole run incorrect.
        "correct": not any(r.failed for r in rounds),
        "attempted": len(requests) * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record["result"] = result
    name = f"{'smoke-' if smoke else ''}result-{workload}-seed{seed}-trace{int(trace)}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))
    print("env " + json.dumps(record["environment"]))
    return result


def main(argv=None, out_dir: Path = OUT) -> int:
    args = _parse(argv)
    if not (SRC / "qwalk" / "__init__.py").is_file() or not (REPO / "configs").is_dir():
        print(f"error: no qwalk sources at {SRC} (run from a full checkout)", file=sys.stderr)
        return 2
    if "QWALK_PRECISION_GUARD_BITS" in os.environ:
        print("error: unset QWALK_PRECISION_GUARD_BITS; it changes the adaptive "
              "precision and so every closed-form time", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{list(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.smoke:
        failed = False
        for workload in [args.workload] if args.workload else workloads.WORKLOADS:
            for trace in (False, True):
                result = _measure(workload, args.seed, 0.0, trace, True, out_dir)
                print(json.dumps(result))
                failed = failed or not result["correct"]
        return 1 if failed else 0
    result = _measure(args.workload, args.seed, args.seconds, bool(args.trace), False, out_dir)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
