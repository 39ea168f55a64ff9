"""Spans and counts for the traced benchmark run.

While installed, the tracer replaces public functions of the ``qwalk``
modules, at every module attribute that holds them, with wrappers that
time the call. Nothing under ``src/`` changes, and uninstalling puts the
originals back. A span is recorded only where a call crosses from one
module into another (``closedform_pure.distribution`` calling its own
``amplitude`` per site is not a layer boundary). Counts are derived from
each call's inputs through the package's public functions, so they
measure the work the inputs ask for and repeat exactly from run to run.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from pathlib import Path
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from qwalk import arithmetic, cli, closedform_mixed, closedform_pure, config, direct
from qwalk import spectral, verify

# Per-layer metrics of the traced run, in the order they are reported.
PER_LAYER = (
    ("closedform_pure.distribution.adaptive.busy_s", "s"),
    ("closedform_pure.distribution.exact.busy_s", "s"),
    ("closedform_pure.amplitude.busy_s", "s"),
    ("closedform_pure.terms", "count"),
    ("arithmetic.work_prec_bits", "bits"),
    ("direct.evolve_pure.float.busy_s", "s"),
    ("direct.evolve_pure.exact.busy_s", "s"),
    ("direct.evolve_mixed.busy_s", "s"),
    ("direct.site_steps", "count"),
    ("spectral.simulate.busy_s", "s"),
    ("spectral.mode_steps", "count"),
    ("closedform_mixed.build.busy_s", "s"),
    ("closedform_mixed.lookup.busy_s", "s"),
    ("closedform_mixed.cache_hits", "count"),
    ("closedform_mixed.cache_misses", "count"),
    ("verify.checks.busy_s", "s"),
    ("config.from_file.busy_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)

_MIXED_TABLES = (closedform_mixed.pipeline_weights, closedform_mixed.literal_weights)


@dataclass
class Span:
    name: str
    module: str
    start: float
    request: int
    parent: int | None
    end: float = 0.0
    # verify.compare spans: the part of the span outside report.timings.
    checks: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class RoundTrace:
    """What one traced round recorded: its spans, and the counts and times
    accumulated by the hooks."""

    spans: list[Span] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=lambda: defaultdict(float))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._round = RoundTrace()
        self._request = -1
        self._terms: dict[tuple[int, int], int] = {}
        self._site_steps: dict[tuple[tuple[int, ...], int], int] = {}
        self._prec: dict[int, int] = {}

    # -- spans -----------------------------------------------------------

    def _begin(self, name: str, module: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, module, time.perf_counter(), self._request, parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        self._round.spans.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def _at_boundary(self, module: str) -> bool:
        return not self._open or self.spans[self._open[-1]].module != module

    @contextmanager
    def request(self, label: str):
        """Root span of one benchmark request; its children share its id."""
        self._request += 1
        span = self._begin(f"request.{label}", "benchmark")
        try:
            yield self._request
        finally:
            self._finish(span)

    def take_round(self) -> RoundTrace:
        """What was recorded since the last call."""
        done, self._round = self._round, RoundTrace()
        return done

    def count(self, name: str, value: float) -> None:
        self._round.values[name] += value

    # -- counts derived from a call's inputs -------------------------------

    def _count_terms(self, t: int, xs, support) -> None:
        total = 0
        for x in xs:
            for xp in support:
                key = (t, x - xp)
                if key not in self._terms:
                    self._terms[key] = sum(
                        1
                        for family in closedform_pure.FAMILIES
                        for _ in closedform_pure.admissible_terms(x - xp, t, 0, family)
                    )
                total += self._terms[key]
        self.count("closedform_pure.terms", total)

    def _note_precision(self, t: int, mode: str) -> None:
        if mode != "adaptive":
            return
        if t not in self._prec:
            self._prec[t] = arithmetic.precision_for(closedform_pure.coefficient_bits(t))
        values = self._round.values
        key = "arithmetic.work_prec_bits"
        values[key] = max(values[key], self._prec[t])

    def _count_site_steps(self, support: tuple[int, ...], t: int) -> None:
        key = (support, t)
        if key not in self._site_steps:
            self._site_steps[key] = sum(
                len(set().union(*(range(x - s, x + s + 1, 2) for x in support)))
                for s in range(t)
            )
        self.count("direct.site_steps", self._site_steps[key])

    # -- per-layer hooks --------------------------------------------------
    # Each hook gets the span (None for a call inside its own module), the
    # bound arguments and the result, and may rename the span.

    def _on_distribution(self, span, a, result):
        if span is None:
            return
        span.name = f"closedform_pure.distribution.{a['mode']}"
        lo, hi = a["init"].span
        t = a["t"]
        self._count_terms(t, range(lo - t, hi + t + 1), a["init"].support)
        self._note_precision(t, a["mode"])

    def _on_amplitude(self, span, a, result):
        if span is None:
            return
        self._count_terms(a["t"], (a["x"],), a["init"].support)
        self._note_precision(a["t"], a["mode"])

    def _on_evolve_pure(self, span, a, result):
        init = a["init"]
        if span is not None:
            exact = init.exact and a["params"].exact_capable
            span.name = f"direct.evolve_pure.{'exact' if exact else 'float'}"
        self._count_site_steps(init.support, a["t"])

    def _on_simulate(self, span, a, result):
        lo, hi = a["init"].span
        n = a["n"] or spectral.ring_size(a["t"], max(abs(lo), abs(hi)))
        self.count("spectral.mode_steps", n * a["t"])

    def _on_compare(self, span, a, result):
        if span is not None:
            span.checks = span.duration - sum(result.timings.values())

    def _on_cli_main(self, span, a, result):
        argv = list(a["argv"] or ())
        if "--out" in argv:
            base = argv[argv.index("--out") + 1]
            for path in (Path(base + ".csv"), Path(base + ".json")):
                if path.exists():
                    self.count("cli.output_bytes", path.stat().st_size)

    # -- installation -----------------------------------------------------

    def _wrap(self, func, module: str, name: str, hook=None, mixed_tables=False):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self._begin(name, module) if self._at_boundary(module) else None
            if mixed_tables:
                before = [f.cache_info() for f in _MIXED_TABLES]
            try:
                result = func(*args, **kwargs)
            finally:
                if span is not None:
                    self._finish(span)
            if mixed_tables:
                after = [f.cache_info() for f in _MIXED_TABLES]
                hits = sum(x.hits - y.hits for x, y in zip(after, before))
                misses = sum(x.misses - y.misses for x, y in zip(after, before))
                self.count("closedform_mixed.cache_hits", hits)
                self.count("closedform_mixed.cache_misses", misses)
                if span is not None:
                    span.name = "closedform_mixed.build" if misses else "closedform_mixed.lookup"
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(span, bound.arguments, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the traced public functions for the duration of the block."""
        targets = [
            (closedform_pure, "distribution", "closedform_pure", self._on_distribution, False),
            (closedform_pure, "amplitude", "closedform_pure", self._on_amplitude, False),
            (direct, "evolve_pure", "direct", self._on_evolve_pure, False),
            (direct, "evolve_mixed", "direct", None, False),
            (spectral, "simulate", "spectral", self._on_simulate, False),
            (closedform_mixed, "distribution_mixed", "closedform_mixed", None, True),
            (verify, "compare_pure", "verify", self._on_compare, False),
            (verify, "compare_mixed", "verify", self._on_compare, False),
            (cli, "main", "cli", self._on_cli_main, False),
        ]
        qwalk_modules = [m for n, m in sys.modules.items()
                         if n == "qwalk" or n.startswith("qwalk.")]
        restore = []
        for owner, attr, module, hook, mixed in targets:
            original = getattr(owner, attr)
            name = "verify.compare" if module == "verify" else f"{module}.{attr}"
            wrapped = self._wrap(original, module, name, hook, mixed)
            for mod in qwalk_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, key, value))
                        setattr(mod, key, wrapped)
        cls = config.WalkConfig
        descriptor = cls.__dict__["from_file"]
        restore.append((cls, "from_file", descriptor))
        cls.from_file = staticmethod(self._wrap(cls.from_file, "config", "config.from_file"))
        try:
            yield self
        finally:
            for owner, key, value in reversed(restore):
                setattr(owner, key, value)

    def layer_metrics(self, trace: RoundTrace, factors: dict[int, float]) -> dict[str, float]:
        """Per-layer values of one traced round (all but the overhead). A
        layer's busy time is the sum of its spans; cli.self_s is the cli.main
        spans minus the spans directly under them. ``factors`` maps a request
        id to the factor that turns its raw seconds into calibrated ones."""
        out = {name: 0.0 for name, _ in PER_LAYER if name != "trace.overhead_s"}
        for span in trace.spans:
            f = factors.get(span.request)
            if f is None:  # the request raised, so it has no time
                continue
            key = f"{span.name}.busy_s"
            if key in out:
                out[key] += span.duration * f
            out["verify.checks.busy_s"] += span.checks * f
            if span.name == "cli.main":
                out["cli.self_s"] += span.duration * f
            elif span.parent is not None and self.spans[span.parent].name == "cli.main":
                out["cli.self_s"] -= span.duration * f
        out.update(trace.values)
        return out

    def dump(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "request": s.request,
            }
            for s in self.spans
        ]
