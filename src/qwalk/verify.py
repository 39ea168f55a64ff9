"""Cross-verification harness.

Runs the same walk through independent evaluation paths (position-space
stepping, momentum-space propagation, closed-form coefficients) and
reports pairwise deviations, invariant defects, and pass/fail against
explicit tolerances. Reports serialize to canonical JSON that is
byte-stable across runs: timings are measured and carried on the report
object but excluded from the canonical form, since they are the only
nondeterministic field.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import combinations

import numpy as np

from . import closedform_mixed, closedform_pure, direct, spectral
from .closedform_pure import MODES
from .core import (
    CoinParams,
    Distribution,
    MixedLocalizedState,
    PureState,
    _gaps,
    step_count,
    valid_mixed_state,
)

__all__ = [
    "Tolerances",
    "ComparisonReport",
    "canonical_json",
    "check_plan",
    "check_comparable",
    "evaluate",
    "reachable_parities",
    "compare_pure",
    "compare_mixed",
    "InvariantSuiteReport",
    "run_invariant_suite",
    "PURE_METHODS",
    "MIXED_COMPARE_METHODS",
    "MODES",
]

PURE_METHODS = ("direct", "spectral", "closed-form")
MIXED_COMPARE_METHODS = ("direct", "consistent", "literal", "pipeline-literal")


@dataclass(frozen=True)
class Tolerances:
    """Acceptance thresholds for a comparison run."""

    pairwise_tv: float = 1e-10
    pointwise: float = 1e-10
    normalization: float = 1e-12
    # Double-precision paths leave |amplitude|^2 roundoff dust (~1e-30) on
    # parity-forbidden sites; a genuine parity leak deposits O(1) mass.
    forbidden_mass: float = 1e-24
    symmetry: float = 1e-12


def _finite_or_null(value):
    """``value`` with each NaN or infinite float replaced by None, which
    json.dumps writes as null; strict JSON has no spelling for them."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def canonical_json(doc) -> str:
    """Strict JSON with sorted keys and no whitespace, so that equal
    documents serialize to equal bytes."""
    return json.dumps(_finite_or_null(doc), sort_keys=True, separators=(",", ":"))


def _pair_key(a: str, b: str) -> str:
    return f"{a}|{b}"


@dataclass
class ComparisonReport:
    """Outcome of one multi-method comparison.

    ``pairwise_tv`` and ``pairwise_pointwise`` are keyed "methodA|methodB"
    in the order the methods were requested. ``failures`` lists every
    tolerance violation as a human-readable string; ``passed`` is its
    emptiness.
    """

    kind: str
    t: int
    methods: tuple[str, ...]
    tolerances: Tolerances
    pairwise_tv: dict[str, float] = field(default_factory=dict)
    pairwise_pointwise: dict[str, float] = field(default_factory=dict)
    normalization_error: dict[str, float] = field(default_factory=dict)
    forbidden_mass: dict[str, float] = field(default_factory=dict)
    symmetry_defect: float | None = None
    failures: list[str] = field(default_factory=list)
    distributions: dict[str, dict[int, float]] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self, include_timings: bool = False) -> dict:
        # asdict deep-copies value by value, which for the distributions
        # would cost more than the rest of the report
        out = asdict(replace(self, distributions={}))
        out["passed"] = self.passed
        out["distributions"] = {
            m: {str(x): p for x, p in sorted(d.items())}
            for m, d in self.distributions.items()
        }
        if not include_timings:
            del out["timings"]
        return out

    def to_json(self, include_timings: bool = False) -> str:
        """Canonical JSON: sorted keys, no whitespace, timings omitted
        unless explicitly requested."""
        return canonical_json(self.to_dict(include_timings=include_timings))


def _forbidden_mass(dist: Distribution, parities: set[int]) -> float:
    """Probability mass on sites the walk cannot reach at this t."""
    if len(parities) != 1:
        return 0.0
    (allowed,) = parities
    return sum(p for x, p in dist.items() if x % 2 != allowed)


def _breaches(measure: float, bound: float) -> bool:
    # "not within" rather than "above", so that a NaN measure fails
    return not measure <= bound


def _check_distributions(
    report: ComparisonReport,
    dists: dict[str, Distribution],
    parities: set[int],
    check_symmetry: bool,
) -> None:
    tol = report.tolerances
    for name, dist in dists.items():
        norm_err = abs(dist.total() - 1.0)
        report.normalization_error[name] = norm_err
        if _breaches(norm_err, tol.normalization):
            report.failures.append(
                f"{name}: normalization off by {norm_err:.3e} "
                f"(tolerance {tol.normalization:.3e})"
            )
        mass = _forbidden_mass(dist, parities)
        report.forbidden_mass[name] = mass
        if _breaches(mass, tol.forbidden_mass):
            report.failures.append(
                f"{name}: {mass:.3e} probability on parity-forbidden sites"
            )
    for a, b in combinations(dists, 2):
        key = _pair_key(a, b)
        # total_variation and max_pointwise_difference over one read
        gaps = _gaps(dists[a], dists[b])
        tv, pw = 0.5 * sum(gaps), float(np.max(gaps, initial=0.0))
        report.pairwise_tv[key] = tv
        report.pairwise_pointwise[key] = pw
        if _breaches(tv, tol.pairwise_tv):
            report.failures.append(
                f"{key}: total variation {tv:.3e} exceeds {tol.pairwise_tv:.3e}"
            )
        if _breaches(pw, tol.pointwise):
            report.failures.append(
                f"{key}: pointwise deviation {pw:.3e} exceeds {tol.pointwise:.3e}"
            )
    if check_symmetry:
        # np.max, unlike max(), keeps a NaN wherever it sits
        defect = float(np.max(
            [abs(d[x] - d[-x]) for d in dists.values() for x in d.positions],
            initial=0.0,
        ))
        report.symmetry_defect = defect
        if _breaches(defect, tol.symmetry):
            report.failures.append(
                f"symmetry defect {defect:.3e} exceeds {tol.symmetry:.3e}"
            )


def reachable_parities(initial, t: int) -> set[int]:
    """Parities of the sites a walk from ``initial`` can occupy at time t:
    x + t for each source x. A mixed state starts at the origin."""
    if isinstance(initial, MixedLocalizedState):
        return {t % 2}
    return {(x + t) % 2 for x in initial.support}


def check_plan(params: CoinParams, initial, methods, mode: str) -> None:
    """Raise ValueError for methods or a mode that the coin and the initial
    state do not admit, or for a method named twice. ``evaluate``, the
    comparisons and ``WalkConfig`` all check here before any route runs."""
    mixed = isinstance(initial, MixedLocalizedState)
    valid = MIXED_COMPARE_METHODS if mixed else PURE_METHODS
    bad = [m for m in methods if m not in valid]
    if bad:
        raise ValueError(
            f"method: {bad} not valid for a {'mixed' if mixed else 'pure'} walk "
            f"(choose from {list(valid)})"
        )
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ValueError(f"method: {repeated} named more than once")
    closed = [m for m in methods if m in closedform_mixed.MIXED_METHODS]
    if closed and params != CoinParams.hadamard():
        raise ValueError(
            f"method: the mixed closed forms {closed} hold for the Hadamard coin "
            'only; write theta = "1/4 pi" and phi1 = phi2 = 0, or use method direct'
        )
    if mode != "exact":
        return
    if mixed:
        raise ValueError("mode: exact mode applies to pure closed-form walks")
    if not params.exact_capable:
        raise ValueError(
            "mode: exact mode needs all coin angles on the eighth-turn grid "
            "(write them as 'p/q pi' strings)"
        )
    if not initial.exact:
        raise ValueError(
            "mode: exact mode needs exact initial amplitudes "
            "(write them as 'p/q' or 'p/q sqrt2' strings)"
        )


def check_comparable(params: CoinParams, initial) -> None:
    """Raise ValueError when no two methods hold for the coin and the
    initial state, so a comparison has nothing to compare: a mixed walk on
    any coin but Hadamard, where direct is the only route. The comparisons
    and ``qwalk compare`` check here before the methods are looked at."""
    if isinstance(initial, MixedLocalizedState) and params != CoinParams.hadamard():
        raise ValueError(
            "compare: only direct holds for a mixed walk on this coin, as the mixed "
            "closed forms hold for the Hadamard coin only, so there is nothing to "
            "compare yet"
        )


def evaluate(
    method: str,
    initial,
    params: CoinParams,
    t: int,
    mode: str = "adaptive",
) -> Distribution:
    """The distribution at time t by one named route: a method of
    PURE_METHODS for a PureState, of MIXED_COMPARE_METHODS for a
    MixedLocalizedState. ``mode`` (one of MODES) is the pure closed form's
    arithmetic. A plan that ``check_plan`` refuses raises ValueError
    before a route runs."""
    check_plan(params, initial, (method,), mode)
    return _route(method, initial, params, t, mode)


def _route(method: str, initial, params: CoinParams, t: int, mode: str) -> Distribution:
    """Run one method that check_plan has admitted."""
    if isinstance(initial, MixedLocalizedState):
        if method == "direct":
            return direct.evolve_mixed(initial, params, t)
        return closedform_mixed.distribution_mixed(t, initial.pauli, mode=method)
    if method == "direct":
        return direct.distribution_of(direct.evolve_pure(initial, params, t), t)
    if method == "spectral":
        return spectral.simulate(initial, params, t)
    return closedform_pure.distribution(t, initial, params, mode=mode)


def compare_pure(
    init: PureState,
    params: CoinParams,
    t: int,
    methods: tuple[str, ...] = PURE_METHODS,
    mode: str = "adaptive",
    tolerances: Tolerances | None = None,
    check_symmetry: bool = False,
) -> ComparisonReport:
    """Run a pure-state walk through each requested method and compare.

    ``mode`` selects the closed-form arithmetic ("exact", "adaptive",
    "double"); the direct method uses exact ring arithmetic automatically
    when the initial state and coin support it, and the momentum method is
    always double precision.
    """
    return _compare(init, params, t, methods, mode, tolerances, check_symmetry)


def compare_mixed(
    r,
    t: int,
    methods: tuple[str, ...] = ("direct", "consistent", "literal"),
    params: CoinParams | None = None,
    tolerances: Tolerances | None = None,
) -> ComparisonReport:
    """Compare mixed-coin evaluations. ``r`` is the Pauli vector
    (r0, r1, r2, r3) or a MixedLocalizedState. ``params`` defaults to the
    Hadamard coin; the closed forms hold for it only, so any other coin
    has no second method to compare with, and raises ValueError."""
    params = params or CoinParams.hadamard()
    return _compare(valid_mixed_state(r), params, t, methods, "adaptive", tolerances, False)


def _compare(
    initial,
    params: CoinParams,
    t: int,
    methods: tuple[str, ...],
    mode: str,
    tolerances: Tolerances | None,
    check_symmetry: bool,
) -> ComparisonReport:
    """The loop behind compare_pure and compare_mixed: check the plan once,
    route and time each method, then run the gates. ``t`` is an integer
    (numpy integers included), anything else raises TypeError; a walk that
    ``check_comparable`` refuses, or fewer than two methods, which would
    compare nothing, raise ValueError."""
    t = step_count(t)
    methods = tuple(methods)
    check_comparable(params, initial)
    if len(methods) < 2:
        raise ValueError("compare needs at least two methods")
    check_plan(params, initial, methods, mode)
    report = ComparisonReport(
        kind="mixed" if isinstance(initial, MixedLocalizedState) else "pure",
        t=t,
        methods=methods,
        tolerances=tolerances or Tolerances(),
    )
    dists: dict[str, Distribution] = {}
    for name in methods:
        start = time.perf_counter()
        dist = _route(name, initial, params, t, mode)
        report.timings[name] = time.perf_counter() - start
        dists[name] = dist
        report.distributions[name] = dict(dist.items())
    parities = reachable_parities(initial, t)
    _check_distributions(report, dists, parities, check_symmetry)
    return report


@dataclass
class InvariantSuiteReport:
    """Aggregate of a randomized invariant sweep."""

    seed: int
    pure_cases: int
    mixed_cases: int
    max_norm_defect: float
    max_forbidden_mass: float
    max_closed_vs_direct: float
    max_spectral_vs_direct: float
    max_mixed_vs_direct: float
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        return canonical_json({**asdict(self), "passed": self.passed})


def _random_pure_case(rng: random.Random, max_t: int, max_radius: int):
    theta = rng.uniform(0.05, math.pi - 0.05)
    phi1 = rng.uniform(0.0, 2.0 * math.pi)
    phi2 = rng.uniform(0.0, 2.0 * math.pi)
    params = CoinParams.make(theta, phi1, phi2)
    sites = {}
    for x in range(-max_radius, max_radius + 1):
        if rng.random() < 0.6:
            sites[x] = (
                complex(rng.gauss(0, 1), rng.gauss(0, 1)),
                complex(rng.gauss(0, 1), rng.gauss(0, 1)),
            )
    if not sites:
        sites[0] = (1.0 + 0j, 0j)
    norm = math.sqrt(
        sum(abs(a) ** 2 + abs(b) ** 2 for a, b in sites.values())
    )
    sites = {x: (a / norm, b / norm) for x, (a, b) in sites.items()}
    return PureState(sites), params, rng.randint(0, max_t)


def _random_bloch(rng: random.Random) -> tuple[float, float, float, float]:
    u, v, w = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
    norm = math.sqrt(u * u + v * v + w * w) or 1.0
    radius = rng.uniform(0.0, 0.5)
    return (0.5, u / norm * radius, v / norm * radius, w / norm * radius)


def run_invariant_suite(
    seed: int = 0,
    pure_cases: int = 20,
    mixed_cases: int = 10,
    max_t: int = 12,
    max_radius: int = 2,
    tolerances: Tolerances | None = None,
) -> InvariantSuiteReport:
    """Randomized sweep of the core invariants.

    Every case draws a fresh coin, initial state, and step count from the
    seeded generator, so a failure is reproducible from (seed, case index).
    """
    tol = tolerances or Tolerances()
    rng = random.Random(seed)
    report = InvariantSuiteReport(
        seed=seed,
        pure_cases=pure_cases,
        mixed_cases=mixed_cases,
        max_norm_defect=0.0,
        max_forbidden_mass=0.0,
        max_closed_vs_direct=0.0,
        max_spectral_vs_direct=0.0,
        max_mixed_vs_direct=0.0,
        failures=[],
    )
    for case in range(pure_cases):
        init, params, t = _random_pure_case(rng, max_t, max_radius)
        cmp = compare_pure(init, params, t, tolerances=tol)
        report.max_norm_defect = max(
            report.max_norm_defect, *cmp.normalization_error.values()
        )
        report.max_forbidden_mass = max(
            report.max_forbidden_mass, *cmp.forbidden_mass.values()
        )
        report.max_closed_vs_direct = max(
            report.max_closed_vs_direct,
            cmp.pairwise_pointwise[_pair_key("direct", "closed-form")],
        )
        report.max_spectral_vs_direct = max(
            report.max_spectral_vs_direct,
            cmp.pairwise_pointwise[_pair_key("direct", "spectral")],
        )
        if not cmp.passed:
            report.failures.extend(
                f"pure case {case}: {msg}" for msg in cmp.failures
            )
    for case in range(mixed_cases):
        r = _random_bloch(rng)
        t = rng.randint(0, max_t)
        cmp = compare_mixed(r, t, methods=("direct", "consistent"), tolerances=tol)
        report.max_norm_defect = max(
            report.max_norm_defect, *cmp.normalization_error.values()
        )
        report.max_mixed_vs_direct = max(
            report.max_mixed_vs_direct,
            cmp.pairwise_pointwise[_pair_key("direct", "consistent")],
        )
        if not cmp.passed:
            report.failures.extend(
                f"mixed case {case}: {msg}" for msg in cmp.failures
            )
    return report
