"""The benchmark's four workloads.

Each workload turns a seed into a fixed list of requests. A request has an
untimed ``prepare``, a timed ``call`` and an untimed ``check`` that compares
what the call produced with the independent reference in ``reference.py``
and returns a list of problems (empty when the request is correct).

The seed chooses coins, amplitudes, offsets, Bloch vectors and query sites.
It never changes how much work a request list asks for: each slot of a list
has a fixed step count and support pattern, so wall times from different
seeds measure the same work.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference
from qwalk import cli, closedform_mixed, closedform_pure, direct, spectral, verify
from qwalk.core import CoinParams, MixedLocalizedState, PureState

WORKLOADS = ("pure-grid", "pure-long", "cli-exact", "mixed-sweep")

# Float routes against the float reference.
FLOAT_TOL = 1e-10
# Exact routes, and the CLI's serialized output, against the float reference.
EXACT_TOL = 1e-12
NORM_TOL = 1e-12
# Squared roundoff of the float momentum path on parity-forbidden sites
# (the package's own Tolerances.forbidden_mass); a real parity leak is O(1).
FORBIDDEN_DUST = 1e-24

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


@dataclass
class Request:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    prepare: Callable[[], None] = lambda: None


def make(name: str, seed: int, smoke: bool, out_dir: Path) -> list[Request]:
    """The request list of one workload. References are computed on first
    use, in a check, outside every timed call."""
    builders = {
        "pure-grid": _pure_grid,
        "pure-long": _pure_long,
        "cli-exact": _cli_exact,
        "mixed-sweep": _mixed_sweep,
    }
    return builders[name](random.Random(f"{name}:{seed}"), smoke, out_dir)


def clear_mixed_tables() -> None:
    """Empty every process-lifetime cache of the mixed closed form, so the
    next request pays the table build a fresh process would pay."""
    for obj in vars(closedform_mixed).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


# -- shared checks -----------------------------------------------------------


def _forbidden(t: int, support) -> Callable[[int], bool]:
    parities = {(x + t) % 2 for x in support}
    if len(parities) != 1:
        return lambda x: False
    (allowed,) = parities
    return lambda x: x % 2 != allowed


def _check_probs(label, probs, ref, tol, forbidden, against_ref=True) -> list[str]:
    problems = []
    total = sum(probs.values())
    if abs(total - 1.0) > NORM_TOL:
        problems.append(f"{label}: total probability off by {abs(total - 1.0):.3e}")
    leak = max((p for x, p in probs.items() if forbidden(x)), default=0.0)
    if leak > FORBIDDEN_DUST:
        problems.append(f"{label}: {leak:.3e} on a parity-forbidden site")
    if against_ref:
        dev = max(abs(probs.get(x, 0.0) - ref.get(x, 0.0)) for x in set(probs) | set(ref))
        if dev > tol:
            problems.append(f"{label}: {dev:.3e} from the reference (tolerance {tol:.0e})")
    return problems


# Support patterns by size. The parity mix of a support sets how many sites
# direct stepping occupies, so it is fixed per size: one site, two adjacent
# sites (both parities), three sites two apart (one parity).
_PATTERNS = {1: (0,), 2: (0, 1), 3: (0, 2, 4)}


def _random_sites(rng: random.Random, n: int) -> dict[int, tuple[complex, complex]]:
    x0 = rng.randint(-2, 0)
    xs = [x0 + dx for dx in _PATTERNS[n]]
    amps = {
        x: tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)) for x in xs
    }
    norm = math.sqrt(sum(abs(a) ** 2 + abs(b) ** 2 for a, b in amps.values()))
    return {x: (a / norm, b / norm) for x, (a, b) in amps.items()}


def _random_coin(rng: random.Random, lo=0.05, hi=math.pi - 0.05):
    return rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)


# -- pure-grid: compare_pure over all three routes ----------------------------


def _pure_grid(rng, smoke, out_dir) -> list[Request]:
    # The four middle slots cost about the same (0.3-0.4 s), so the median
    # request time rests on all of them rather than on one.
    slots = [(4, 1), (6, 2), (8, 3)] if smoke else [
        (60, 1), (72, 3), (76, 2), (84, 2), (108, 1), (140, 1)
    ]
    requests = []
    for t, n_sites in slots:
        angles = _random_coin(rng)
        sites = _random_sites(rng, n_sites)
        init, params = PureState(sites), CoinParams.make(*angles)
        ref = functools.cache(lambda s=sites, a=angles, t=t: reference.pure_distribution(
            s, reference.coin(*a), t))

        def check(report, t=t, sites=sites, ref=ref):
            problems = [] if report.passed else [f"compare_pure: {m}" for m in report.failures]
            if set(report.distributions) != set(verify.PURE_METHODS):
                problems.append(f"routes run: {sorted(report.distributions)}")
            for method, probs in report.distributions.items():
                problems += _check_probs(method, probs, ref(), FLOAT_TOL, _forbidden(t, sites))
            return problems

        requests.append(Request(
            f"compare_pure.t{t}.n{n_sites}",
            lambda i=init, p=params, t=t: verify.compare_pure(i, p, t),
            check,
        ))
    return requests


# -- pure-long: long float walks and closed-form point queries ----------------


def _query_sites(sites, t: int, theta: float) -> list[int]:
    """Centre, both peaks and their neighbours, and both tails, on the
    sublattice reachable from the leftmost site."""
    lo, hi = min(sites), max(sites)
    centre = (lo + hi) // 2
    peak = round(t * abs(math.cos(theta)))
    raw = [centre, centre - peak, centre - peak - 4, centre + peak, centre + peak + 4,
           lo - t, lo - t + 2, hi + t, hi + t - 2, centre + t // 2]
    parity = (lo + t) % 2
    return sorted({max(lo - t, x - (x - parity) % 2) for x in raw})


def _pure_long(rng, smoke, out_dir) -> list[Request]:
    slots = [(10, 1), (12, 2), (14, 3)] if smoke else [(300, 1), (450, 2), (600, 3)]
    requests = []
    for t, n_sites in slots:
        # |cos theta| in [0.5, 0.87] keeps the peaks, and so the cost of the
        # point queries, at the same place for every seed.
        angles = _random_coin(rng, math.pi / 6, math.pi / 3)
        sites = _random_sites(rng, n_sites)
        init, params = PureState(sites), CoinParams.make(*angles)
        queries = _query_sites(sites, t, angles[0])
        ref = functools.cache(lambda s=sites, a=angles, t=t: reference.evolve(
            s, reference.coin(*a), t))

        def call(init=init, params=params, t=t, queries=queries):
            walked = direct.distribution_of(direct.evolve_pure(init, params, t), t)
            momentum = spectral.simulate(init, params, t)
            points = {x: closedform_pure.amplitude(x, t, init, params) for x in queries}
            return walked, momentum, points

        def check(out, t=t, sites=sites, ref=ref):
            walked, momentum, points = out
            walk = ref()
            probs = walk.probabilities()
            problems = []
            for label, dist in (("direct", walked), ("spectral", momentum)):
                problems += _check_probs(label, dict(dist.items()), probs, FLOAT_TOL,
                                         _forbidden(t, sites))
            for x, pair in points.items():
                dev = max(abs(complex(got) - want) for got, want in zip(pair, walk.amplitude(x)))
                if dev > FLOAT_TOL:
                    problems.append(f"amplitude at x={x}: {dev:.3e} from the reference")
            return problems

        requests.append(Request(f"walk.t{t}.n{n_sites}", call, check))
    return requests


# -- cli-exact: in-process CLI calls on exact and mixed configs ---------------

_RATIONAL = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*(\d+))?\s*(sqrt2|pi)?\s*$")


def _number(value) -> float:
    """A config number: a float, or a string "p/q", "p/q sqrt2" or "p/q pi"."""
    if not isinstance(value, str):
        return float(value)
    num, den, unit = _RATIONAL.match(value).groups()
    scale = {None: 1.0, "sqrt2": math.sqrt(2.0), "pi": math.pi}[unit]
    return int(num) / int(den or 1) * scale


def _config_reference(doc: dict, steps: int) -> tuple[dict[int, float], Callable[[int], bool]]:
    coin = doc["coin"]
    c = reference.coin(*(_number(coin.get(k, 0)) for k in ("theta", "phi1", "phi2")))
    initial = doc["initial"]
    if "mixed" in initial:
        pauli = [float(v) for v in initial["mixed"]["pauli"]]
        return reference.mixed_distribution(pauli, c, steps), _forbidden(steps, [0])

    def amp(v):
        re_im = v if isinstance(v, list) else [v, 0]
        return complex(_number(re_im[0]), _number(re_im[1]))

    sites = {e["x"]: (amp(e["alpha"]), amp(e["beta"])) for e in initial["pure"]}
    return reference.pure_distribution(sites, c, steps), _forbidden(steps, list(sites))


def _invoke(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _check_run(base: str, ref, forbidden) -> list[str]:
    """The CSV and JSON a `run` wrote, against the reference."""
    problems = []
    lines = Path(f"{base}.csv").read_text().splitlines()
    if lines[0] != "position,probability":
        problems.append(f"csv header {lines[0]!r}")
    csv = {int(x): float(p) for x, p in (line.split(",") for line in lines[1:])}
    doc = json.loads(Path(f"{base}.json").read_text())
    js = {int(x): p for x, p in doc["probabilities"].items()}
    expected = {x for x in ref if not forbidden(x)}
    for label, probs in (("csv", csv), ("json", js)):
        if set(probs) != expected:
            problems.append(f"{label}: positions differ from the reachable sites")
        problems += _check_probs(label, probs, ref, EXACT_TOL, forbidden)
    return problems


def _compare_judge(exact_pair=False, divergent=()):
    """Check of the report a `compare` wrote: every distribution against the
    reference (the ``divergent`` readings only for normalization and
    parity) and, with ``exact_pair``, direct and closed-form exactly equal."""

    def judge(base: str, ref, forbidden) -> list[str]:
        report = json.loads(Path(f"{base}.json").read_text())
        problems = []
        if exact_pair and report["pairwise_pointwise"]["direct|closed-form"] != 0.0:
            problems.append("direct and closed-form exact differ")
        for method, probs in report["distributions"].items():
            probs = {int(x): p for x, p in probs.items()}
            problems += _check_probs(method, probs, ref, EXACT_TOL, forbidden,
                                     against_ref=method not in divergent)
        return problems

    return judge


def _cli_exact(rng, smoke, out_dir) -> list[Request]:
    work = out_dir / "cli"
    work.mkdir(parents=True, exist_ok=True)
    shipped = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}
    small = ["--steps", "6"] if smoke else []
    requests = []

    def add(label, argv, doc, steps, judge):
        base = str(work / label)
        reference_of = functools.cache(lambda: _config_reference(doc, steps))

        def prepare():
            clear_mixed_tables()
            for ext in (".csv", ".json"):
                Path(base + ext).unlink(missing_ok=True)

        def check(result):
            code, err = result
            if code != 0:
                return [f"exit code {code}, expected 0: {err.strip()[:300]}"]
            return judge(base, *reference_of())

        requests.append(Request(label, lambda: _invoke(argv + ["--out", base]), check, prepare))

    hadamard = shipped["hadamard_symmetric_t40"]
    steps = 6 if smoke else hadamard["steps"]
    pure_methods = ["--method", "direct,spectral,closed-form", "--mode", "exact"]
    path = str(CONFIGS / "hadamard_symmetric_t40.json")
    add("run-hadamard", ["run", "--config", path] + small, hadamard, steps, _check_run)
    add("compare-hadamard", ["compare", "--config", path] + small + pure_methods,
        hadamard, steps, _compare_judge(exact_pair=True))

    unbiased = shipped["mixed_unbiased_t25"]
    steps = 6 if smoke else unbiased["steps"]
    path = str(CONFIGS / "mixed_unbiased_t25.json")
    add("compare-unbiased", ["compare", "--config", path] + small, unbiased, steps,
        _compare_judge())
    add("run-unbiased", ["run", "--config", path, "--method", "consistent"] + small,
        unbiased, steps, _check_run)
    adjudication = shipped["mixed_coherent_adjudication"]
    path = str(CONFIGS / "mixed_coherent_adjudication.json")
    add("compare-adjudication", ["compare", "--config", path, "--expect-discrepancy"],
        adjudication, adjudication["steps"], _compare_judge(divergent=("literal",)))

    # Eighth-turn variants of the symmetric Hadamard config. Odd multiples of
    # pi/4 keep cos, sin and both phases nonzero, which excludes the
    # degenerate theta = 0 and pi/2. The t = 40 variant costs about what
    # compare-hadamard costs, and the median request is one of the two.
    for steps in (4, 5) if smoke else (40, 48):
        theta, phi1, phi2 = (f"{rng.choice((1, 3, 5, 7))}/4 pi" for _ in range(3))
        doc = dict(hadamard, coin={"theta": theta, "phi1": phi1, "phi2": phi2}, steps=steps)
        path = work / f"variant-t{steps}.json"
        path.write_text(json.dumps(doc))
        add(f"compare-variant-t{steps}", ["compare", "--config", str(path)] + pure_methods,
            doc, steps, _compare_judge(exact_pair=True))
    return requests


# -- mixed-sweep: the mixed closed form against direct, over Bloch vectors ----


def _random_bloch(rng: random.Random) -> tuple[float, float, float, float]:
    u = [rng.gauss(0, 1) for _ in range(3)]
    norm = math.sqrt(sum(v * v for v in u))
    radius = rng.uniform(0.0, 0.5)
    return (0.5, *(v / norm * radius for v in u))


def _mixed_sweep(rng, smoke, out_dir) -> list[Request]:
    ts, batch = ((3, 5), 3) if smoke else ((15, 25, 35), 10)
    hadamard = CoinParams.hadamard()
    requests = []
    for t in ts:
        vectors = [(0.5, 0.0, 0.0, 0.0)] + [_random_bloch(rng) for _ in range(batch - 1)]
        for k, r in enumerate(vectors):
            state = MixedLocalizedState.from_pauli(*r)
            ref = functools.cache(lambda r=r, t=t: reference.mixed_distribution(
                r, reference.coin(math.pi / 4, 0, 0), t))

            def call(t=t, r=r, state=state):
                out = {m: closedform_mixed.distribution_mixed(t, r, m)
                       for m in closedform_mixed.MIXED_METHODS}
                out["direct"] = direct.evolve_mixed(state, hadamard, t)
                return out

            def check(out, t=t, unbiased=(k == 0), ref=ref):
                problems = []
                for method, dist in out.items():
                    divergent = method in ("literal", "pipeline-literal") and not unbiased
                    problems += _check_probs(method, dict(dist.items()), ref(), EXACT_TOL,
                                             _forbidden(t, [0]), against_ref=not divergent)
                return problems

            requests.append(Request(f"mixed.t{t}.r{k}", call, check))
    # The tables live as long as the process; clearing them at the start of
    # every round makes each round pay one build per t, as a fresh process does.
    requests[0].prepare = clear_mixed_tables
    return requests
