"""Walk configuration files.

JSON documents describing a walk: coin angles, initial state, step count,
method(s), arithmetic mode. Angles and exact amplitudes are written as
strings ("1/4 pi", "1/2 sqrt2") so that exact-mode activation is a
deliberate choice; bare floats select floating-point arithmetic.

Unknown keys are rejected everywhere. A config that parses is guaranteed
to construct valid core objects.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .arithmetic import Angle, SqrtTwo, SqrtTwoComplex
from .closedform_pure import MODES
from .core import CoinParams, MixedLocalizedState, PureState, validate_state
from .verify import Tolerances, check_plan

__all__ = [
    "ConfigError",
    "MAX_STEPS",
    "WalkConfig",
    "parse_amplitude_component",
    "parse_steps",
    "parse_methods",
]

# The largest step count a config or the --steps flag may ask for. Every
# route costs at least t^2 site updates, so a larger count is a typo, not
# a walk, and is refused before any work starts. It also bounds the span
# hi - lo of a pure support, since every route sizes its arrays by
# hi - lo + 2t.
MAX_STEPS = 10**6


class ConfigError(ValueError):
    """Invalid configuration file or flag combination."""


def parse_steps(value, label: str) -> int:
    """A step count from a config or a flag: an int (not a bool), at least 0
    and at most MAX_STEPS. ``label`` leads each message, as "config.steps:"
    or "--steps"."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigError(f"{label} expected a non-negative integer")
    if value > MAX_STEPS:
        raise ConfigError(f"{label} {value} is above the limit of {MAX_STEPS}")
    return value


def parse_methods(value, label: str) -> tuple[str, ...]:
    """Method names from a comma-separated string or a list of strings, at
    least one of them. ``label`` leads each message, as "config.method" or
    "--method"."""
    if isinstance(value, str):
        methods = tuple(m.strip() for m in value.split(",") if m.strip())
    elif isinstance(value, list) and all(isinstance(m, str) for m in value):
        methods = tuple(value)
    else:
        raise ConfigError(f"{label}: expected a name or list of names")
    if not methods:
        raise ConfigError(f"{label}: no method named")
    return methods


def _require_keys(d: dict, allowed: set[str], required: set[str], where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {type(d).__name__}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _parse_angle(value, where: str) -> Angle:
    try:
        return Angle.parse(value)
    # OverflowError: an integer past the float range
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# "p/q" or "p/q sqrt2" (whitespace tolerant, q optional).
_EXACT_COMPONENT = re.compile(
    r"^\s*([+-]?\d+)\s*(?:/\s*([1-9]\d*))?\s*(sqrt2)?\s*$"
)


def parse_amplitude_component(value, where: str = "amplitude"):
    """One real component of an amplitude.

    Strings ("1/2", "-1/2 sqrt2") and ints parse to exact SqrtTwo values;
    finite floats parse to floats. The caller decides whether mixing is
    allowed.
    """
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number or string")
    if isinstance(value, str):
        m = _EXACT_COMPONENT.match(value)
        if not m:
            raise ConfigError(
                f"{where}: cannot parse {value!r} (expected 'p/q' or 'p/q sqrt2')"
            )
        num, den, root = m.groups()
        frac = Fraction(int(num), int(den) if den else 1)
        return SqrtTwo(0, frac) if root else SqrtTwo(frac, 0)
    if isinstance(value, int):
        return SqrtTwo(value, 0)
    if isinstance(value, float):
        # json.load yields NaN, Infinity and overflowing literals (1e400)
        if not math.isfinite(value):
            raise ConfigError(f"{where}: expected a finite number, got {value}")
        return value
    raise ConfigError(f"{where}: expected a number or string, got {type(value).__name__}")


def _parse_pair(value, where: str):
    """[re, im] -> (component, component); a bare number means re only."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        return parse_amplitude_component(value, where), parse_amplitude_component(0, where)
    if isinstance(value, list) and len(value) == 2:
        return (
            parse_amplitude_component(value[0], f"{where}[0]"),
            parse_amplitude_component(value[1], f"{where}[1]"),
        )
    raise ConfigError(f"{where}: expected a number, string, or [re, im] pair")


def _parse_pure(entries, where: str) -> PureState:
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{where}: expected a non-empty list of sites")
    components = []
    has_string = has_float = False
    sites: dict[int, tuple] = {}
    for i, entry in enumerate(entries):
        here = f"{where}[{i}]"
        _require_keys(entry, {"x", "alpha", "beta"}, {"x"}, here)
        x = entry["x"]
        if not isinstance(x, int) or isinstance(x, bool):
            raise ConfigError(f"{here}: x must be an integer")
        if x in sites:
            raise ConfigError(f"{here}: duplicate site x={x}")
        for raw in (entry.get("alpha", 0), entry.get("beta", 0)):
            flat = raw if isinstance(raw, list) else [raw]
            has_string = has_string or any(isinstance(v, str) for v in flat)
            has_float = has_float or any(isinstance(v, float) for v in flat)
        alpha = _parse_pair(entry.get("alpha", 0), f"{here}.alpha")
        beta = _parse_pair(entry.get("beta", 0), f"{here}.beta")
        components.extend([*alpha, *beta])
        sites[x] = (alpha, beta)
    span = max(sites) - min(sites)
    if span > MAX_STEPS:
        raise ConfigError(f"{where}: sites span {span}, above the limit of {MAX_STEPS}")
    # Strings request exact arithmetic; bare ints go along with either
    # side, so an all-integer state (a basis state) is exact too.
    exact = has_string or not has_float
    amplitudes = {}
    for x, (alpha, beta) in sites.items():
        if exact:
            if not all(isinstance(c, SqrtTwo) for c in (*alpha, *beta)):
                raise ConfigError(
                    f"{where}: cannot mix exact strings and floats; "
                    "write every component as a string or integer"
                )
            amplitudes[x] = (
                SqrtTwoComplex(alpha[0], alpha[1]),
                SqrtTwoComplex(beta[0], beta[1]),
            )
        else:
            amplitudes[x] = (
                complex(float(alpha[0]), float(alpha[1])),
                complex(float(beta[0]), float(beta[1])),
            )
    try:
        state = PureState(amplitudes)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return _validated(state, where, "normalized state")


def _parse_mixed(spec, where: str) -> MixedLocalizedState:
    _require_keys(spec, {"pauli", "rho"}, set(), where)
    if ("pauli" in spec) == ("rho" in spec):
        raise ConfigError(f"{where}: give exactly one of 'pauli' or 'rho'")
    if "pauli" in spec:
        pauli = spec["pauli"]
        if not isinstance(pauli, list) or len(pauli) != 4:
            raise ConfigError(f"{where}.pauli: expected [r0, r1, r2, r3]")
        try:
            state = MixedLocalizedState.from_pauli(*(float(v) for v in pauli))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}.pauli: {exc}") from exc
        return _validated(state, f"{where}.pauli", "coin density matrix")
    rows = spec["rho"]
    if not isinstance(rows, list) or len(rows) != 2:
        raise ConfigError(f"{where}.rho: expected a 2x2 matrix")
    m = np.zeros((2, 2), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 2:
            raise ConfigError(f"{where}.rho: expected a 2x2 matrix")
        for j, cell in enumerate(row):
            here = f"{where}.rho[{i}][{j}]"
            if isinstance(cell, (int, float)) and not isinstance(cell, bool):
                parts = (cell, 0)
            elif isinstance(cell, list) and len(cell) == 2:
                parts = cell
            else:
                raise ConfigError(f"{here}: expected a number or [re, im]")
            try:
                m[i, j] = complex(float(parts[0]), float(parts[1]))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{here}: {exc}") from exc
    try:
        state = MixedLocalizedState.from_rho(m)
    except ValueError as exc:
        raise ConfigError(f"{where}.rho: {exc}") from exc
    return _validated(state, f"{where}.rho", "coin density matrix")


def _validated(state, where: str, what: str):
    diag = validate_state(state)
    if not diag.valid:
        raise ConfigError(f"{where}: not a valid {what} ({diag.summary})")
    return state


def _parse_tolerances(spec, where: str) -> Tolerances:
    _require_keys(spec, {f.name for f in fields(Tolerances)}, set(), where)
    kwargs = {}
    for key, value in spec.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 0:
            raise ConfigError(f"{where}.{key}: expected a non-negative number")
        # json.load also yields NaN, Infinity and overflowing literals
        # (1e400 is inf); a NaN bound would switch its gate off
        try:
            bound = float(value)
        except OverflowError:
            bound = math.inf
        if not math.isfinite(bound):
            raise ConfigError(f"{where}.{key}: expected a finite number, got {bound}")
        kwargs[key] = bound
    return Tolerances(**kwargs)


@dataclass(frozen=True)
class WalkConfig:
    """A fully validated walk description."""

    params: CoinParams
    initial: PureState | MixedLocalizedState
    steps: int
    methods: tuple[str, ...]
    mode: str
    output: str | None
    tolerances: Tolerances

    def __post_init__(self) -> None:
        # from_dict and dataclasses.replace (the CLI's flag overrides) both
        # land here, so every config is checked against the same plan rules
        try:
            check_plan(self.params, self.initial, self.methods, self.mode)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def is_mixed(self) -> bool:
        return isinstance(self.initial, MixedLocalizedState)

    @classmethod
    def from_dict(cls, doc: dict) -> "WalkConfig":
        _require_keys(
            doc,
            {
                "coin",
                "initial",
                "steps",
                "method",
                "mode",
                "output",
                "tolerances",
            },
            {"coin", "initial", "steps"},
            "config",
        )
        coin = doc["coin"]
        _require_keys(coin, {"theta", "phi1", "phi2"}, {"theta"}, "config.coin")
        params = CoinParams(
            theta=_parse_angle(coin["theta"], "config.coin.theta"),
            phi1=_parse_angle(coin.get("phi1", 0.0), "config.coin.phi1"),
            phi2=_parse_angle(coin.get("phi2", 0.0), "config.coin.phi2"),
        )

        spec = doc["initial"]
        _require_keys(spec, {"pure", "mixed"}, set(), "config.initial")
        if ("pure" in spec) == ("mixed" in spec):
            raise ConfigError("config.initial: give exactly one of 'pure' or 'mixed'")
        if "pure" in spec:
            initial = _parse_pure(spec["pure"], "config.initial.pure")
        else:
            initial = _parse_mixed(spec["mixed"], "config.initial.mixed")

        steps = parse_steps(doc["steps"], "config.steps:")
        methods = parse_methods(doc.get("method", "direct"), "config.method")
        mode = doc.get("mode", "adaptive")
        if mode not in MODES:
            raise ConfigError(f"config.mode: expected one of {list(MODES)}")

        output = doc.get("output")
        if output is not None and not isinstance(output, str):
            raise ConfigError("config.output: expected a path string")

        tolerances = _parse_tolerances(doc.get("tolerances", {}), "config.tolerances")

        return cls(
            params=params,
            initial=initial,
            steps=steps,
            methods=methods,
            mode=mode,
            output=output,
            tolerances=tolerances,
        )

    @classmethod
    def from_file(cls, path: str) -> "WalkConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        except ValueError as exc:
            # an integer literal past Python's limit of 4300 digits
            raise ConfigError(f"config {path}: {exc}") from exc
        return cls.from_dict(doc)
