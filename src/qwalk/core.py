"""Core types: coin parameters, walker states, distributions.

The walk acts on the integer line with a two-dimensional coin. A step is
U = S C where the coin C mixes the two coin components at every site and the
shift S moves coin component 0 from x to x+1 and component 1 from x to x-1.

The three-parameter coin family is

    C(theta, phi1, phi2) = [[ cos(theta),            e^{i phi1} sin(theta)],
                            [ e^{i phi2} sin(theta), -e^{i(phi1+phi2)} cos(theta)]]

which is unitary for every (theta, phi1, phi2). The Hadamard coin is
(theta, phi1, phi2) = (pi/4, 0, 0).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Union

import numpy as np

from .arithmetic import Angle, SqrtTwo, SqrtTwoComplex

__all__ = [
    "CoinParams",
    "coin_matrix",
    "coin_matrix_exact",
    "PureState",
    "MixedLocalizedState",
    "Distribution",
    "StateDiagnostics",
    "pauli_decompose",
    "pauli_compose",
    "validate_state",
    "step_count",
    "valid_mixed_state",
    "total_variation",
    "max_pointwise_difference",
]

Amplitude = Union[complex, SqrtTwoComplex]

NORM_ATOL = 1e-12
HERMITICITY_ATOL = 1e-12
PSD_ATOL = 1e-12


@dataclass(frozen=True)
class CoinParams:
    """Coin angles. Each field is an Angle (exact rational multiple of pi
    plus an optional float remainder); the constructor also takes numbers
    (radians) and strings like "1/4 pi", and parses them to Angles."""

    theta: Angle
    phi1: Angle = Angle(0)
    phi2: Angle = Angle(0)

    def __post_init__(self) -> None:
        for name in ("theta", "phi1", "phi2"):
            object.__setattr__(self, name, Angle.parse(getattr(self, name)))

    @classmethod
    def make(cls, theta, phi1=0, phi2=0) -> "CoinParams":
        """Build from Angles, numbers (radians) or strings like "1/4 pi"."""
        return cls(theta, phi1, phi2)

    @classmethod
    def hadamard(cls) -> "CoinParams":
        return cls(Angle(1, 4), Angle(0), Angle(0))

    @property
    def phi_sum(self) -> Angle:
        return self.phi1 + self.phi2

    @property
    def chi(self) -> complex:
        """e^{i(phi1+phi2)}, the phase that carries the coin determinant."""
        s = self.phi_sum
        return complex(math.cos(s.radians), math.sin(s.radians))

    @property
    def exact_capable(self) -> bool:
        """True when every coin entry lies in Q[sqrt(2)][i].

        Holds when all three angles are rational multiples of pi with
        denominator dividing 4 (eighth-turn grid).
        """
        return all(
            angle.cos_exact() is not None
            for angle in (self.theta, self.phi1, self.phi2)
        )

    def chi_exact(self) -> SqrtTwoComplex | None:
        return self.phi_sum.exp_i_exact()


def coin_matrix(params: CoinParams) -> np.ndarray:
    """The 2x2 coin as a complex numpy array."""
    th = params.theta.radians
    c, s = math.cos(th), math.sin(th)
    e1 = complex(math.cos(params.phi1.radians), math.sin(params.phi1.radians))
    e2 = complex(math.cos(params.phi2.radians), math.sin(params.phi2.radians))
    return np.array(
        [[c, e1 * s], [e2 * s, -e1 * e2 * c]], dtype=complex
    )


def coin_matrix_exact(params: CoinParams) -> tuple[tuple[SqrtTwoComplex, ...], ...]:
    """The coin with entries in Q[sqrt(2)][i].

    Raises ValueError when the parameters are off the eighth-turn grid.
    """
    if not params.exact_capable:
        raise ValueError("coin parameters are not exactly representable")
    c = SqrtTwoComplex(params.theta.cos_exact())
    s = SqrtTwoComplex(params.theta.sin_exact())
    e1 = params.phi1.exp_i_exact()
    e2 = params.phi2.exp_i_exact()
    return (
        (c, e1 * s),
        (e2 * s, -(e1 * e2 * c)),
    )


def _is_exact_amplitude(value) -> bool:
    return isinstance(value, SqrtTwoComplex)


def _to_exact_amplitude(value) -> SqrtTwoComplex:
    if isinstance(value, SqrtTwoComplex):
        return value
    if isinstance(value, SqrtTwo):
        return SqrtTwoComplex(value)
    if isinstance(value, (int, Fraction)):
        return SqrtTwoComplex.from_rational(value)
    raise TypeError(f"not an exact amplitude: {value!r}")


@dataclass(frozen=True)
class PureState:
    """Coin-resolved amplitudes on finitely many sites.

    ``amplitudes`` maps position x to (alpha_x, beta_x); alpha rides coin
    component 0, beta rides component 1. Each x is an integer (numpy
    integers included); anything else raises TypeError. All amplitudes
    must share one scalar kind: either complex numbers or ring elements
    (exact mode). Treated as immutable after construction.
    """

    amplitudes: Mapping[int, tuple[Amplitude, Amplitude]]
    exact: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        amps: dict[int, tuple[Amplitude, Amplitude]] = {}
        kinds = set()
        for x, pair in self.amplitudes.items():
            if len(pair) != 2:
                raise ValueError("each site needs exactly two amplitudes")
            a, b = pair
            if _is_exact_amplitude(a) != _is_exact_amplitude(b):
                a, b = _to_exact_amplitude(a), _to_exact_amplitude(b)
            if _is_exact_amplitude(a):
                kinds.add("exact")
            else:
                a, b = complex(a), complex(b)
                kinds.add("float")
            amps[operator.index(x)] = (a, b)
        if not amps:
            raise ValueError("state needs at least one site")
        if len(kinds) > 1:
            raise ValueError("mixed exact and float amplitudes in one state")
        object.__setattr__(self, "amplitudes", dict(sorted(amps.items())))
        object.__setattr__(self, "exact", kinds == {"exact"})

    @classmethod
    def localized(cls, x: int, alpha: Amplitude, beta: Amplitude) -> "PureState":
        return cls({x: (alpha, beta)})

    @classmethod
    def plus_i(cls, x: int = 0) -> "PureState":
        """|x> tensor (|0> + i|1>)/sqrt(2), exactly."""
        half_rt2 = SqrtTwo(Fraction(0), Fraction(1, 2))
        return cls.localized(
            x,
            SqrtTwoComplex(half_rt2),
            SqrtTwoComplex(SqrtTwo(), half_rt2),
        )

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self.amplitudes)

    @property
    def span(self) -> tuple[int, int]:
        xs = self.support
        return min(xs), max(xs)

    def norm_sq(self) -> float:
        if self.exact:
            return float(self.norm_sq_exact())
        return sum(
            abs(a) ** 2 + abs(b) ** 2 for a, b in self.amplitudes.values()
        )

    def norm_sq_exact(self) -> SqrtTwo:
        if not self.exact:
            raise ValueError("state is not exact")
        total = SqrtTwo()
        for a, b in self.amplitudes.values():
            total = total + a.abs_sq() + b.abs_sq()
        return total

    def to_float(self) -> "PureState":
        if not self.exact:
            return self
        return PureState(
            {
                x: (a.to_complex(), b.to_complex())
                for x, (a, b) in self.amplitudes.items()
            }
        )

    def amplitude(self, x: int) -> tuple[Amplitude, Amplitude]:
        zero: Amplitude
        zero = SqrtTwoComplex.zero() if self.exact else 0j
        return self.amplitudes.get(x, (zero, zero))


def pauli_decompose(rho, atol: float = HERMITICITY_ATOL) -> tuple[float, float, float, float]:
    """Components (r0, r1, r2, r3) of a Hermitian 2x2 matrix in the basis
    (I, sigma_x, sigma_y, sigma_z): rho = r0 I + r1 X + r2 Y + r3 Z.

    Raises ValueError when rho is not Hermitian within atol.
    """
    m = np.asarray(rho, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    # Entries near the float limit overflow to inf or nan here without a
    # RuntimeWarning; the non-finite components that result are reported
    # by validate_state.
    with np.errstate(over="ignore", invalid="ignore"):
        if np.max(np.abs(m - m.conj().T)) > atol:
            raise ValueError("matrix is not Hermitian")
        r0 = (m[0, 0] + m[1, 1]).real / 2.0
        r1 = (m[0, 1] + m[1, 0]).real / 2.0
        # Hermitian m has m[0,1] = r1 - i r2.
        r2 = (m[1, 0].imag - m[0, 1].imag) / 2.0
        r3 = (m[0, 0] - m[1, 1]).real / 2.0
    return (float(r0), float(r1), float(r2), float(r3))


def pauli_compose(r: Iterable[float]) -> np.ndarray:
    r0, r1, r2, r3 = (float(v) for v in r)
    return np.array(
        [[r0 + r3, r1 - 1j * r2], [r1 + 1j * r2, r0 - r3]], dtype=complex
    )


@dataclass(frozen=True)
class MixedLocalizedState:
    """Walker at the origin with an arbitrary 2x2 coin density matrix."""

    pauli: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if len(self.pauli) != 4:
            raise ValueError("expected four Pauli components (r0, r1, r2, r3)")

    @classmethod
    def from_pauli(cls, r0: float, r1: float, r2: float, r3: float) -> "MixedLocalizedState":
        return cls((float(r0), float(r1), float(r2), float(r3)))

    @classmethod
    def from_rho(cls, rho) -> "MixedLocalizedState":
        return cls(pauli_decompose(rho))

    @property
    def rho(self) -> np.ndarray:
        return pauli_compose(self.pauli)

    @property
    def bloch_norm(self) -> float:
        _, r1, r2, r3 = self.pauli
        return math.sqrt(r1 * r1 + r2 * r2 + r3 * r3)


@dataclass(frozen=True)
class Distribution:
    """Position distribution at a fixed time.

    ``probs`` covers every integer in the closed span, so parity-forbidden
    sites are present with probability exactly 0.0 and parity checks are not
    vacuous. ``exact`` optionally carries ring values for the same keys.
    """

    probs: Mapping[int, float]
    t: int
    method: str = ""
    mode: str = "double"
    exact: Mapping[int, SqrtTwo] | None = None

    def __post_init__(self) -> None:
        items = {int(x): float(p) for x, p in self.probs.items()}
        object.__setattr__(self, "probs", dict(sorted(items.items())))
        if self.exact is not None:
            ex = dict(sorted((int(x), v) for x, v in self.exact.items()))
            if set(ex) != set(self.probs):
                raise ValueError("exact values must cover the same positions")
            object.__setattr__(self, "exact", ex)

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(self.probs)

    @property
    def span(self) -> tuple[int, int]:
        xs = self.positions
        return min(xs), max(xs)

    def total(self) -> float:
        return sum(self.probs.values())

    def __getitem__(self, x: int) -> float:
        return self.probs.get(x, 0.0)

    def exact_value(self, x: int) -> SqrtTwo:
        if self.exact is None:
            raise ValueError("distribution has no exact values")
        return self.exact.get(x, SqrtTwo())

    def items(self):
        return self.probs.items()


def _gaps(p: Distribution, q: Distribution) -> list[float]:
    """|p(x) - q(x)| over every site of either distribution, each read once.

    Rejects distributions taken at different times; that comparison is
    always a bug upstream.
    """
    if p.t != q.t:
        raise ValueError(f"cannot compare distributions at t={p.t} and t={q.t}")
    return [abs(p[x] - q[x]) for x in set(p.positions) | set(q.positions)]


def total_variation(p: Distribution, q: Distribution) -> float:
    """Total variation distance (1/2) sum_x |p(x) - q(x)|."""
    return 0.5 * sum(_gaps(p, q))


def max_pointwise_difference(p: Distribution, q: Distribution) -> float:
    # np.max, unlike max(), keeps a NaN wherever it sits
    return float(np.max(_gaps(p, q), initial=0.0))


@dataclass(frozen=True)
class StateDiagnostics:
    """Validation outcome. Collects violations, never raises."""

    violations: tuple[tuple[str, str, float], ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    @property
    def summary(self) -> str:
        """The violations as "code: message" parts joined by "; "."""
        return "; ".join(f"{code}: {msg}" for code, msg, _ in self.violations)


def validate_state(state) -> StateDiagnostics:
    """Diagnose a PureState or MixedLocalizedState.

    Checks normalization for pure states; finite Pauli components, trace,
    Hermiticity (by construction) and positivity for mixed states.
    """
    issues: list[tuple[str, str, float]] = []
    if isinstance(state, PureState):
        try:
            n = state.norm_sq()
        except OverflowError:
            # an exact amplitude whose square is past the float range
            n = math.inf
        # "not within" rather than "off by more", so that a NaN norm is flagged
        if not abs(n - 1.0) <= NORM_ATOL:
            issues.append(
                ("normalization", f"|psi|^2 = {n!r}, expected 1", abs(n - 1.0))
            )
    elif isinstance(state, MixedLocalizedState):
        for i, r in enumerate(state.pauli):
            if not math.isfinite(r):
                issues.append(("finite", f"r{i} = {r!r} is not finite", math.inf))
        r0 = state.pauli[0]
        if abs(r0 - 0.5) > NORM_ATOL:
            issues.append(("trace", f"r0 = {r0!r}, expected 1/2 (unit trace)", abs(r0 - 0.5)))
        excess = state.bloch_norm - abs(r0)
        if excess > PSD_ATOL:
            issues.append(
                ("psd", f"Bloch norm {state.bloch_norm!r} exceeds r0 = {r0!r}", excess)
            )
    else:
        raise TypeError(f"cannot validate {type(state).__name__}")
    return StateDiagnostics(tuple(issues))


def step_count(t) -> int:
    """t as an int: TypeError unless it is an integer (numpy integers
    included, bools not), ValueError if negative. Every route checks here."""
    if isinstance(t, bool):
        raise TypeError("t must be an integer, not a bool")
    t = operator.index(t)
    if t < 0:
        raise ValueError("t must be non-negative")
    return t


def valid_mixed_state(r) -> MixedLocalizedState:
    """r, a MixedLocalizedState or four Pauli numbers (r0, r1, r2, r3), as a
    MixedLocalizedState; ValueError unless it is a density matrix."""
    if not isinstance(r, MixedLocalizedState):
        r = MixedLocalizedState(tuple(float(v) for v in r))
    diag = validate_state(r)
    if not diag.valid:
        raise ValueError(f"invalid mixed state: {diag.summary}")
    return r
