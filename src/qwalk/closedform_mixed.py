"""Closed-form distribution for a Hadamard walker whose coin starts in an
arbitrary mixed state r0 I + r1 X + r2 Y + r3 Z (r0 = 1/2 for unit trace).

The position distribution is a double momentum integral of the trace of the
t-th power of the pair superoperator L_{k,k'} against the coin density
matrix. The quartic Horner identity turns L^t into four terms f_{t-j} L_j,
whose first Pauli rows produce trace kernels built from
delta = k - k' and sigma = k + k':

    j=0:  2 r0
    j=1:  2 r0 cos(sigma)           - 2i r1 sin(delta)
    j=2: -2 r0 cos(delta) cos(sigma) - 2i r1 sin(delta) cos(sigma)
         - 2i r2 sin(delta) sin(sigma) - 2i r3 sin(delta) cos(sigma)
    j=3: -2 r0 cos(delta)           - 2i r3 sin(delta)

Each kernel is stated once, as its cos and sin factors of delta and sigma,
and its value and integral identity are derived from them. ``consistent``
is the table above, as the Horner-basis rows dictate. ``pipeline-literal``
swaps r1 and r2 in it, and ``literal``, the compact closed form, also drops
the two order-2 sin(delta) cos(sigma) terms; all three readings run through
one table builder, and the two literal ones are kept so the discrepancy
they produce can be measured. The direct density-matrix oracle
adjudicates: ``consistent`` matches it.

Each f_{t-j} is an integer polynomial in X = cos(delta) and Y = cos(sigma):
one run of the r = 4 recurrence of horner.f_sequence, over a
small bivariate polynomial type with c0 = c2 = X - Y, c1 = 2XY, c3 = -1,
keeps only f_{t-3} .. f_t. Against the Fourier factors of an integral
identity, a monomial X^A1 Y^A2 selects one binomial in A1 that depends on
the site y and one in A2 that does not. The A2 binomials are summed once
per A1, so each site costs one O(t) sum per (Horner order, identity entry)
and a whole table O(t^2) after the O(t^3) recurrence. Every vanishing
claim is recomputed here rather than assumed (the sin(delta) sin(sigma)
brackets do cancel pairwise, and the builder asserts that the net imaginary
part is exactly zero at every site). All weights are exact rationals; each
table is converted to floats once, for the per-position dot product with
(r0, r1, r2, r3).
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .core import Distribution, MixedLocalizedState, validate_state
from .horner import _f_terms

__all__ = [
    "half_binom",
    "KERNELS",
    "kernel_value",
    "integral_identity",
    "KernelTerm",
    "trace_kernels",
    "trace_series",
    "prob_pipeline",
    "prob_literal",
    "pipeline_weights",
    "literal_weights",
    "distribution_mixed",
    "MIXED_METHODS",
]

MIXED_METHODS = ("consistent", "literal", "pipeline-literal")


def half_binom(n: int, num: int) -> int:
    """C(n, num/2) when num is even and num/2 lies in [0, n], else 0.

    The closed forms index binomials by half-integers; out-of-range or
    non-integral lower arguments annihilate the term.
    """
    if num % 2 or num < 0 or num > 2 * n:
        return 0
    return math.comb(n, num // 2)


# Each trace kernel as its product of (trig, angle) factors, with angle
# "delta" = k - k' or "sigma" = k + k'.
_FACTORS = {
    "one": (),
    "cos_sum": ((math.cos, "sigma"),),
    "cos_diff": ((math.cos, "delta"),),
    "sin_diff": ((math.sin, "delta"),),
    "cos_diff_cos_sum": ((math.cos, "delta"), (math.cos, "sigma")),
    "sin_diff_sin_sum": ((math.sin, "delta"), (math.sin, "sigma")),
    "sin_diff_cos_sum": ((math.sin, "delta"), (math.cos, "sigma")),
}

KERNELS = tuple(_FACTORS)


def _identity(factors):
    """The integral identity of one kernel, from its factors.

    cos x = (e^{ix} + e^{-ix})/2 and sin x = (e^{ix} - e^{-ix})/(2i), so the
    kernel is (1/i)^(number of sines) times a sum of e^{i(m delta + n sigma)}
    over one sign per factor; each such exponential integrates against
    e^{ikA} e^{ik'B} to [A == -(m + n)][B == m - n].
    """
    sines = sum(trig is math.sin for trig, _ in factors)
    entries: dict[tuple[int, int], Fraction] = {}
    for signs in itertools.product((1, -1), repeat=len(factors)):
        # each pair of sines gives (1/i)^2 = -1
        frac = Fraction((-1) ** (sines // 2), 2 ** len(factors))
        m = n = 0
        for e, (trig, angle) in zip(signs, factors):
            if angle == "delta":
                m += e
            else:
                n += e
            if trig is math.sin:
                frac *= e
        key = (-(m + n), m - n)
        entries[key] = entries.get(key, 0) + frac
    return sines % 2 == 1, tuple((a, b, f) for (a, b), f in entries.items() if f)


_IDENTITIES = {kernel: _identity(factors) for kernel, factors in _FACTORS.items()}


def integral_identity(kernel: str):
    """(imag, ((a, b, frac), ...)) for one kernel, meaning

        int dk/2pi int dk'/2pi e^{ikA} e^{ik'B} kernel(k,k')
          = (1/i if imag else 1) * sum of frac * [A == a][B == b].
    """
    return _IDENTITIES[kernel]


def kernel_value(kernel: str, k: float, kp: float) -> float:
    angles = {"delta": k - kp, "sigma": k + kp}
    return math.prod((trig(angles[a]) for trig, a in _FACTORS[kernel]), start=1.0)


class KernelTerm(NamedTuple):
    """One additive piece of the trace kernel at Horner order j:
    coeff * (i if imag else 1) * kernel(k,k') * r[r_index] multiplying
    f_{t-j}."""

    j: int
    kernel: str
    r_index: int
    coeff: int
    imag: bool


_CONSISTENT: tuple[KernelTerm, ...] = (
    KernelTerm(0, "one", 0, 2, False),
    KernelTerm(1, "cos_sum", 0, 2, False),
    KernelTerm(1, "sin_diff", 1, -2, True),
    KernelTerm(2, "cos_diff_cos_sum", 0, -2, False),
    KernelTerm(2, "sin_diff_cos_sum", 1, -2, True),
    KernelTerm(2, "sin_diff_sin_sum", 2, -2, True),
    KernelTerm(2, "sin_diff_cos_sum", 3, -2, True),
    KernelTerm(3, "cos_diff", 0, -2, False),
    KernelTerm(3, "sin_diff", 3, -2, True),
)

# the consistent table with r1 and r2 swapped
_LITERAL = tuple(
    term._replace(r_index=(0, 2, 1, 3)[term.r_index]) for term in _CONSISTENT
)

# the compact closed form: the literal table without its order-2
# sin(delta) cos(sigma) terms
_COMPACT = tuple(
    term for term in _LITERAL if (term.j, term.kernel) != (2, "sin_diff_cos_sum")
)


def trace_kernels(mode: str) -> tuple[KernelTerm, ...]:
    """The kernel table for one assignment ("consistent" or "literal")."""
    if mode == "consistent":
        return _CONSISTENT
    if mode == "literal":
        return _LITERAL
    raise ValueError(f"unknown kernel mode {mode!r}")


def trace_series(mode: str, k: float, kp: float, r) -> list[complex]:
    """[w_0, ..., w_3] with Tr(L^t O) = sum_j f_{t-j} w_j for the quartic
    f at (k, k'). Used to test the tables against direct conjugation."""
    r = tuple(float(v) for v in r)
    out = [0j, 0j, 0j, 0j]
    for term in trace_kernels(mode):
        value = term.coeff * kernel_value(term.kernel, k, kp) * r[term.r_index]
        out[term.j] += value * 1j if term.imag else value
    return out


def _add_rows(r: list[int], s: list[int]) -> list[int]:
    if len(r) < len(s):
        r, s = s, r
    return list(map(operator.add, r, s)) + r[len(s):]


class _Poly2:
    """Integer polynomial in X = cos(delta) and Y = cos(sigma): rows[A1][A2]
    is the coefficient of X^A1 Y^A2.

    It carries just the arithmetic the scalar-generic Horner routines use:
    sums, and products. A product shifts and scales the longer factor's grid
    once per nonzero term of the shorter one, so multiplying by a fixed
    quartic coefficient is a shift-and-add. Rows are never mutated, so
    results may share them.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: list[list[int]]):
        self.rows = rows

    @staticmethod
    def lift(value) -> _Poly2:
        """An integer as a constant polynomial; polynomials pass through."""
        return value if isinstance(value, _Poly2) else _Poly2([[value]])

    @property
    def terms(self) -> dict[tuple[int, int], int]:
        """{(A1, A2): coefficient} over the nonzero coefficients."""
        return {
            (a1, a2): c
            for a1, row in enumerate(self.rows)
            for a2, c in enumerate(row)
            if c
        }

    def __add__(self, other) -> _Poly2:
        a, b = self.rows, _Poly2.lift(other).rows
        if len(a) < len(b):
            a, b = b, a
        return _Poly2(list(map(_add_rows, a, b)) + a[len(b):])

    __radd__ = __add__

    def __mul__(self, other) -> _Poly2:
        short, long = sorted((self.rows, _Poly2.lift(other).rows), key=len)
        total = _Poly2([])
        for i, short_row in enumerate(short):
            for j, c in enumerate(short_row):
                if c:
                    pad = [0] * j
                    total += _Poly2(
                        [[]] * i + [pad + [c * v for v in row] for row in long]
                    )
        return total

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return self.terms == _Poly2.lift(other).terms

    def __repr__(self) -> str:
        return f"_Poly2({self.terms!r})"


# Hadamard pair superoperator coefficients (horner.quartic_coeffs) in X, Y:
# c0 = c2 = X - Y, c1 = 2XY, c3 = -1.
_QUARTIC = (_Poly2([[0, -1], [1]]), _Poly2([[], [0, 2]]), _Poly2([[0, -1], [1]]), -1)


def _f_window(t: int) -> tuple[_Poly2, ...]:
    """(f_t, f_{t-1}, f_{t-2}, f_{t-3}) as polynomials in X, Y, by one run
    of the quartic recurrence; orders below f_0 are left out."""
    window = deque(_f_terms(_QUARTIC, t), maxlen=4)
    return tuple(_Poly2.lift(f) for f in reversed(window))


@lru_cache(maxsize=None)
def _a1_sums(t: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The sigma factor of every identity entry, summed once per A1.

    With f_{t-j} = sum w X^A1 Y^A2, entry [j][s][A1] is the sum over A2 of
    w 2^(t-A1-A2) half_binom(A2, A2 + s), for s = 0 and 1. The factor
    2^(t-A1-A2) puts every order over the common denominator 2^t.
    half_binom(A2, A2 + s) is even in s, so s = -1 reads row 1.
    """
    out = []
    for j, f in enumerate(_f_window(t)):
        rows = ([0] * (t - j + 1), [0] * (t - j + 1))
        for (a1, a2), w in f.terms.items():
            scaled = w << (t - a1 - a2)
            for s in (0, 1):
                c2 = half_binom(a2, a2 + s)
                if c2:
                    rows[s][a1] += scaled * c2
        out.append((tuple(rows[0]), tuple(rows[1])))
    return tuple(out)


def _site_sum(row: tuple[int, ...], y: int) -> int:
    """sum over A1 of half_binom(A1, A1 - y) row[A1]: the delta integral
    of cos^A1(delta) against site y, over the A1 that reach it."""
    return sum(
        math.comb(a1, (a1 - y) // 2) * row[a1]
        for a1 in range(abs(y), len(row), 2)
    )


def _weights(
    t: int, kernels: tuple[KernelTerm, ...]
) -> dict[int, tuple[Fraction, ...]]:
    """Exact weight vectors w(y) with P(y, t) = sum_i w_i(y) r_i, computed
    by pushing every kernel term through its integral identity.

    Terms whose  i  prefactor does not cancel against an identity's 1/i
    are accumulated separately; their total is asserted to vanish exactly
    (this is the recomputation of the claimed kernel cancellations).
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    sums = _a1_sums(t)
    # An identity entry (a, b) selects A1 - y + (a-b)/2 through the delta
    # integral and A2 + (a+b)/2 through the sigma one. Fold every
    # (kernel term, entry) pair into integer factors on the site sum of its
    # (j, |a+b|/2, (a-b)/2), split into the real part and the imaginary
    # residue.
    groups: dict[tuple[int, int, int], tuple[list[int], list[int]]] = {}
    for term in kernels:
        if term.j > t:
            continue
        kern_imag, entries = _IDENTITIES[term.kernel]
        for a, b, frac in entries:
            real, imag = groups.setdefault(
                (term.j, abs(a + b) // 2, (a - b) // 2), ([0] * 4, [0] * 4)
            )
            # frac has denominator 1, 2 or 4; the common denominator is
            # 2^{t+2}.
            piece = term.coeff * int(frac * 4)
            if term.imag == kern_imag:
                real[term.r_index] += piece
            elif term.imag:
                imag[term.r_index] += piece
            else:
                imag[term.r_index] -= piece
    folded = []
    for (j, s, d), factors in groups.items():
        real, imag = ([(i, c) for i, c in enumerate(f) if c] for f in factors)
        if real or imag:
            folded.append((sums[j][s], d, real, imag))
    shift = t + 2
    table: dict[int, tuple[Fraction, ...]] = {}
    for y in range(-t, t + 1):
        real_acc = [0, 0, 0, 0]
        imag_acc = [0, 0, 0, 0]
        for row, d, real, imag in folded:
            total = _site_sum(row, y - d)
            if not total:
                continue
            for i, c in real:
                real_acc[i] += c * total
            for i, c in imag:
                imag_acc[i] += c * total
        if any(imag_acc):
            raise AssertionError(
                f"nonvanishing imaginary trace residue at t={t}, y={y}: {imag_acc}"
            )
        table[y] = tuple(Fraction(n, 1 << shift) for n in real_acc)
    return table


@lru_cache(maxsize=None)
def pipeline_weights(t: int, mode: str) -> dict[int, tuple[Fraction, ...]]:
    """Exact weight vectors w(y) with P(y, t) = sum_i w_i(y) r_i, from the
    kernel table trace_kernels(mode)."""
    return _weights(t, trace_kernels(mode))


@lru_cache(maxsize=None)
def literal_weights(t: int) -> dict[int, tuple[Fraction, ...]]:
    """Exact weight vectors of the compact closed form (the "literal"
    distribution formula): the pipeline over the literal kernel table
    without its order-2 sin(delta) cos(sigma) terms."""
    return _weights(t, _COMPACT)


@lru_cache(maxsize=None)
def _float_weights(t: int, table, *args) -> dict[int, tuple[float, ...]]:
    """table(t, *args), one of the exact weight tables, in floats."""
    return {y: tuple(map(float, w)) for y, w in table(t, *args).items()}


# the exact table of each reading of MIXED_METHODS, as (table, *args)
_READINGS = {
    "consistent": (pipeline_weights, "consistent"),
    "pipeline-literal": (pipeline_weights, "literal"),
    "literal": (literal_weights,),
}


def _dot(weights: tuple[float, ...], r: tuple[float, ...]) -> float:
    return float(sum(w * v for w, v in zip(weights, r)))


def _as_pauli(r) -> tuple[float, float, float, float]:
    """The Pauli components of r, a MixedLocalizedState or four numbers;
    ValueError unless they describe a density matrix."""
    if not isinstance(r, MixedLocalizedState):
        r = tuple(float(v) for v in r)
        if len(r) != 4:
            raise ValueError("expected four Pauli components (r0, r1, r2, r3)")
        r = MixedLocalizedState(r)
    diag = validate_state(r)
    if not diag.valid:
        raise ValueError(f"invalid mixed state: {diag.violations}")
    return r.pauli


def _prob(y: int, t: int, r, table, *args) -> float:
    pauli = _as_pauli(r)
    weights = _float_weights(t, table, *args).get(y)
    return _dot(weights, pauli) if weights is not None else 0.0


def prob_pipeline(y: int, t: int, r, mode: str = "consistent") -> float:
    """P(y, t) through the integral pipeline with the chosen kernel table."""
    return _prob(y, t, r, pipeline_weights, mode)


def prob_literal(y: int, t: int, r) -> float:
    """P(y, t) by the compact closed form (note: r1 never enters it)."""
    return _prob(y, t, r, literal_weights)


def distribution_mixed(t: int, r, mode: str = "consistent") -> Distribution:
    """Distribution over y in [-t, t] (full grid; parity-forbidden sites
    carry exact zeros). mode selects the reading: "consistent" or
    "pipeline-literal" run the integral pipeline with the respective kernel
    table, "literal" evaluates the compact closed form. The weights are
    exact, but each site is their float dot product with r, so the
    distribution is labelled mode "double" and carries no exact values."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if mode not in MIXED_METHODS:
        raise ValueError(f"unknown mixed mode {mode!r}")
    pauli = _as_pauli(r)
    table = _float_weights(t, *_READINGS[mode])
    probs = {y: _dot(table[y], pauli) for y in range(-t, t + 1)}
    return Distribution(probs, t=t, method=f"mixed-{mode}", mode="double")
