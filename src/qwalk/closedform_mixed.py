"""Closed-form distribution for a Hadamard walker whose coin starts in an
arbitrary mixed state r0 I + r1 X + r2 Y + r3 Z (r0 = 1/2 for unit trace).

The position distribution is a double momentum integral of the trace of the
t-th power of the pair superoperator L_{k,k'} against the coin density
matrix. The quartic Horner identity turns L^t into four terms f_{t-j} L_j,
whose first Pauli rows produce trace kernels built from
delta = k - k' and sigma = k + k':

    j=0:  2 r0
    j=1:  2 r0 cos(sigma)           - 2i r? sin(delta)
    j=2: -2 r0 cos(delta) cos(sigma) - 2i r? cos(sigma) sin(delta)
         - 2i r? sin(delta) sin(sigma) ...
    j=3: -2 r0 cos(delta)           - 2i r3 sin(delta)

Two kernel assignments are shipped. ``consistent`` attaches the Pauli
components the way the Horner-basis rows dictate (r1 on the first-order
sin(delta) kernel). ``literal`` is an alternative assignment that swaps r1
and r2 there and merges (r2 + r3) on the second-order mixed kernel; it is
kept so the discrepancy it produces can be measured. The direct
density-matrix oracle adjudicates: ``consistent`` matches it.

Each f_{t-j} is an integer polynomial in X = cos(delta) and Y = cos(sigma):
one run of the r = 4 recurrence of horner.f_sequence, over a
small bivariate polynomial type with c0 = c2 = X - Y, c1 = 2XY, c3 = -1,
keeps only f_{t-3} .. f_t. Against the Fourier factors of an integral
identity, a monomial X^A1 Y^A2 selects one binomial in A1 that depends on
the site y and one in A2 that does not. The A2 binomials are summed once
per A1, so each site costs one O(t) sum per (Horner order, identity entry)
and a whole table O(t^2) after the O(t^3) recurrence. Every vanishing
claim is recomputed here rather than assumed (the sin(delta) sin(sigma)
brackets do cancel pairwise and the machinery asserts, site by site, that
the net imaginary part is exactly zero). All weights are exact rationals; floats
appear only in the final per-position dot product with (r0, r1, r2, r3).
"""

from __future__ import annotations

import math
import operator
from collections import deque
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .core import Distribution, MixedLocalizedState
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


# Integral identities: for each trig kernel,
#   int dk/2pi int dk'/2pi e^{ikA} e^{ik'B} kernel(k,k')
#     = (1/i if imag else 1) * sum of frac * [A == a][B == b].
# Entries are (a, b, frac).
_IDENTITIES: dict[str, tuple[bool, tuple[tuple[int, int, Fraction], ...]]] = {
    "one": (False, ((0, 0, Fraction(1)),)),
    "cos_sum": (False, ((-1, -1, Fraction(1, 2)), (1, 1, Fraction(1, 2)))),
    "cos_diff": (False, ((-1, 1, Fraction(1, 2)), (1, -1, Fraction(1, 2)))),
    "sin_diff": (True, ((-1, 1, Fraction(1, 2)), (1, -1, Fraction(-1, 2)))),
    "cos_diff_cos_sum": (
        False,
        (
            (-2, 0, Fraction(1, 4)),
            (2, 0, Fraction(1, 4)),
            (0, -2, Fraction(1, 4)),
            (0, 2, Fraction(1, 4)),
        ),
    ),
    "sin_diff_sin_sum": (
        False,
        (
            (-2, 0, Fraction(-1, 4)),
            (2, 0, Fraction(-1, 4)),
            (0, -2, Fraction(1, 4)),
            (0, 2, Fraction(1, 4)),
        ),
    ),
    "sin_diff_cos_sum": (
        True,
        (
            (-2, 0, Fraction(1, 4)),
            (2, 0, Fraction(-1, 4)),
            (0, -2, Fraction(-1, 4)),
            (0, 2, Fraction(1, 4)),
        ),
    ),
}

KERNELS = tuple(_IDENTITIES)


def integral_identity(kernel: str):
    """(imag_flag, ((a, b, frac), ...)) for one kernel; see module header."""
    return _IDENTITIES[kernel]


def kernel_value(kernel: str, k: float, kp: float) -> float:
    d = k - kp
    s = k + kp
    return {
        "one": 1.0,
        "cos_sum": math.cos(s),
        "cos_diff": math.cos(d),
        "sin_diff": math.sin(d),
        "cos_diff_cos_sum": math.cos(d) * math.cos(s),
        "sin_diff_sin_sum": math.sin(d) * math.sin(s),
        "sin_diff_cos_sum": math.sin(d) * math.cos(s),
    }[kernel]


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

_LITERAL: tuple[KernelTerm, ...] = (
    KernelTerm(0, "one", 0, 2, False),
    KernelTerm(1, "cos_sum", 0, 2, False),
    KernelTerm(1, "sin_diff", 2, -2, True),
    KernelTerm(2, "cos_diff_cos_sum", 0, -2, False),
    KernelTerm(2, "sin_diff_sin_sum", 1, -2, True),
    KernelTerm(2, "sin_diff_cos_sum", 2, -2, True),
    KernelTerm(2, "sin_diff_cos_sum", 3, -2, True),
    KernelTerm(3, "cos_diff", 0, -2, False),
    KernelTerm(3, "sin_diff", 3, -2, True),
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


@lru_cache(maxsize=None)
def pipeline_weights(t: int, mode: str) -> dict[int, tuple[Fraction, ...]]:
    """Exact weight vectors w(y) with P(y, t) = sum_i w_i(y) r_i, computed
    by pushing every kernel through its integral identity.

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
    for term in trace_kernels(mode):
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
    shift = t + 2
    table: dict[int, tuple[Fraction, ...]] = {}
    for y in range(-t, t + 1):
        real_acc = [0, 0, 0, 0]
        imag_acc = [0, 0, 0, 0]
        for (j, s, d), (real, imag) in groups.items():
            total = _site_sum(sums[j][s], y - d)
            if not total:
                continue
            for i in range(4):
                real_acc[i] += real[i] * total
                imag_acc[i] += imag[i] * total
        if any(imag_acc):
            raise AssertionError(
                f"nonvanishing imaginary trace residue at t={t}, y={y}: {imag_acc}"
            )
        table[y] = tuple(Fraction(n, 1 << shift) for n in real_acc)
    return table


@lru_cache(maxsize=None)
def literal_weights(t: int) -> dict[int, tuple[Fraction, ...]]:
    """Exact weight vectors of the compact closed form (the "literal"
    distribution formula, with the mixed-kernel groups it drops).

    With a0 = w / 2^(A1+A2) for each monomial of f_{t-j}, the formula sums

        j=0:  w0 += 2 a0 C1(A1, y) C2(A2, 0)
        j=1:  w0 += 2 a0 C1(A1, y) C2(A2, 1)
              w2 += a0 y/(A1+1) C1(A1+1, y) C2(A2, 0)
        j=2:  w0 -= a0 C1(A1+1, y) C2(A2, 1)
        j=3:  w0 -= a0 C1(A1+1, y) C2(A2, 0)
              w3 += a0 y/(A1+1) C1(A1+1, y) C2(A2, 0)

    where C1(n, y) = half_binom(n, n - y) and C2(n, s) = half_binom(n, n - s).
    Pascal's rule gives C1(A1+1, y) = C1(A1, y-1) + C1(A1, y+1) and
    y/(A1+1) C1(A1+1, y) = C1(A1, y-1) - C1(A1, y+1), so every line is a
    site sum of one _a1_sums row, over the common denominator 2^t.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    rows = list(_a1_sums(t))
    rows += [((), ())] * (4 - len(rows))
    # fj: f_{t-j} against C2(A2, 0); fj_s1: against C2(A2, 1)
    (f0, _), (f1, f1_s1), (_, f2_s1), (f3, _) = rows
    table: dict[int, tuple[Fraction, ...]] = {}
    for y in range(-t, t + 1):
        f3_left, f3_right = _site_sum(f3, y - 1), _site_sum(f3, y + 1)
        n0 = (
            2 * _site_sum(f0, y)
            + 2 * _site_sum(f1_s1, y)
            - _site_sum(f2_s1, y - 1)
            - _site_sum(f2_s1, y + 1)
            - f3_left
            - f3_right
        )
        n2 = _site_sum(f1, y - 1) - _site_sum(f1, y + 1)
        n3 = f3_left - f3_right
        table[y] = tuple(Fraction(n, 1 << t) for n in (n0, 0, n2, n3))
    return table


def _dot(weights: tuple[Fraction, ...], r: tuple[float, ...]) -> float:
    return float(sum(float(w) * v for w, v in zip(weights, r)))


def _as_pauli(r) -> tuple[float, float, float, float]:
    if isinstance(r, MixedLocalizedState):
        return r.pauli
    r = tuple(float(v) for v in r)
    if len(r) != 4:
        raise ValueError("expected four Pauli components (r0, r1, r2, r3)")
    return r


def prob_pipeline(y: int, t: int, r, mode: str = "consistent") -> float:
    """P(y, t) through the integral pipeline with the chosen kernel table."""
    weights = pipeline_weights(t, mode).get(y)
    return _dot(weights, _as_pauli(r)) if weights is not None else 0.0


def prob_literal(y: int, t: int, r) -> float:
    """P(y, t) by the compact closed form (note: r1 never enters it)."""
    weights = literal_weights(t).get(y)
    return _dot(weights, _as_pauli(r)) if weights is not None else 0.0


def distribution_mixed(t: int, r, mode: str = "consistent") -> Distribution:
    """Distribution over y in [-t, t] (full grid; parity-forbidden sites
    carry exact zeros). mode selects the evaluation: "consistent" or
    "pipeline-literal" run the integral pipeline with the respective kernel
    table, "literal" evaluates the compact closed form. The weights are
    exact, but each site is their float dot product with r, so the
    distribution is labelled mode "double" and carries no exact values."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if mode not in MIXED_METHODS:
        raise ValueError(f"unknown mixed mode {mode!r}")
    pauli = _as_pauli(r)
    if mode == "literal":
        table = literal_weights(t)
    elif mode == "pipeline-literal":
        table = pipeline_weights(t, "literal")
    else:
        table = pipeline_weights(t, "consistent")
    probs = {y: _dot(table[y], pauli) for y in range(-t, t + 1)}
    return Distribution(probs, t=t, method=f"mixed-{mode}", mode="double")
