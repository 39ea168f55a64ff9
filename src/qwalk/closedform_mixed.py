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

Each f_{t-j} is an integer polynomial in X = cos(delta) and Y = cos(sigma),
from the r = 4 recurrence of horner.f_sequence with c0 = c2 = X - Y,
c1 = 2XY, c3 = -1. One run to order t holds each f_n packed into one
Python int (Kronecker substitution): the coefficient of X^A1 Y^A2 sits in
slot A1 (t+1) + A2, of a width fixed by an a-priori bound on the
coefficients, so a step is a few shifts and adds of integers of about
t^2 slots, and only f_{t-3} .. f_t are unpacked. Against the Fourier
factors of an integral identity, a monomial X^A1 Y^A2 selects one binomial
in A1 that depends on the site y and one in A2 that does not. The A2
binomials are summed once per A1, and the A1 binomials for every site at
once, by Horner's rule in (E + 1/E)^2 over the one parity of A1 whose
entries are nonzero: about t^2/2 integer additions per Horner order.
Those site sums depend on neither the reading nor the kernel table, so
each t pays one build for all three readings, and a reading's table is a
few integer combinations of them. Every vanishing claim is recomputed
here rather than assumed (the sin(delta) sin(sigma) brackets do cancel
pairwise, and the builder asserts that the net imaginary part is exactly
zero at every site). All weights are exact rationals over 2^(t+2): a table
holds their integer numerators and reads a site as Fractions. It divides
each numerator into a float once, into one read-only (4, 2t+1) array, so
the tables do all the work that r does not enter, and a distribution is
one array expression in (r0, r1, r2, r3) over every site at once.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property, lru_cache, wraps
from typing import NamedTuple

import numpy as np

from .core import Distribution, step_count, valid_mixed_state

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


def _coefficient_bound(t: int) -> int:
    """M_t, with M_n = 2 M_{n-1} + 2 M_{n-2} + 2 M_{n-3} + M_{n-4} and M_0 = 1:
    a bound on the l1 norm, so on every |coefficient|, of each f_n, n <= t.

    The l1 norm of polynomials is subadditive and submultiplicative, and
    X - Y and 2XY have norm 2, so the quartic recurrence bounds |f_n|_1 by
    M_n; and M_n grows with n.
    """
    window = (0, 0, 0, 1)
    for _ in range(t):
        m4, m3, m2, m1 = window
        window = (m3, m2, m1, 2 * (m1 + m2 + m3) + m4)
    return window[-1]


def _slot_width(t: int) -> int:
    """Bits per packed coefficient of the run to order t: whole bytes that
    hold a sign bit and every magnitude the bound allows."""
    return 8 * ((_coefficient_bound(t).bit_length() + 8) // 8)


def _packed_window(t: int) -> tuple[int, ...]:
    """(f_t, f_{t-1}, f_{t-2}, f_{t-3}), each packed into one integer, by one
    run of the quartic recurrence; orders below f_0 are left out.

    With width = _slot_width(t), a packed f_n is the sum of
    c 2^(width (A1 (t+1) + A2)) over its coefficients c of X^A1 Y^A2
    (A2 <= n <= t, so rows never overlap). X and Y are then shifts by t+1
    slots and by one, and a step is a few shifts and adds. The sum is an
    exact integer whatever its slots hold; only the coefficients unpacked
    at the end must fit their slots. Running horner._f_terms with packed
    integers as scalars would instead multiply by the packed X - Y: a full
    big-int product, O(size * row), where a shift is O(size).
    """
    width = _slot_width(t)
    x = (t + 1) * width
    window = (0, 0, 0, 1)  # f_{-3} .. f_0
    for _ in range(t):
        f4, f3, f2, f1 = window
        s = f1 + f3
        window = (f3, f2, f1, (s << x) - (s << width) + (f2 << (x + width + 1)) - f4)
    return tuple(reversed(window))[: min(t, 3) + 1]


def _unpack(packed: int, n: int, t: int) -> list[list[int]]:
    """The coefficients of f_n packed by the run to order t: rows[A1] holds
    those of X^A1 Y^A2 for A2 = (n - A1) % 2, ..., n - A1 in steps of 2,
    the only ones that can be nonzero (every term of f_n has degree at most
    n and of its parity).

    Slots are signed. A slot read as an unsigned chunk of the integer's
    two's complement bytes is one short when the slots below it sum to a
    negative number, which is when the highest nonzero one below it is
    negative; the slots not read here are zero.
    """
    width = _slot_width(t)
    size = width // 8
    row_bytes = (t + 1) * size
    raw = packed.to_bytes((n * (t + 1) + 1) * size, "little", signed=True)
    half = 1 << (width - 1)
    borrow = False
    rows = []
    for a1 in range(n + 1):
        base = a1 * row_bytes
        row = []
        for at in range(base + (n - a1) % 2 * size, base + (n - a1) * size + 1, 2 * size):
            c = int.from_bytes(raw[at : at + size], "little") + borrow
            if c >= half:
                c -= half << 1
            if c:
                borrow = c < 0
            row.append(c)
        rows.append(row)
    return rows


def _horner_sites(row: list[int]) -> list[int]:
    """[S(-n), ..., S(n)] for row[A1], A1 = 0..n, where S(m) is the sum over
    A1 of half_binom(A1, A1 - m) row[A1]: the coefficients in E of
    sum row[A1] (E + 1/E)^A1.

    Each parity q of A1 gives the S(m) of m's parity q alone, as
    (E + 1/E)^q times a polynomial in Z = (E + 1/E)^2 = (1 + W)^2 / W,
    W = E^2. That is summed by Horner's rule in Z over the row's entries
    of parity q, each step two passes of (1 + W) on the coefficients in W;
    a parity whose entries are all zero (one of them, in every row of
    _a1_sums) costs nothing.
    """
    n = len(row) - 1
    out = [0] * (2 * n + 1)
    for q in (0, 1):
        coeffs = row[q::2]
        if not any(coeffs):
            continue
        # after k steps acc[i] is the coefficient of W^(i - k)
        acc = [coeffs[-1]]
        for c in reversed(coeffs[:-1]):
            acc = _one_plus_w(_one_plus_w(acc))
            acc[len(acc) // 2] += c
        if q:
            acc = _one_plus_w(acc)
        # acc[i] is now the coefficient of E^(2i - top), top = q + 2k
        top = len(acc) - 1
        out[n - top : n + top + 1 : 2] = acc
    return out


def _one_plus_w(coeffs: list[int]) -> list[int]:
    """The coefficients of (1 + W) p(W), p's being coeffs."""
    return list(map(operator.add, coeffs + [0], [0] + coeffs))


@lru_cache(maxsize=None)
def _a1_sums(t: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every site sum of the order-t tables, shared by all readings.

    With f_{t-j} = sum w X^A1 Y^A2, the sigma factor of an identity entry is
    summed over A2 once per A1: row_s[A1] is the sum of
    w 2^(t-A1-A2) half_binom(A2, A2 + s), for s = 0 and 1. The factor
    2^(t-A1-A2) puts every order over the common denominator 2^t, and
    half_binom(A2, A2 + s) is even in s, so s = -1 reads row 1. The delta
    factor is then summed over A1 for every site at once: entry
    [j][s][m + t + 1] is the sum of half_binom(A1, A1 - m) row_s[A1], for m
    in [-t-1, t+1].
    """
    # 2^(t-A2) half_binom(A2, A2 + s) for the one s of A2's parity
    sigma = [math.comb(a2, a2 // 2) << (t - a2) for a2 in range(t + 1)]
    out = []
    for j, packed in enumerate(_packed_window(t)):
        n = t - j
        rows = ([0] * (n + 1), [0] * (n + 1))
        for a1, coeffs in enumerate(_unpack(packed, n, t)):
            s = (n - a1) % 2
            # each term carries 2^(t-A2) with A2 <= n - A1, so the shift is exact
            rows[s][a1] = sum(map(operator.mul, coeffs, sigma[s::2])) >> a1
        pad = (0,) * (t + 1 - n)
        out.append(tuple(pad + tuple(_horner_sites(row)) + pad for row in rows))
    return tuple(out)


class _DyadicTable(Mapping):
    """Exact weight vectors w(y), y = -t..t in order, held as integer
    numerators over 2^shift: a site reads as a tuple of Fractions, and
    ``floats`` is the whole table as one read-only (4, 2t+1) float64 array,
    column y + t holding w(y). Each float is its numerator over the
    denominator by int / int division, which rounds correctly, so it is
    float() of the Fraction."""

    def __init__(self, numerators: dict[int, tuple[int, ...]], shift: int):
        self._numerators = numerators
        self._denominator = 1 << shift

    def __getitem__(self, y: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self._denominator) for n in self._numerators[y])

    def __iter__(self):
        return iter(self._numerators)

    def __len__(self) -> int:
        return len(self._numerators)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"

    @cached_property
    def floats(self) -> np.ndarray:
        den = self._denominator
        table = np.array([[n / den for n in column]
                          for column in zip(*self._numerators.values())])
        table.flags.writeable = False
        return table


def _weights(t: int, kernels: tuple[KernelTerm, ...]) -> _DyadicTable:
    """Exact weight vectors w(y) with P(y, t) = sum_i w_i(y) r_i, computed
    by pushing every kernel term through its integral identity.

    Terms whose  i  prefactor does not cancel against an identity's 1/i
    are accumulated separately; their total is asserted to vanish exactly
    (this is the recomputation of the claimed kernel cancellations).
    """
    sums = _a1_sums(t)
    # An identity entry (a, b) selects A1 - y + (a-b)/2 through the delta
    # integral and A2 + (a+b)/2 through the sigma one. Fold every
    # (kernel term, entry) pair into integer factors on the site sums of its
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
            piece = term.coeff * 4 * frac.numerator // frac.denominator
            if term.imag == kern_imag:
                real[term.r_index] += piece
            elif term.imag:
                imag[term.r_index] += piece
            else:
                imag[term.r_index] -= piece
    sites = range(-t, t + 1)
    columns = ([[0] * len(sites) for _ in range(4)], [[0] * len(sites) for _ in range(4)])
    for (j, s, d), factors in groups.items():
        # site y reads the site sum of y - d
        sums_at = sums[j][s][1 - d : 1 - d + len(sites)]
        for cols, coeffs in zip(columns, factors):
            for i, c in enumerate(coeffs):
                if c:
                    cols[i] = list(map(operator.add, cols[i], map(c.__mul__, sums_at)))
    real, imag = (list(zip(*cols)) for cols in columns)
    for y, residue in zip(sites, imag):
        if any(residue):
            raise AssertionError(
                f"nonvanishing imaginary trace residue at t={t}, y={y}: {list(residue)}"
            )
    return _DyadicTable(dict(zip(sites, real)), t + 2)


def _cached_on_t(build):
    """lru_cache over (t, ...), with t passed through step_count before it
    becomes a key: a numpy integer never reaches a shift, a float t raises
    TypeError instead of finding an int's entry, and a negative t is refused."""
    cached = lru_cache(maxsize=None)(build)

    @wraps(build)
    def lookup(t, *args, **kwargs):
        return cached(step_count(t), *args, **kwargs)

    lookup.cache_info = cached.cache_info
    lookup.cache_clear = cached.cache_clear
    return lookup


@_cached_on_t
def pipeline_weights(t: int, mode: str) -> Mapping[int, tuple[Fraction, ...]]:
    """Exact weight vectors w(y) with P(y, t) = sum_i w_i(y) r_i, from the
    kernel table trace_kernels(mode), as a read-only mapping."""
    return _weights(t, trace_kernels(mode))


@_cached_on_t
def literal_weights(t: int) -> Mapping[int, tuple[Fraction, ...]]:
    """Exact weight vectors of the compact closed form (the "literal"
    distribution formula): the pipeline over the literal kernel table
    without its order-2 sin(delta) cos(sigma) terms."""
    return _weights(t, _COMPACT)


# the exact table of each reading of MIXED_METHODS, as (table, *args)
_READINGS = {
    "consistent": (pipeline_weights, "consistent"),
    "pipeline-literal": (pipeline_weights, "literal"),
    "literal": (literal_weights,),
}


def _dot(weights, r):
    """0.0 + w0 r0 + w1 r1 + w2 r2 + w3 r3, added left to right, for the
    four rows of a table (every site at once) or one of its columns: the
    sum that ``sum`` of the four products gives before Python 3.12."""
    w0, w1, w2, w3 = weights
    r0, r1, r2, r3 = r
    return 0.0 + w0 * r0 + w1 * r1 + w2 * r2 + w3 * r3


def _prob(y: int, t: int, r, table, *args) -> float:
    y = operator.index(y)
    pauli = valid_mixed_state(r).pauli
    t = step_count(t)
    weights = table(t, *args).floats
    return float(_dot(weights[:, y + t], pauli)) if -t <= y <= t else 0.0


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
    t = step_count(t)
    if mode not in MIXED_METHODS:
        raise ValueError(f"unknown mixed mode {mode!r}")
    pauli = valid_mixed_state(r).pauli
    table, *args = _READINGS[mode]
    probs = _dot(table(t, *args).floats, pauli).tolist()
    return Distribution(dict(zip(range(-t, t + 1), probs)), t=t, method=f"mixed-{mode}",
                        mode="double")
