from __future__ import annotations

import hashlib
import json
import math
import operator
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_bloch
from qwalk import closedform_mixed, verify
from qwalk.arithmetic import SqrtTwo, SqrtTwoComplex
from qwalk.closedform_mixed import (
    KernelTerm,
    KERNELS,
    MIXED_METHODS,
    distribution_mixed,
    half_binom,
    integral_identity,
    kernel_value,
    literal_weights,
    pipeline_weights,
    prob_literal,
    prob_pipeline,
    trace_kernels,
    trace_series,
)
from qwalk.core import (
    CoinParams,
    MixedLocalizedState,
    PureState,
    max_pointwise_difference,
)
from qwalk.direct import distribution_of, evolve_mixed, evolve_pure
from qwalk.horner import f_explicit, f_sequence, quartic_coeffs, superop

DIGESTS = Path(__file__).parent / "data" / "mixed_table_digests.json"


class TestHalfBinom:
    def test_annihilation(self):
        assert half_binom(5, 3) == 0  # odd numerator
        assert half_binom(5, -2) == 0
        assert half_binom(5, 12) == 0

    @given(st.integers(min_value=0, max_value=60), st.data())
    def test_even_case_is_binomial(self, n, data):
        j = data.draw(st.integers(min_value=0, max_value=n))
        assert half_binom(n, 2 * j) == math.comb(n, j)

    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=-4, max_value=84),
    )
    def test_symmetry(self, n, num):
        assert half_binom(n, num) == half_binom(n, 2 * n - num)


class TestIntegralIdentities:
    N = 64  # uniform grid; exact for trigonometric polynomials of low degree

    def quadrature(self, kernel: str, a_site: int, b_site: int) -> complex:
        ks = 2.0 * math.pi * np.arange(self.N) / self.N
        pa = np.exp(1j * ks * a_site)
        pb = np.exp(1j * ks * b_site)
        kk, kp = np.meshgrid(ks, ks, indexing="ij")
        vals = np.vectorize(lambda u, v: kernel_value(kernel, u, v))(kk, kp)
        return complex(np.einsum("i,j,ij->", pa, pb, vals)) / self.N**2

    def predicted(self, kernel: str, a_site: int, b_site: int) -> complex:
        imag, entries = integral_identity(kernel)
        total = sum(
            frac for a, b, frac in entries if a == a_site and b == b_site
        )
        value = complex(Fraction(total))
        return value / 1j if imag else value

    def test_all_kernels_random_sites(self):
        rng = random.Random(3)
        for kernel in KERNELS:
            for _ in range(8):
                a, b = rng.randint(-6, 6), rng.randint(-6, 6)
                got = self.quadrature(kernel, a, b)
                assert got == pytest.approx(
                    self.predicted(kernel, a, b), abs=1e-10
                ), (kernel, a, b)

    def test_all_kernels_on_their_support(self):
        # every site pair the identity claims is nonzero, checked directly
        for kernel in KERNELS:
            _, entries = integral_identity(kernel)
            for a, b, frac in entries:
                got = self.quadrature(kernel, a, b)
                want = self.predicted(kernel, a, b)
                assert abs(want) == pytest.approx(abs(float(frac)))
                assert got == pytest.approx(want, abs=1e-12), (kernel, a, b)


class TestTraceSeries:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown kernel mode"):
            trace_kernels("strict")

    def test_consistent_matches_superop_power(self):
        # Tr(L^t O) for O with Pauli vector r is 2 (L^t r)_0; the kernel
        # table must reproduce it through the quartic f sequence.
        rng = random.Random(5)
        for _ in range(25):
            k = rng.uniform(-math.pi, math.pi)
            kp = rng.uniform(-math.pi, math.pi)
            r = np.array(random_bloch(rng))
            t = rng.randint(0, 12)
            lhs = 2.0 * (np.linalg.matrix_power(superop(k, kp), t) @ r)[0]
            seq = f_sequence(quartic_coeffs(k, kp), t)
            ws = trace_series("consistent", k, kp, tuple(r))
            rhs = sum(seq[t - j] * ws[j] for j in range(4) if t - j >= 0)
            assert rhs == pytest.approx(lhs, abs=1e-12)

    def test_literal_is_consistent_with_r1_r2_swapped(self):
        rng = random.Random(7)
        for _ in range(15):
            k = rng.uniform(-3, 3)
            kp = rng.uniform(-3, 3)
            r0, r1, r2, r3 = random_bloch(rng)
            a = trace_series("literal", k, kp, (r0, r1, r2, r3))
            b = trace_series("consistent", k, kp, (r0, r2, r1, r3))
            for x, y in zip(a, b):
                assert x == pytest.approx(y, abs=1e-15)


class TestWeightTables:
    def test_t0(self):
        assert pipeline_weights(0, "consistent")[0] == (Fraction(2),) * 1 + (
            Fraction(0),
        ) * 3
        assert literal_weights(0)[0][0] == Fraction(2)

    def test_parity_forbidden_rows_vanish(self):
        for t in (4, 7):
            for table in (
                pipeline_weights(t, "consistent"),
                pipeline_weights(t, "literal"),
                literal_weights(t),
            ):
                for y, w in table.items():
                    if (y + t) % 2:
                        assert w == (Fraction(0),) * 4

    def test_normalization_rows(self):
        # total probability is 1 for every unit-trace r, so the w0 column
        # sums to 2 and every other column sums to 0, in all variants
        for t in range(0, 10):
            for table in (
                pipeline_weights(t, "consistent"),
                pipeline_weights(t, "literal"),
                literal_weights(t),
            ):
                sums = [sum(w[i] for w in table.values()) for i in range(4)]
                assert sums == [Fraction(2), 0, 0, 0]

    def test_w0_column_shared_by_all_variants(self):
        for t in range(0, 12):
            cons = pipeline_weights(t, "consistent")
            plit = pipeline_weights(t, "literal")
            lit = literal_weights(t)
            for y in cons:
                assert cons[y][0] == plit[y][0] == lit[y][0]

    def test_conjugation_symmetry_kills_r2_in_consistent(self):
        # the Hadamard coin matrix is real, so complex conjugation maps
        # valid evolutions to valid evolutions while negating r2; the true
        # distribution therefore cannot depend on r2
        for t in range(0, 12):
            for w in pipeline_weights(t, "consistent").values():
                assert w[2] == 0

    def test_r1_never_enters_literal_variants(self):
        for t in range(0, 12):
            for w in pipeline_weights(t, "literal").values():
                assert w[1] == 0
            for w in literal_weights(t).values():
                assert w[1] == 0

    def test_literal_variants_agree_through_t2(self):
        for t in (0, 1, 2):
            assert literal_weights(t) == pipeline_weights(t, "literal")

    def test_literal_variants_split_at_t3(self):
        # the two cos-sum/sin-diff groups at Horner order 2 do not cancel;
        # dropping them changes the weights from t = 3 on
        assert pipeline_weights(3, "literal")[1] == (
            Fraction(3, 4),
            Fraction(0),
            Fraction(1, 4),
            Fraction(1, 2),
        )
        assert literal_weights(3)[1] == (
            Fraction(3, 4),
            Fraction(0),
            Fraction(3, 4),
            Fraction(1),
        )

    def test_consistent_is_the_bilinear_form_of_two_exact_walks(self, hadamard):
        # the oracle's P_y = rho_00 |psi_0|^2 + rho_11 |psi_1|^2
        # + 2 Re(rho_10 <psi_0|psi_1>), with rho_10 = r1 + i r2, read as
        # weights on (r0, r1, r2, r3), in exact ring arithmetic
        one, zero = SqrtTwoComplex.one(), SqrtTwoComplex.zero()
        psi0 = PureState.localized(0, one, zero)
        psi1 = PureState.localized(0, zero, one)
        checked = {*range(61), 89, 120, 160}
        for t in range(161):
            if t in checked:
                table = pipeline_weights(t, "consistent")
                assert set(table) == set(range(-t, t + 1))
                for y, weights in table.items():
                    (a0, b0), (a1, b1) = psi0.amplitude(y), psi1.amplitude(y)
                    n0, n1 = a0.abs_sq() + b0.abs_sq(), a1.abs_sq() + b1.abs_sq()
                    cross = a0.conjugate() * a1 + b0.conjugate() * b1
                    want = (n0 + n1, 2 * cross.re, -2 * cross.im, n0 - n1)
                    assert tuple(SqrtTwo(w) for w in weights) == want, (t, y)
            psi0, psi1 = (evolve_pure(psi, hadamard, 1) for psi in (psi0, psi1))

    def test_pipeline_literal_table_is_consistent_with_r1_r2_swapped(self):
        # the kernel-table statement of test_literal_is_consistent_with_r1_r2_swapped,
        # checked on the exact tables
        for t in (*range(61), 160):
            cons = pipeline_weights(t, "consistent")
            plit = pipeline_weights(t, "literal")
            assert set(plit) == set(cons)
            for y, (w0, w1, w2, w3) in cons.items():
                assert plit[y] == (w0, w2, w1, w3), (t, y)

    def test_consistent_t3_weights(self):
        assert pipeline_weights(3, "consistent")[1] == (
            Fraction(3, 4),
            Fraction(1, 4),
            Fraction(0),
            Fraction(1, 2),
        )

    def test_imag_residue_assertion_silent(self):
        # the i-carrying kernel pieces must cancel exactly at every t; the
        # builder raises AssertionError if they ever fail to
        for t in range(0, 16):
            pipeline_weights(t, "consistent")
            pipeline_weights(t, "literal")

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            pipeline_weights(-1, "consistent")
        with pytest.raises(ValueError):
            literal_weights(-2)

    def test_numpy_integer_t_reads_as_int(self):
        # past t = 61 a numpy int64 reaching 1 << (t + 2) would overflow
        t, r = 70, (0.5, 0.1, 0.2, 0.15)
        for mode in MIXED_METHODS:
            got = distribution_mixed(np.int64(t), r, mode)
            assert type(got.t) is int
            assert dict(got.items()) == dict(distribution_mixed(t, r, mode).items())
        pipeline_weights.cache_clear()
        literal_weights.cache_clear()
        assert pipeline_weights(np.int64(t), "literal") == pipeline_weights(t, "literal")
        assert literal_weights(np.int64(t)) == literal_weights(t)
        assert pipeline_weights.cache_info().currsize == literal_weights.cache_info().currsize == 1
        assert prob_pipeline(2, np.int64(t), r) == prob_pipeline(2, t, r)
        assert prob_literal(2, np.int64(t), r) == prob_literal(2, t, r)

    def test_float_t_rejected_even_when_its_int_is_cached(self):
        r = (0.5, 0.1, 0.2, 0.15)
        for query in (
            lambda t: pipeline_weights(t, "consistent"),
            literal_weights,
            lambda t: distribution_mixed(t, r, "consistent"),
            lambda t: prob_pipeline(0, t, r),
            lambda t: prob_literal(0, t, r),
        ):
            query(2)
            with pytest.raises(TypeError):
                query(2.0)

    def test_site_must_be_an_integer(self):
        # a float site used to miss the table (2.5 gave 0.0) or hit an
        # int's entry (3.0 gave P(3))
        t, r = 5, (0.5, 0.1, 0.2, 0.15)
        for prob in (prob_pipeline, prob_literal):
            for y in (2.5, 3.0):
                with pytest.raises(TypeError):
                    prob(y, t, r)
            assert prob(np.int64(3), t, r) == prob(3, t, r) != 0.0


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
# c0 = c2 = X - Y, c1 = 2XY, c3 = -1. With _Poly2 and f_sequence they are
# the reference that closedform_mixed's packed run is tested against.
_QUARTIC = (_Poly2([[0, -1], [1]]), _Poly2([[], [0, 2]]), _Poly2([[0, -1], [1]]), -1)


def _f_window(t: int) -> tuple[_Poly2, ...]:
    """(f_t, f_{t-1}, f_{t-2}, f_{t-3}) as polynomials in X, Y, unpacked from
    the packed run the tables use; orders below f_0 are left out."""
    window = []
    for j, packed in enumerate(closedform_mixed._packed_window(t)):
        n = t - j
        rows = []
        for a1, coeffs in enumerate(closedform_mixed._unpack(packed, n, t)):
            row = [0] * (n - a1 + 1)
            row[(n - a1) % 2 :: 2] = coeffs
            rows.append(row)
        window.append(_Poly2(rows))
    return tuple(window)


class TestBasePolynomials:
    X = _Poly2([[], [1]])
    Y = _Poly2([[0, 1]])

    def test_low_orders_by_hand(self):
        # f_1 = c0 = X - Y and f_2 = c0^2 + c1 = X^2 + Y^2
        f2, f1, f0 = _f_window(2)
        assert f0 == 1
        assert f1 == self.X + (-1) * self.Y
        assert f2 == self.X * self.X + self.Y * self.Y

    def test_window_equals_partition_sum(self):
        # the recurrence run against horner's explicit partition sum, both
        # over the same polynomial type
        for m in range(31):
            window = _f_window(m)
            assert len(window) == min(m, 3) + 1
            for j, f in enumerate(window):
                assert f == f_explicit(_QUARTIC, m - j), (m, j)

    def test_window_is_tail_of_full_sequence(self):
        for t in (*range(41), 60, 100, 160):
            seq = f_sequence(_QUARTIC, t)
            tail = tuple(_Poly2.lift(f) for f in reversed(seq[-4:]))
            assert _f_window(t) == tail, t

    def test_slot_bound_holds_every_coefficient(self):
        # the packed run reads each coefficient from a slot of
        # _slot_width(t) bits; one that outgrew it would first show at large
        # t, so the bound is checked against the reference polynomials
        seq = f_sequence(_QUARTIC, 160)
        for t in range(161):
            bound = closedform_mixed._coefficient_bound(t)
            assert bound < 1 << (closedform_mixed._slot_width(t) - 1)
            for j in range(min(t, 3) + 1):
                terms = _Poly2.lift(seq[t - j]).terms
                assert max(map(abs, terms.values())) <= bound, (t, j)

    def test_cold_build_holds_only_the_window(self):
        # the full f_0 .. f_100 sequence alone peaks at about 5 MB
        pipeline_weights.cache_clear()
        closedform_mixed._a1_sums.cache_clear()
        tracemalloc.start()
        try:
            pipeline_weights(100, "consistent")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    def test_coefficients_match_quartic_coeffs(self):
        # evaluated at (cos(k-k'), cos(k+k')), the polynomials are the f_t
        # of the float pair superoperator
        rng = random.Random(17)
        for _ in range(5):
            k, kp = rng.uniform(-3, 3), rng.uniform(-3, 3)
            cd, cs = math.cos(k - kp), math.cos(k + kp)
            seq = f_sequence(quartic_coeffs(k, kp), 20)
            value = sum(
                w * cd**a1 * cs**a2 for (a1, a2), w in _f_window(20)[0].terms.items()
            )
            assert value == pytest.approx(seq[20], abs=1e-9)


class TestPinnedTables:
    """SHA-256 of repr(sorted(table.items())) for t = 0..40, recorded from
    the partition-sum builders that the Horner recurrence replaced."""

    READINGS = {
        "consistent": lambda t: pipeline_weights(t, "consistent"),
        "pipeline-literal": lambda t: pipeline_weights(t, "literal"),
        "literal": literal_weights,
    }

    @pytest.mark.parametrize("reading", sorted(READINGS))
    def test_tables_match_pinned_digests(self, reading):
        pinned = json.loads(DIGESTS.read_text())[reading]
        assert len(pinned) == 41
        for t, want in enumerate(pinned):
            table = self.READINGS[reading](t)
            got = hashlib.sha256(repr(sorted(table.items())).encode()).hexdigest()
            assert got == want, (reading, t)

    def test_residue_assertion_fires(self, monkeypatch):
        # an i-carrying term on a real kernel leaves an imaginary residue
        # the builder must refuse
        broken = trace_kernels("consistent") + (KernelTerm(1, "cos_sum", 1, 2, True),)
        monkeypatch.setattr(closedform_mixed, "trace_kernels", lambda mode: broken)
        pipeline_weights.cache_clear()
        try:
            with pytest.raises(AssertionError, match="imaginary trace residue"):
                pipeline_weights(5, "consistent")
        finally:
            pipeline_weights.cache_clear()


class TestProbabilities:
    def test_adjudication_t2(self, hadamard):
        r = (0.5, 0.5, 0.0, 0.0)
        oracle = evolve_mixed(MixedLocalizedState.from_pauli(*r), hadamard, 2)
        assert oracle[0] == pytest.approx(0.5)
        assert oracle[2] == pytest.approx(0.5)
        for y in (-2, 0, 2):
            assert prob_pipeline(y, 2, r, "consistent") == pytest.approx(
                oracle[y], abs=1e-15
            )
        # the compact form disagrees with the oracle on this state
        assert prob_literal(-2, 2, r) == pytest.approx(0.25)
        assert prob_literal(0, 2, r) == pytest.approx(0.5)
        assert prob_literal(2, 2, r) == pytest.approx(0.25)

    def test_consistent_matches_oracle_random_bloch(self, hadamard):
        rng = random.Random(11)
        for _ in range(20):
            r = random_bloch(rng)
            t = rng.randint(0, 12)
            oracle = evolve_mixed(
                MixedLocalizedState.from_pauli(*r), hadamard, t
            )
            got = distribution_mixed(t, r, "consistent")
            assert max_pointwise_difference(got, oracle) < 1e-12

    @pytest.mark.parametrize("t", [40, 60])
    def test_consistent_matches_oracle_large_t(self, hadamard, t):
        rng = random.Random(t)
        for _ in range(4):
            r = random_bloch(rng)
            oracle = evolve_mixed(
                MixedLocalizedState.from_pauli(*r), hadamard, t
            )
            got = distribution_mixed(t, r, "consistent")
            assert max_pointwise_difference(got, oracle) < 1e-12

    def test_unbiased_state_identical_in_all_variants(self, hadamard):
        # r = (1/2, 0, 0, 0) only sees the shared w0 column
        t = 9
        dists = [distribution_mixed(t, (0.5, 0, 0, 0), m) for m in MIXED_METHODS]
        for d in dists[1:]:
            for y in dists[0].positions:
                assert d[y] == dists[0][y]
        oracle = evolve_mixed(
            MixedLocalizedState.from_pauli(0.5, 0, 0, 0), hadamard, t
        )
        assert max_pointwise_difference(dists[0], oracle) < 1e-13

    def test_unbiased_mirror_symmetry_exact(self):
        table = pipeline_weights(11, "consistent")
        for y in range(-11, 12):
            assert table[y][0] == table[-y][0]

    def test_rank_one_diagonal_matches_pure_walk(self, hadamard):
        # r = (1/2, 0, 0, 1/2) is the pure |0> coin
        t = 8
        got = distribution_mixed(t, (0.5, 0.0, 0.0, 0.5), "consistent")
        want = distribution_of(
            evolve_pure(PureState.localized(0, 1.0, 0.0), hadamard, t), t
        )
        assert max_pointwise_difference(got, want) < 1e-13

    def test_weights_are_linear_in_r(self):
        rng = random.Random(13)
        t = 6
        ra = random_bloch(rng)
        rb = random_bloch(rng)
        mix = tuple(0.5 * (a + b) for a, b in zip(ra, rb))
        for y in range(-t, t + 1):
            pa = prob_pipeline(y, t, ra, "consistent")
            pb = prob_pipeline(y, t, rb, "consistent")
            assert prob_pipeline(y, t, mix, "consistent") == pytest.approx(
                0.5 * (pa + pb), abs=1e-15
            )

    def test_outside_grid_is_zero(self):
        assert prob_pipeline(9, 4, (0.5, 0, 0, 0)) == 0.0
        assert prob_literal(-9, 4, (0.5, 0, 0, 0)) == 0.0

    def test_state_object_accepted(self):
        state = MixedLocalizedState.from_pauli(0.5, 0.2, 0.1, 0.3)
        assert prob_pipeline(0, 2, state) == pytest.approx(
            prob_pipeline(0, 2, (0.5, 0.2, 0.1, 0.3))
        )

    def test_bad_pauli_length(self):
        with pytest.raises(ValueError, match="four Pauli components"):
            prob_pipeline(0, 2, (0.5, 0.0))


class TestDistributionMixed:
    def test_full_grid_with_exact_zeros(self):
        d = distribution_mixed(5, (0.5, 0, 0, 0))
        assert d.positions == tuple(range(-5, 6))
        for y in d.positions:
            if (y + 5) % 2:
                assert d[y] == 0.0

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="unknown mixed mode"):
            distribution_mixed(2, (0.5, 0, 0, 0), "bogus")
        with pytest.raises(ValueError, match="non-negative"):
            distribution_mixed(-1, (0.5, 0, 0, 0))

    def test_method_label(self):
        d = distribution_mixed(3, (0.5, 0, 0, 0), "literal")
        assert d.method == "mixed-literal"
        assert d.t == 3

    @pytest.mark.parametrize("mode", MIXED_METHODS)
    @pytest.mark.parametrize(
        "pauli",
        [(0.5, 0.9, 0.0, 0.0), (0.7, 0.0, 0.0, 0.1), (0.5, math.nan, 0.0, 0.0)],
        ids=["not-psd", "trace", "nan"],
    )
    def test_invalid_state_refused(self, hadamard, mode, pauli):
        # the weights are linear in r, so an invalid rho would otherwise
        # come back as a "distribution" with negative entries
        state = MixedLocalizedState.from_pauli(*pauli)
        with pytest.raises(ValueError, match="invalid mixed state"):
            distribution_mixed(5, pauli, mode)
        with pytest.raises(ValueError, match="invalid mixed state"):
            verify.evaluate(mode, state, hadamard, 5)

    def test_invalid_state_refused_by_point_queries(self):
        for query in (prob_pipeline, prob_literal):
            with pytest.raises(ValueError, match="invalid mixed state"):
                query(1, 3, (0.5, 0.9, 0.0, 0.0))

    def test_invalid_state_message_is_one_readable_text(self, hadamard):
        # each entry point states the violations as "code: message", not as
        # the repr of the diagnostics tuple
        r = (0.5, 0.5, 0.5, 0.5)
        state = MixedLocalizedState.from_pauli(*r)
        calls = (
            lambda: distribution_mixed(3, r),
            lambda: prob_pipeline(1, 3, r),
            lambda: evolve_mixed(state, hadamard, 3),
            lambda: verify.compare_mixed(r, 3),
        )
        messages = set()
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            messages.add(str(info.value))
        (message,) = messages
        assert message == (
            f"invalid mixed state: psd: Bloch norm {state.bloch_norm!r} exceeds r0 = 0.5"
        )

    @pytest.mark.parametrize("mode", MIXED_METHODS)
    def test_mode_label_is_double(self, mode):
        # the weights are exact but each site is a float dot product with
        # r, so the distribution is a float one and carries no ring values
        d = distribution_mixed(4, (0.5, 0.1, 0.2, 0.3), mode)
        assert d.mode == "double"
        assert d.exact is None
