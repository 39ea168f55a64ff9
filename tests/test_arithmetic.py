import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import arithmetic
from qwalk.arithmetic import (
    Angle,
    DyadicComplex,
    SqrtTwo,
    SqrtTwoComplex,
    precision_for,
)

fractions = st.fractions(
    min_value=-100, max_value=100, max_denominator=64
)
ring_elements = st.builds(SqrtTwo, fractions, fractions)


class TestAngle:
    @pytest.mark.parametrize(
        "text,num,den",
        [
            ("1/4 pi", 1, 4),
            ("pi", 1, 1),
            ("-1/2 pi", -1, 2),
            ("3 pi", 3, 1),
            ("  7/4pi ", 7, 4),
            ("1/4 * pi", 1, 4),
        ],
    )
    def test_parse_pi_strings(self, text, num, den):
        a = Angle.parse(text)
        assert a.is_pi_rational
        assert math.isclose(a.radians, math.pi * num / den % (2 * math.pi))

    def test_parse_float_is_radians(self):
        a = Angle.parse(1.25)
        assert not a.is_pi_rational
        assert a.radians == 1.25

    @pytest.mark.parametrize("bad", ["pie", "1/4", "pi/4x", "1//2 pi", [], None])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises((ValueError, TypeError)):
            Angle.parse(bad)

    def test_canonical_mod_two_pi(self):
        assert Angle.parse("9/4 pi") == Angle.parse("1/4 pi")
        assert Angle.parse("-1/4 pi") == Angle.parse("7/4 pi")

    def test_addition_and_negation(self):
        a = Angle.parse("1/4 pi") + Angle.parse("1/2 pi")
        assert a == Angle.parse("3/4 pi")
        assert -Angle.parse("1/4 pi") == Angle.parse("7/4 pi")

    @pytest.mark.parametrize("num", range(8))
    def test_exact_trig_on_eighth_turns(self, num):
        a = Angle.from_pi_fraction(num, 4)
        c, s = a.cos_exact(), a.sin_exact()
        assert c is not None and s is not None
        assert math.isclose(float(c), math.cos(a.radians), abs_tol=1e-15)
        assert math.isclose(float(s), math.sin(a.radians), abs_tol=1e-15)
        e = a.exp_i_exact()
        assert math.isclose(float(e.re), math.cos(a.radians), abs_tol=1e-15)
        assert math.isclose(float(e.im), math.sin(a.radians), abs_tol=1e-15)

    def test_off_grid_has_no_exact_trig(self):
        assert Angle.from_pi_fraction(1, 3).cos_exact() is None
        assert Angle.parse(0.7).sin_exact() is None

    def test_mp_radians_matches_float(self):
        a = Angle.parse("1/3 pi")
        assert math.isclose(float(a.mp_radians()), a.radians, rel_tol=1e-15)


class TestSqrtTwo:
    @given(ring_elements, ring_elements)
    def test_mul_matches_floats(self, x, y):
        assert math.isclose(
            float(x * y), float(x) * float(y), rel_tol=1e-12, abs_tol=1e-9
        )

    @given(ring_elements, ring_elements, ring_elements)
    @settings(max_examples=60)
    def test_ring_axioms(self, x, y, z):
        assert x * (y + z) == x * y + x * z
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x

    def test_sqrt2_squares_to_two(self):
        r = SqrtTwo(0, 1)
        assert r * r == SqrtTwo(2, 0)

    def test_mixed_scalar_ops(self):
        assert SqrtTwo(1, 1) + 1 == SqrtTwo(2, 1)
        assert 2 * SqrtTwo(1, 0) == SqrtTwo(2, 0)
        assert 1 - SqrtTwo(0, 1) == SqrtTwo(1, -1)

    def test_float_value(self):
        assert math.isclose(float(SqrtTwo(Fraction(1, 2), Fraction(1, 2))),
                            0.5 + 0.5 * math.sqrt(2))


class TestSqrtTwoComplex:
    def test_abs_sq_of_unit(self):
        half_rt2 = SqrtTwo(0, Fraction(1, 2))
        z = SqrtTwoComplex(half_rt2, half_rt2)
        assert z.abs_sq() == SqrtTwo(1, 0)

    def test_conjugate_product_is_abs_sq(self):
        z = SqrtTwoComplex(SqrtTwo(1, 2), SqrtTwo(Fraction(1, 3), -1))
        w = z * z.conjugate()
        assert w.im.is_zero
        assert w.re == z.abs_sq()

    @given(st.integers(min_value=0, max_value=24))
    @settings(max_examples=25)
    def test_pow_matches_complex(self, n):
        z = SqrtTwoComplex(SqrtTwo(Fraction(1, 2), 0), SqrtTwo(0, Fraction(1, 2)))
        exact = z**n
        via_floats = z.to_complex() ** n
        assert abs(exact.to_complex() - via_floats) < 1e-9

    def test_i_unit(self):
        i = SqrtTwoComplex.i_unit()
        assert i * i == -SqrtTwoComplex.one()

    @pytest.mark.parametrize("n1", range(8))
    @pytest.mark.parametrize("n2", range(8))
    def test_cross_phase_spellings_agree(self, n1, n2):
        # the closed form's beta <- alpha phase e^{-i phi1} chi^e equals
        # e^{i phi2} chi^{e-1}, since chi = e^{i(phi1 + phi2)}
        phi1, phi2 = Angle.from_pi_fraction(n1, 4), Angle.from_pi_fraction(n2, 4)
        chi = (phi1 + phi2).exp_i_exact()
        for e in range(1, 5):
            assert phi1.exp_i_exact().conjugate() * chi**e == (
                phi2.exp_i_exact() * chi ** (e - 1)
            )


# Reference model: a + b sqrt2 as a pair of Fractions, and a complex value
# as a pair of such pairs, with the ring operations written out by hand.
def _m_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _m_neg(x):
    return (-x[0], -x[1])


def _m_mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _mc_add(z, w):
    return (_m_add(z[0], w[0]), _m_add(z[1], w[1]))


def _mc_neg(z):
    return (_m_neg(z[0]), _m_neg(z[1]))


def _mc_mul(z, w):
    re = _m_add(_m_mul(z[0], w[0]), _m_neg(_m_mul(z[1], w[1])))
    im = _m_add(_m_mul(z[0], w[1]), _m_mul(z[1], w[0]))
    return (re, im)


def _model(x):
    if isinstance(x, SqrtTwoComplex):
        return (_model(x.re), _model(x.im))
    return (x.a, x.b)


wide_fractions = st.fractions(max_denominator=2**70) | st.builds(
    Fraction, st.integers(-(2**90), 2**90), st.integers(1, 2**90)
)
pairs = st.tuples(fractions, fractions)
complex_pairs = st.tuples(pairs, pairs)
scalars = st.integers(-50, 50) | fractions


def _ring(pair):
    return SqrtTwo(*pair)


def _complex(pair):
    return SqrtTwoComplex(_ring(pair[0]), _ring(pair[1]))


class TestRingAgainstFractionPairs:
    @given(pairs, pairs)
    def test_real_ops(self, x, y):
        rx, ry = _ring(x), _ring(y)
        assert _model(rx + ry) == _m_add(x, y)
        assert _model(rx - ry) == _m_add(x, _m_neg(y))
        assert _model(rx * ry) == _m_mul(x, y)
        assert _model(-rx) == _m_neg(x)

    @given(pairs, scalars)
    def test_real_ops_with_rationals(self, x, n):
        rx, m = _ring(x), (Fraction(n), Fraction(0))
        assert _model(rx + n) == _model(n + rx) == _m_add(x, m)
        assert _model(rx - n) == _m_add(x, _m_neg(m))
        assert _model(n - rx) == _m_add(m, _m_neg(x))
        assert _model(rx * n) == _model(n * rx) == _m_mul(x, m)

    @given(complex_pairs, complex_pairs)
    def test_complex_ops(self, z, w):
        cz, cw = _complex(z), _complex(w)
        assert _model(cz + cw) == _mc_add(z, w)
        assert _model(cz - cw) == _mc_add(z, _mc_neg(w))
        assert _model(cz * cw) == _mc_mul(z, w)
        assert _model(-cz) == _mc_neg(z)
        assert _model(cz.conjugate()) == (z[0], _m_neg(z[1]))
        assert _model(cz.abs_sq()) == _m_add(_m_mul(z[0], z[0]), _m_mul(z[1], z[1]))

    @given(complex_pairs, pairs, scalars)
    @settings(max_examples=50)
    def test_complex_ops_with_real_operands(self, z, x, n):
        cz, rx = _complex(z), _ring(x)
        zero = (Fraction(0), Fraction(0))
        for other, m in ((rx, (x, zero)), (n, ((Fraction(n), Fraction(0)), zero))):
            assert _model(cz + other) == _model(other + cz) == _mc_add(z, m)
            assert _model(cz - other) == _mc_add(z, _mc_neg(m))
            assert _model(other - cz) == _mc_add(m, _mc_neg(z))
            assert _model(cz * other) == _model(other * cz) == _mc_mul(z, m)

    @given(pairs, st.integers(0, 9))
    @settings(max_examples=50)
    def test_real_pow(self, x, n):
        want = (Fraction(1), Fraction(0))
        for _ in range(n):
            want = _m_mul(want, x)
        assert _model(_ring(x) ** n) == want

    def test_real_pow_rejects_negative_and_non_int_exponents(self):
        with pytest.raises(TypeError):
            SqrtTwo(1, 1) ** -1
        with pytest.raises(TypeError):
            SqrtTwo(1, 1) ** Fraction(1, 2)

    @given(complex_pairs, st.integers(0, 9))
    @settings(max_examples=50)
    def test_pow(self, z, n):
        want = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))
        for _ in range(n):
            want = _mc_mul(want, z)
        assert _model(_complex(z) ** n) == want

    @given(pairs, st.integers(1, 1000))
    def test_unreduced_inputs_give_one_value(self, x, k):
        a, b = x
        spread = SqrtTwo(
            Fraction(a.numerator * k, a.denominator * k),
            Fraction(b.numerator * k, b.denominator * k),
        )
        assert spread == _ring(x) and hash(spread) == hash(_ring(x))

    def test_unreduced_fractions_by_hand(self):
        assert SqrtTwo(Fraction(2, 4), 0) == SqrtTwo(Fraction(1, 2), 0)
        assert hash(SqrtTwo(Fraction(2, 4), 0)) == hash(SqrtTwo(Fraction(1, 2), 0))

    @given(pairs, pairs, complex_pairs, complex_pairs)
    @settings(max_examples=50)
    def test_equal_values_by_different_routes(self, x, y, z, w):
        rx, ry, cz, cw = _ring(x), _ring(y), _complex(z), _complex(w)
        assert (rx + ry) - ry == rx and hash((rx + ry) - ry) == hash(rx)
        back = (cz + cw) - cw
        assert back == cz and hash(back) == hash(cz)
        built = _ring(z[0]) + _ring(z[1]) * SqrtTwoComplex.i_unit()
        assert built == cz and hash(built) == hash(cz)
        assert cz.re == _ring(z[0]) and cz.im == _ring(z[1])

    def test_equality_is_same_type_only(self):
        assert SqrtTwo(1, 0) != 1
        assert SqrtTwo(1, 0) != Fraction(1)
        assert SqrtTwoComplex.one() != SqrtTwo(1, 0)
        assert SqrtTwoComplex.one() != 1

    @given(wide_fractions, wide_fractions)
    def test_float_is_bit_identical(self, a, b):
        x = SqrtTwo(a, b)
        assert float(x) == float(a) + float(b) * math.sqrt(2)
        z = SqrtTwoComplex(SqrtTwo(b, a), x)
        assert z.to_complex() == complex(float(z.re), float(z.im))
        assert z.to_complex() == complex(
            float(b) + float(a) * math.sqrt(2), float(a) + float(b) * math.sqrt(2)
        )

    @given(pairs)
    def test_repr_format(self, x):
        assert repr(_ring(x)) == f"SqrtTwo({x[0]}, {x[1]})"

    def test_repr_strings(self):
        assert repr(SqrtTwo(Fraction(1, 2), 0)) == "SqrtTwo(1/2, 0)"
        assert repr(SqrtTwo(-3, Fraction(-5, 8))) == "SqrtTwo(-3, -5/8)"
        assert (
            repr(SqrtTwoComplex(SqrtTwo(0, Fraction(1, 2)), -1))
            == "SqrtTwoComplex(SqrtTwo(0, 1/2), SqrtTwo(-1, 0))"
        )
        assert repr(SqrtTwoComplex.zero()) == (
            "SqrtTwoComplex(SqrtTwo(0, 0), SqrtTwo(0, 0))"
        )

    def test_readers_are_fractions_and_ring_elements(self):
        z = SqrtTwoComplex(SqrtTwo(Fraction(1, 6), 2), Fraction(-3, 4))
        assert isinstance(z.re.a, Fraction) and z.re.a == Fraction(1, 6)
        assert z.re.b == 2 and z.im == SqrtTwo(Fraction(-3, 4), 0)
        assert isinstance(z.im, SqrtTwo) and z.im.b == 0


class TestPrecision:
    def test_guard_bits_default(self):
        assert arithmetic.GUARD_BITS == 64

    def test_precision_floor(self):
        assert precision_for(10) >= 53
        assert precision_for(1000) == 1000 + 64


numerators = st.integers(-(2**80), 2**80)
dyadics = st.builds(DyadicComplex, numerators, numerators, numerators, numerators,
                    st.integers(0, 90))


def _value(z: DyadicComplex, d: int = 1) -> SqrtTwoComplex:
    return SqrtTwoComplex.from_numerators(z.p, z.q, z.r, z.s, d << z.k)


class TestDyadicComplex:
    # numerators over 2^k that no operation reduces: each operation must
    # give the value the reduced ring gives
    @given(dyadics, dyadics, st.integers(-50, 50))
    def test_ops_match_the_ring(self, x, y, n):
        rx, ry = _value(x), _value(y)
        assert _value(x + y) == rx + ry
        assert _value(x - y) == rx - ry
        assert _value(x * y) == rx * ry
        assert _value(-x) == -rx
        assert _value(x.conjugate()) == rx.conjugate()
        assert _value(x * n) == _value(n * x) == rx * n

    def test_operations_take_no_gcd(self):
        half = DyadicComplex(2, 0, 0, 0, 2)
        square = half * half
        assert (square.p, square.q, square.r, square.s, square.k) == (4, 0, 0, 0, 4)
        total = half + DyadicComplex(0, 1, 0, 0, 0)
        assert (total.p, total.q, total.r, total.s, total.k) == (2, 4, 0, 0, 2)

    @given(complex_pairs)
    def test_of_reads_dyadic_ring_elements(self, z):
        ring = _complex(z)
        if ring.denominator & (ring.denominator - 1):
            with pytest.raises(ValueError):
                DyadicComplex.of(ring)
        else:
            assert _value(DyadicComplex.of(ring)) == ring

    @given(complex_pairs, st.integers(1, 10**6))
    def test_numerators_round_trip(self, z, m):
        ring = _complex(z)
        d = ring.denominator * m
        p, q, r, s = ring.numerators(d)
        assert [Fraction(n, d) for n in (p, q, r, s)] == [
            ring.re.a, ring.re.b, ring.im.a, ring.im.b
        ]
        assert SqrtTwoComplex.from_numerators(p, q, r, s, d) == ring

    def test_numerators_need_a_multiple_of_the_denominator(self):
        third = SqrtTwoComplex.from_rational(Fraction(1, 3))
        for d in (2, 4, 0, -3):
            with pytest.raises(ValueError):
                third.numerators(d)
        assert third.numerators(6) == (2, 0, 0, 0)
