import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_params
from qwalk.arithmetic import SqrtTwo, SqrtTwoComplex
from qwalk.core import CoinParams
from qwalk.horner import (
    f_explicit,
    f_sequence,
    horner_basis,
    matrix_power,
    partitions,
    quad_coeffs,
    quartic_coeffs,
    superop,
    superop_power,
    u_k,
    u_k_power,
)


class TestQuadCoeffs:
    def test_matches_trace_and_det(self):
        rng = random.Random(3)
        for _ in range(25):
            params = random_params(rng)
            k = rng.uniform(-math.pi, math.pi)
            u = u_k(params, k)
            c0, c1 = quad_coeffs(params, k)
            assert c0 == pytest.approx(np.trace(u), abs=1e-14)
            assert c1 == pytest.approx(-np.linalg.det(u), abs=1e-14)

    def test_c1_unimodular(self):
        rng = random.Random(5)
        for _ in range(25):
            _, c1 = quad_coeffs(random_params(rng), rng.uniform(-4, 4))
            assert abs(c1) == pytest.approx(1.0)

    def test_eigenvalues_satisfy_quadratic(self):
        rng = random.Random(7)
        for _ in range(10):
            params = random_params(rng)
            k = rng.uniform(-math.pi, math.pi)
            c0, c1 = quad_coeffs(params, k)
            for lam in np.linalg.eigvals(u_k(params, k)):
                assert lam * lam - c0 * lam - c1 == pytest.approx(
                    0, abs=1e-12
                )


class TestFSequence:
    """The checks that read the same at every order r, run at r = 2 and 4."""

    @pytest.mark.parametrize(
        "coeffs, head",
        [((2, 3), [1, 2, 7, 20, 61, 182]), ((1, 1, 1, 1), [1, 1, 2, 4, 8, 15])],
        ids=["2", "4"],
    )
    def test_boundary(self, coeffs, head):
        # f_{-1} = 0, f_0 = 1, f_1 = c0; (1, 1, 1, 1) is tetranacci with
        # this seeding
        assert f_explicit(coeffs, -1) == 0
        assert [f_explicit(coeffs, t) for t in range(6)] == head
        assert f_sequence(coeffs, 5) == head

    @pytest.mark.parametrize(
        "r, bound, t_max", [(2, 3, 50), (4, 2, 40)], ids=["2", "4"]
    )
    @given(data=st.data())
    def test_explicit_equals_recurrence_integers(self, r, bound, t_max, data):
        # Integer coefficients keep both paths in exact arithmetic, so
        # equality is literal, not approximate.
        c = data.draw(st.tuples(*[st.integers(-bound, bound)] * r))
        t = data.draw(st.integers(min_value=0, max_value=t_max))
        assert f_explicit(c, t) == f_sequence(c, t)[t]


class TestFQuad:
    def test_fibonacci_convention(self):
        # c0 = c1 = 1 turns the recurrence into plain Fibonacci with
        # f_0 = f_1 = 1.
        seq = f_sequence((1, 1), 7)
        assert seq == [1, 1, 2, 3, 5, 8, 13, 21]

    def test_alternating_convention(self):
        seq = f_sequence((0, 1), 6)
        assert seq == [1, 0, 1, 0, 1, 0, 1]

    def test_explicit_equals_recurrence_complex(self):
        rng = random.Random(11)
        for _ in range(30):
            c = (
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            t = rng.randint(0, 30)
            seq = f_sequence(c, t)
            assert f_explicit(c, t) == pytest.approx(seq[t], abs=1e-10, rel=1e-10)

    def test_explicit_equals_recurrence_exact_complex_ring(self):
        # both f paths are scalar-generic: feeding ring elements keeps all
        # 50 steps exact, so == is literal equality
        rng = random.Random(12)
        for _ in range(5):
            c = (
                SqrtTwoComplex(
                    SqrtTwo(Fraction(rng.randint(-2, 2), 4),
                            Fraction(rng.randint(-2, 2), 4)),
                    SqrtTwo(Fraction(rng.randint(-2, 2), 4),
                            Fraction(rng.randint(-2, 2), 4)),
                ),
                SqrtTwoComplex(
                    SqrtTwo(Fraction(rng.randint(-2, 2), 4),
                            Fraction(rng.randint(-2, 2), 4)),
                    SqrtTwo(Fraction(rng.randint(-2, 2), 4),
                            Fraction(rng.randint(-2, 2), 4)),
                ),
            )
            t = rng.randint(40, 50)
            assert f_explicit(c, t) == f_sequence(c, t)[t]


class TestUkPower:
    def test_t_zero_is_identity(self, hadamard):
        assert u_k_power(hadamard, 0.4, 0) == pytest.approx(np.eye(2))

    def test_t_one_is_u_k(self, hadamard):
        k = -1.2
        assert u_k_power(hadamard, k, 1) == pytest.approx(u_k(hadamard, k))

    def test_negative_t_rejected(self, hadamard):
        with pytest.raises(ValueError):
            u_k_power(hadamard, 0.0, -2)

    def test_matches_repeated_multiplication(self):
        rng = random.Random(13)
        for _ in range(40):
            params = random_params(rng)
            k = rng.uniform(-math.pi, math.pi)
            t = rng.randint(0, 30)
            expected = np.linalg.matrix_power(u_k(params, k), t)
            got = u_k_power(params, k, t)
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_array_of_momenta_equals_scalar_stack(self):
        # one call over a (3, 4) array of momenta takes the closed form of
        # f_t for every mode at once; it must equal the scalar calls
        # stacked. The vectorised sin, cos and exp may round differently in
        # the last bit, and sin((t+1) phi) carries that in phi about t
        # times over, hence t <= 20.
        rng = random.Random(31)
        for _ in range(8):
            params = random_params(rng)
            ks = np.array([rng.uniform(-4, 4) for _ in range(12)]).reshape(3, 4)
            for t in (0, 1, rng.randint(2, 20)):
                got = u_k_power(params, ks, t)
                want = [u_k_power(params, float(k), t) for k in ks.ravel()]
                assert got.shape == (3, 4, 2, 2)
                assert np.max(np.abs(got - np.reshape(want, got.shape))) <= 1e-14
            got = u_k(params, ks)
            want = [u_k(params, float(k)) for k in ks.ravel()]
            assert np.max(np.abs(got - np.reshape(want, got.shape))) <= 1e-14

    def test_unitary_at_large_t(self):
        rng = random.Random(15)
        for _ in range(10):
            params = random_params(rng)
            u = u_k_power(params, rng.uniform(-3, 3), 50)
            assert u @ u.conj().T == pytest.approx(np.eye(2), abs=1e-11)


def _u_k_power_50_digits(params, k: float, t: int) -> np.ndarray:
    """u_k^t = f_t I + f_{t-1} (u_k - c0 I) with f_m = r^m sin((m+1) phi) /
    sin(phi) at 50 digits, from the float angles and momentum taken as
    exact: phi unfolded, by atan2, and the limit m + 1 where sin(phi) = 0."""
    with mpmath.workdps(50):
        th, phi1, phi2 = (a.mp_radians() for a in (params.theta, params.phi1, params.phi2))
        k, psi = mpmath.mpf(k), (phi1 + phi2) / 2
        cos, sin = mpmath.cos(th), mpmath.sin(th)
        sin_phi = mpmath.sqrt(sin**2 + (cos * mpmath.cos(k + psi)) ** 2)
        phi = mpmath.atan2(sin_phi, -cos * mpmath.sin(k + psi))
        r = 1j * mpmath.expj(psi)

        def f(m):
            u = mpmath.sin((m + 1) * phi) / sin_phi if sin_phi else m + 1
            return r**m * u

        e1, e2 = mpmath.expj(phi1), mpmath.expj(phi2)
        u = mpmath.diag([mpmath.expj(-k), mpmath.expj(k)]) * mpmath.matrix(
            [[cos, e1 * sin], [e2 * sin, -e1 * e2 * cos]]
        )
        power = f(t) * mpmath.eye(2) + f(t - 1) * (u - (u[0, 0] + u[1, 1]) * mpmath.eye(2))
        return np.array(power.tolist(), dtype=complex)


class TestUkPowerClosedForm:
    """u_k_power takes f_t in closed form; held to the same form at 50
    digits. The bound is per step, (t + 1) 3e-15, fixed once from a
    measurement: over these cases the worst was (t + 1) 1.4e-15, while the
    t-step float recurrence it replaced was 4.2e-10 off at t = 2000 near
    sin(phi_k) = 0, about (t + 1) 2e-13."""

    PER_STEP = 3e-15

    def _assert_close(self, params, k, t):
        err = np.max(np.abs(u_k_power(params, k, t) - _u_k_power_50_digits(params, k, t)))
        assert err <= (t + 1) * self.PER_STEP, (params, k, t, err)

    def test_random_coins_up_to_t2000(self):
        rng = random.Random(37)
        for t in [0, 1, 2, 2000] + [rng.randint(3, 2000) for _ in range(36)]:
            self._assert_close(random_params(rng), rng.uniform(-2 * math.pi, 2 * math.pi), t)

    @pytest.mark.parametrize(
        "theta", [0.0, 1e-9, math.pi / 2, math.pi - 1e-9, math.pi],
        ids=["0", "1e-9", "pi/2", "pi-1e-9", "pi"],
    )
    def test_near_sin_phi_zero(self, theta):
        # sin(phi_k) = sqrt(sin^2 theta + cos^2 theta cos^2(k + psi)) goes
        # to 0 at theta in {0, pi} and k + psi = +-pi/2, where f_m tends
        # to (m + 1) r^m (+-1)^m; both signs of cos(phi_k) are taken, so
        # both sides of the fold
        rng = random.Random(41)
        params = CoinParams.make(theta, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        psi = params.phi_sum.radians / 2
        for edge in (math.pi / 2 - psi, -math.pi / 2 - psi):
            for dk in (0.0, 1e-15, 1e-12, -1e-9, 1e-6, -1e-4, 1 / 2000, -3 / 2000, 0.01):
                for t in (1, 2, 21, 200, 1999, 2000):
                    self._assert_close(params, edge + dk, t)


class TestSuperop:
    def test_cayley_hamilton(self):
        rng = random.Random(17)
        for _ in range(15):
            k, kp = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
            ell = superop(k, kp)
            c0, c1, c2, c3 = quartic_coeffs(k, kp)
            lhs = np.linalg.matrix_power(ell, 4)
            rhs = (
                c0 * np.linalg.matrix_power(ell, 3)
                + c1 * (ell @ ell)
                + c2 * ell
                + c3 * np.eye(4)
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_coeffs_match_numpy_charpoly(self):
        rng = random.Random(19)
        for _ in range(15):
            k, kp = rng.uniform(-3, 3), rng.uniform(-3, 3)
            c = quartic_coeffs(k, kp)
            # numpy returns monic coefficients [1, a3, a2, a1, a0] for
            # lambda^4 + a3 l^3 + ...; ours are the negated tail.
            monic = np.poly(superop(k, kp))
            assert monic[1:] == pytest.approx([-x for x in c], abs=1e-12)

    def test_depends_only_on_delta_and_sigma(self):
        # shifting both momenta by pi keeps delta and moves sigma by 2 pi,
        # so the map is unchanged; shifting by anything else is visible.
        base = superop(0.4, 0.1)
        assert np.allclose(superop(0.4 + math.pi, 0.1 + math.pi), base)
        assert not np.allclose(superop(0.4 + 0.83, 0.1 + 0.83), base)

    def test_diagonal_pair_is_coin_only(self):
        # k = k' kills the shift contribution: delta = 0 block is the
        # identity on (I, Z) and a rotation mixing (X, Y).
        ell = superop(0.7, 0.7)
        assert ell[0, 0] == pytest.approx(1.0)
        assert ell[3, 3] == pytest.approx(0.0)
        assert abs(np.linalg.det(ell)) == pytest.approx(1.0)


class TestQuarticPartitions:
    def test_small_values(self):
        assert partitions(0, 4) == [(0, 0, 0, 0)]
        assert partitions(1, 4) == [(1, 0, 0, 0)]
        assert partitions(4, 4) == [
            (4, 0, 0, 0),
            (2, 1, 0, 0),
            (1, 0, 1, 0),
            (0, 2, 0, 0),
            (0, 0, 0, 1),
        ]

    def test_quadratic_order_is_descending_in_h1(self):
        for t in range(12):
            assert partitions(t, 2) == [(t - 2 * h, h) for h in range(t // 2 + 1)]
        assert partitions(-1, 2) == []

    @given(st.integers(min_value=0, max_value=24))
    def test_weights_sum_and_uniqueness(self, m):
        parts = partitions(m, 4)
        assert len(set(parts)) == len(parts)
        for h0, h1, h2, h3 in parts:
            assert h0 >= 0 and h1 >= 0 and h2 >= 0 and h3 >= 0
            assert h0 + 2 * h1 + 3 * h2 + 4 * h3 == m


class TestFQuartic:
    def test_explicit_equals_recurrence_walk_coeffs_exact(self):
        # Walk coefficients are real floats, i.e. dyadic rationals; lifting
        # them to Fraction runs both scalar-generic paths in exact
        # arithmetic, where equality is literal even at t = 50. (A plain
        # double explicit sum cancels catastrophically well before that.)
        rng = random.Random(23)
        for _ in range(10):
            fc = quartic_coeffs(rng.uniform(-3, 3), rng.uniform(-3, 3))
            c = tuple(Fraction(x.real) for x in fc)
            t = rng.randint(30, 50)
            assert f_explicit(c, t) == f_sequence(c, t)[t]

    def test_explicit_equals_recurrence_walk_coeffs_double(self):
        # pure double agrees while t is small enough that cancellation in
        # the explicit sum stays below the tolerance
        rng = random.Random(27)
        for _ in range(20):
            c = quartic_coeffs(rng.uniform(-3, 3), rng.uniform(-3, 3))
            t = rng.randint(0, 10)
            seq = f_sequence(c, t)
            assert f_explicit(c, t) == pytest.approx(seq[t], abs=1e-12, rel=1e-12)


def _char_coeffs(m: np.ndarray) -> tuple:
    # numpy's monic characteristic polynomial [1, a_1, ..., a_r] has
    # M^r = -a_1 M^{r-1} - ... - a_r I
    return tuple(-np.poly(m)[1:])


class TestMatrixPower:
    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_any_order_matches_repeated_multiplication(self, r):
        rng = np.random.default_rng(r)
        for _ in range(10):
            m = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
            m /= 2 * math.sqrt(r)
            basis = horner_basis(m, _char_coeffs(m))
            assert len(basis) == r
            for t in range(13):
                got = matrix_power(m, _char_coeffs(m), t)
                want = np.linalg.matrix_power(m, t)
                assert np.max(np.abs(got - want)) < 1e-10, (r, t)

    def test_stack_equals_each_matrix(self):
        # a (3, 4) stack of 3x3 matrices, with one coefficient per matrix
        rng = np.random.default_rng(41)
        ms = rng.normal(size=(3, 4, 3, 3)) / 3
        per = [_char_coeffs(m) for m in ms.reshape(-1, 3, 3)]
        coeffs = tuple(np.reshape([c[j] for c in per], (3, 4)) for j in range(3))
        for t in (0, 1, 2, 9):
            got = matrix_power(ms, coeffs, t)
            assert got.shape == ms.shape
            for i, m in enumerate(ms.reshape(-1, 3, 3)):
                want = matrix_power(m, per[i], t)
                assert np.max(np.abs(got.reshape(-1, 3, 3)[i] - want)) < 1e-14

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            matrix_power(np.eye(3), (1, 0, 0), -1)


class TestSuperopPower:
    def test_t_zero_and_one(self):
        assert superop_power(0.3, -0.9, 0) == pytest.approx(np.eye(4))
        assert superop_power(0.3, -0.9, 1) == pytest.approx(superop(0.3, -0.9))

    def test_basis_leading_term_is_identity(self):
        basis = horner_basis(superop(1.1, 0.2), quartic_coeffs(1.1, 0.2))
        assert basis[0] == pytest.approx(np.eye(4))

    def test_matches_repeated_multiplication(self):
        rng = random.Random(29)
        for _ in range(30):
            k, kp = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
            t = rng.randint(0, 30)
            expected = np.linalg.matrix_power(superop(k, kp), t)
            got = superop_power(k, kp, t)
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            superop_power(0.0, 0.0, -1)
