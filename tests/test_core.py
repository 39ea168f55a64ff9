import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.core import (
    CoinParams,
    Distribution,
    MixedLocalizedState,
    PureState,
    coin_matrix,
    coin_matrix_exact,
    max_pointwise_difference,
    pauli_compose,
    pauli_decompose,
    total_variation,
    validate_state,
)
from qwalk.verify import evaluate

angles = st.floats(
    min_value=0.0, max_value=2 * math.pi, allow_nan=False, allow_infinity=False
)


class TestCoinParams:
    @given(angles, angles, angles)
    @settings(max_examples=80)
    def test_coin_matrix_unitary(self, theta, phi1, phi2):
        c = coin_matrix(CoinParams.make(theta, phi1, phi2))
        assert np.allclose(c @ c.conj().T, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("method", ["direct", "spectral", "closed-form"])
    def test_constructor_parses_bare_angles(self, method):
        # CoinParams(0.7) built, then failed in every route with AttributeError
        params = CoinParams(0.7, "1/4 pi", 2)
        want = CoinParams.make(0.7, "1/4 pi", 2)
        assert params == want and hash(params) == hash(want)
        init = PureState.plus_i().to_float()
        got = evaluate(method, init, params, 9)
        assert got.probs == evaluate(method, init, want, 9).probs

    def test_hadamard_matrix(self):
        c = coin_matrix(CoinParams.hadamard())
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        assert np.allclose(c, h, atol=1e-15)

    def test_chi_is_phase_sum(self):
        p = CoinParams.make(0.3, 0.7, 1.1)
        assert np.isclose(p.chi, np.exp(1j * (0.7 + 1.1)))

    def test_exact_matrix_matches_float(self):
        p = CoinParams.hadamard()
        exact = coin_matrix_exact(p)
        floats = coin_matrix(p)
        for i in range(2):
            for j in range(2):
                assert abs(exact[i][j].to_complex() - floats[i, j]) < 1e-15

    def test_exact_matrix_rejects_off_grid(self):
        with pytest.raises(ValueError):
            coin_matrix_exact(CoinParams.make(0.3, 0.0, 0.0))

    def test_exact_capable_flags(self):
        assert CoinParams.hadamard().exact_capable
        assert not CoinParams.make(0.3, 0.0, 0.0).exact_capable

    def test_chi_exact_hadamard(self):
        chi = CoinParams.hadamard().chi_exact()
        assert chi.to_complex() == 1 + 0j


class TestPureState:
    def test_localized_and_norm(self):
        s = PureState.localized(0, 1.0, 0.0)
        assert s.support == (0,)
        assert math.isclose(s.norm_sq(), 1.0)

    def test_plus_i_is_exact_and_normalized(self):
        s = PureState.plus_i()
        assert s.exact
        assert float(s.norm_sq_exact()) == 1.0

    def test_rejects_mixed_kinds(self):
        from qwalk.arithmetic import SqrtTwoComplex

        with pytest.raises(ValueError):
            PureState(
                {
                    0: (1.0 + 0j, 0j),
                    1: (SqrtTwoComplex.one(), SqrtTwoComplex.zero()),
                }
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PureState({})

    @pytest.mark.parametrize(
        "amplitudes",
        [{1.5: (1.0, 0.0)}, {1.5: (0.6, 0.0), 1: (0.0, 0.8)}, {"2": (1.0, 0.0)}],
        ids=["float", "float-beside-int", "string"],
    )
    def test_rejects_sites_that_are_not_integers(self, amplitudes):
        # int(x) made 1.5 site 1, kept one of the sites 1.5 and 1, and read
        # "2" as site 2
        with pytest.raises(TypeError):
            PureState(amplitudes)

    def test_numpy_integer_sites_read_as_int(self):
        s = PureState({np.int64(-2): (1.0, 0.0), np.int32(3): (0.0, 1.0)})
        assert s.support == (-2, 3)
        assert all(type(x) is int for x in s.support)

    def test_amplitude_returns_typed_zero_outside_support(self):
        s = PureState.localized(0, 1.0, 0.0)
        a, b = s.amplitude(5)
        assert a == 0j and b == 0j
        e = PureState.plus_i().amplitude(5)
        assert e[0].is_zero and e[1].is_zero

    def test_span(self):
        s = PureState({-2: (1.0 + 0j, 0j), 3: (0j, 1.0 + 0j)})
        assert s.span == (-2, 3)
        assert math.isclose(s.norm_sq(), 2.0)

    def test_to_float_preserves_values(self):
        s = PureState.plus_i().to_float()
        assert not s.exact
        a, b = s.amplitude(0)
        assert abs(a - 1 / math.sqrt(2)) < 1e-15
        assert abs(b - 1j / math.sqrt(2)) < 1e-15


class TestPauli:
    @given(
        st.floats(-1, 1),
        st.floats(-0.5, 0.5),
        st.floats(-0.5, 0.5),
        st.floats(-0.5, 0.5),
    )
    @settings(max_examples=60)
    def test_compose_decompose_roundtrip(self, r0, r1, r2, r3):
        rho = pauli_compose((r0, r1, r2, r3))
        back = pauli_decompose(rho)
        assert np.allclose(back, (r0, r1, r2, r3), atol=1e-12)

    def test_decompose_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            pauli_decompose(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))

    def test_known_decomposition(self):
        rho = np.array([[0.75, 0.1 - 0.2j], [0.1 + 0.2j, 0.25]])
        r0, r1, r2, r3 = pauli_decompose(rho)
        assert np.allclose((r0, r1, r2, r3), (0.5, 0.1, 0.2, 0.25))


class TestMixedLocalizedState:
    def test_from_pauli_roundtrip(self):
        s = MixedLocalizedState.from_pauli(0.5, 0.1, -0.2, 0.3)
        assert np.allclose(pauli_decompose(s.rho), s.pauli)

    def test_from_rho(self):
        rho = np.array([[0.5, 0.5], [0.5, 0.5]])
        s = MixedLocalizedState.from_rho(rho)
        assert np.allclose(s.pauli, (0.5, 0.5, 0.0, 0.0))

    def test_construction_is_permissive_validation_flags(self):
        # Bad states construct fine (diagnostics never abort); the
        # validator and every evolver reject them.
        bad_trace = MixedLocalizedState.from_pauli(0.7, 0.0, 0.0, 0.0)
        diag = validate_state(bad_trace)
        assert not diag.valid
        assert any(code == "trace" for code, _, _ in diag.violations)

    def test_bloch_ball_psd_flagged(self):
        s = MixedLocalizedState.from_pauli(0.5, 0.5, 0.5, 0.5)
        diag = validate_state(s)
        assert not diag.valid
        assert any(code == "psd" for code, _, _ in diag.violations)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_component_flagged(self, bad):
        # NaN passes every comparison-based check, so it needs its own
        s = MixedLocalizedState.from_pauli(0.5, bad, 0.0, 0.0)
        diag = validate_state(s)
        assert not diag.valid
        assert any(code == "finite" and "r1" in msg for code, msg, _ in diag.violations)

    def test_bloch_norm(self):
        s = MixedLocalizedState.from_pauli(0.5, 0.3, 0.0, 0.4)
        assert math.isclose(s.bloch_norm, 0.5)


class TestDistribution:
    def test_full_span_with_zeros(self):
        d = Distribution({0: 0.5, 2: 0.5, 1: 0.0, -1: 0.0, -2: 0.0}, t=2, method="x")
        assert d.positions == (-2, -1, 0, 1, 2)
        assert d[1] == 0.0
        assert d[99] == 0.0
        assert d.total() == 1.0

    def test_carries_values_faithfully(self):
        # The type is a faithful carrier: the adjudicated wrong formula
        # must be representable to have its deviation measured, so
        # non-negativity is a producer invariant, not a constructor one.
        d = Distribution({0: 0.4, 1: -0.1}, t=1, method="x")
        assert d[1] == -0.1

    def test_total_variation(self):
        p = Distribution({0: 0.5, 1: 0.0, 2: 0.5}, t=2, method="a")
        q = Distribution({-2: 0.25, -1: 0.0, 0: 0.5, 1: 0.0, 2: 0.25}, t=2, method="b")
        assert math.isclose(total_variation(p, q), 0.25)
        assert math.isclose(max_pointwise_difference(p, q), 0.25)

    def test_tv_rejects_t_mismatch(self):
        p = Distribution({0: 1.0}, t=0, method="a")
        q = Distribution({0: 1.0}, t=1, method="b")
        with pytest.raises(ValueError):
            total_variation(p, q)
        with pytest.raises(ValueError):
            max_pointwise_difference(p, q)

    def test_pointwise_keeps_nan_anywhere(self):
        # max() drops a NaN that is not its first argument
        p = Distribution({-2: 0.25, 0: 0.5, 2: 0.25}, t=2, method="a")
        for x in (-2, 0, 2):
            q = Distribution({**p.probs, x: math.nan}, t=2, method="b")
            assert math.isnan(max_pointwise_difference(p, q))
            assert math.isnan(max_pointwise_difference(q, p))

    def test_tv_bounds(self):
        p = Distribution({0: 1.0}, t=0, method="a")
        q = Distribution({0: 0.0, 1: 0.0, 2: 1.0, -2: 0.0, -1: 0.0, 3: 0.0,
                          -3: 0.0}, t=0, method="b")
        assert math.isclose(total_variation(p, q), 1.0)


class TestValidateState:
    def test_good_pure_state(self):
        diag = validate_state(PureState.plus_i())
        assert diag.valid

    def test_flags_unnormalized_pure(self):
        s = PureState.localized(0, 2.0, 0.0)
        diag = validate_state(s)
        assert not diag.valid
        assert any("norm" in code for code, _, _ in diag.violations)

    def test_flags_nan_norm(self):
        diag = validate_state(PureState({0: (complex(math.nan, 0.0), 0j)}))
        assert not diag.valid
        assert [code for code, _, _ in diag.violations] == ["normalization"]

    def test_flags_zero_amplitudes(self):
        diag = validate_state(PureState({0: (0j, 0j)}))
        assert not diag.valid
        assert any(code == "normalization" for code, _, _ in diag.violations)
