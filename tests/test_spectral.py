import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_params, random_state
from qwalk.core import CoinParams, PureState, total_variation
from qwalk.direct import distribution_of, evolve_pure
from qwalk.spectral import (
    MomentumField,
    evolve_spectral,
    forward,
    inverse,
    propagate,
    ring_size,
    simulate,
)


class TestRingSize:
    @given(st.integers(min_value=0, max_value=200),
           st.integers(min_value=0, max_value=20))
    def test_smallest_odd_with_margin(self, t, r):
        n = ring_size(t, r)
        assert n % 2 == 1
        # strictly larger than the maximal occupied window 2(t+r)+1
        assert n >= 2 * (t + r) + 3

    def test_known_values(self):
        assert ring_size(0, 0) == 3
        assert ring_size(1, 0) == 5
        assert ring_size(40, 0) == 83


class TestTransformPair:
    def test_round_trip_identity(self):
        rng = random.Random(3)
        for _ in range(12):
            state = random_state(rng, radius=4)
            lo, hi = state.span
            back = inverse(forward(state, 21), lo, hi)
            for x in range(lo, hi + 1):
                a0, b0 = state.amplitude(x)
                a1, b1 = back.amplitude(x)
                assert a1 == pytest.approx(a0, abs=1e-13)
                assert b1 == pytest.approx(b0, abs=1e-13)

    def test_forward_matches_defining_sum(self):
        # alpha~_j = sum_x e^{+i k_j x} alpha_x, with negative sites, on the
        # smallest admissible ring and on an oversized one
        rng = random.Random(5)
        state = PureState({
            x: (complex(rng.gauss(0, 1), rng.gauss(0, 1)),
                complex(rng.gauss(0, 1), rng.gauss(0, 1)))
            for x in (-4, -3, -1, 0, 2)
        })
        for n in (9, 101):
            field = forward(state, n)
            ks = 2.0 * math.pi * np.arange(n) / n
            for comp, got in enumerate((field.alpha, field.beta)):
                want = sum(
                    np.exp(1j * ks * x) * pair[comp]
                    for x, pair in state.amplitudes.items()
                )
                assert np.max(np.abs(got - want)) < 1e-12

    def test_inverse_matches_defining_sum(self):
        # alpha_x = (1/n) sum_j e^{-i k_j x} alpha~_j on a window wider
        # than the ring, where the sum repeats with period n
        rng = np.random.default_rng(7)
        n = 7
        alpha, beta = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        field = MomentumField(n, alpha, beta)
        state = inverse(field, -12, 10)
        assert state.support == tuple(range(-12, 11))
        for x in range(-12, 11):
            phase = np.exp(-1j * field.ks * x)
            a, b = state.amplitude(x)
            assert abs(a - phase @ alpha / n) < 1e-13
            assert abs(b - phase @ beta / n) < 1e-13

    def test_even_ring_rejected(self):
        with pytest.raises(ValueError, match="must be odd"):
            forward(PureState.localized(0, 1.0, 0.0), 8)

    def test_too_small_ring_rejected(self):
        state = PureState.localized(5, 1.0, 0.0)
        with pytest.raises(ValueError, match="too small"):
            forward(state, 9)

    def test_exact_state_accepted(self, plus_i):
        field = forward(plus_i, 5)
        assert field.n == 5


class TestPropagate:
    def test_t_zero_is_identity(self, hadamard, plus_i):
        field = forward(plus_i, 7)
        out = propagate(field, hadamard, 0)
        assert np.allclose(out.alpha, field.alpha)
        assert np.allclose(out.beta, field.beta)

    def test_mode_norms_preserved(self, hadamard):
        rng = random.Random(7)
        field = forward(random_state(rng), 31)
        out = propagate(field, hadamard, 9)
        before = np.abs(field.alpha) ** 2 + np.abs(field.beta) ** 2
        after = np.abs(out.alpha) ** 2 + np.abs(out.beta) ** 2
        assert np.allclose(after, before)

    def test_bad_power_name(self, hadamard, plus_i):
        with pytest.raises(ValueError, match="unknown power method"):
            propagate(forward(plus_i, 5), hadamard, 1, power="schur")

    def test_negative_t(self, hadamard, plus_i):
        with pytest.raises(ValueError):
            propagate(forward(plus_i, 5), hadamard, -1)


class TestSimulate:
    def test_numpy_integer_t_reads_as_int(self, hadamard, plus_i):
        t = 64
        got = simulate(plus_i, hadamard, np.int64(t))
        assert type(got.t) is int and got.probs == simulate(plus_i, hadamard, t).probs
        state = evolve_spectral(plus_i, hadamard, np.int64(t))
        assert state.amplitudes == evolve_spectral(plus_i, hadamard, t).amplitudes

    def test_float_t_rejected(self, hadamard, plus_i):
        for route in (simulate, evolve_spectral):
            with pytest.raises(TypeError):
                route(plus_i, hadamard, 2.0)

    def test_matches_direct_hand_case(self, hadamard, plus_i):
        dist = simulate(plus_i, hadamard, 2)
        assert dist[-2] == pytest.approx(0.25, abs=1e-13)
        assert dist[0] == pytest.approx(0.5, abs=1e-13)
        assert dist[2] == pytest.approx(0.25, abs=1e-13)

    def test_matches_direct_random(self):
        rng = random.Random(11)
        for _ in range(15):
            params = random_params(rng)
            init = random_state(rng, radius=3)
            t = rng.randint(0, 20)
            ref = distribution_of(evolve_pure(init, params, t), t)
            got = simulate(init, params, t)
            assert total_variation(got, ref) < 1e-11

    def test_horner_power_equals_repeated(self):
        rng = random.Random(13)
        for _ in range(10):
            params = random_params(rng)
            init = random_state(rng, radius=2)
            t = rng.randint(0, 25)
            a = simulate(init, params, t, power="repeated")
            b = simulate(init, params, t, power="horner")
            assert a.positions == b.positions
            for x in a.positions:
                assert b[x] == pytest.approx(a[x], abs=1e-11)

    def test_asymmetric_t3(self, hadamard):
        dist = simulate(PureState.localized(0, 1.0, 0.0), hadamard, 3)
        assert dist[1] == pytest.approx(5 / 8, abs=1e-13)
        assert dist[-3] == pytest.approx(1 / 8, abs=1e-13)

    def test_oversized_ring_changes_nothing(self, hadamard, plus_i):
        t = 6
        small = simulate(plus_i, hadamard, t)
        big = simulate(plus_i, hadamard, t, n=101)
        for x in small.positions:
            assert big[x] == pytest.approx(small[x], abs=1e-12)

    def test_ring_too_small_for_t_rejected(self, hadamard, plus_i):
        # a 5-ring cannot hold the 13 sites of a 6-step walk; it used to
        # wrap silently, with probabilities summing to about 2.6
        with pytest.raises(ValueError, match="too small for 6 steps"):
            simulate(plus_i, hadamard, 6, n=5)
        with pytest.raises(ValueError, match="too small"):
            simulate(plus_i, hadamard, 6, n=11)

    def test_ring_at_the_bound_is_exact(self, hadamard, plus_i):
        # n = hi - lo + 2t + 1 is the smallest ring the window fits in
        t = 6
        want = simulate(plus_i, hadamard, t)
        got = simulate(plus_i, hadamard, t, n=2 * t + 1)
        for x in want.positions:
            assert got[x] == pytest.approx(want[x], abs=1e-15)

    def test_ring_bound_on_wide_support(self):
        # support -2..3 at t = 5 needs 16 sites; rings are odd, so 17 is
        # the smallest that runs and 15 is refused
        rng = random.Random(17)
        params = random_params(rng)
        init = PureState({x: (rng.random(), rng.random() * 1j) for x in (-2, 0, 3)})
        t = 5
        want = simulate(init, params, t)
        got = simulate(init, params, t, n=17)
        for x in want.positions:
            assert got[x] == pytest.approx(want[x], abs=1e-14)
        with pytest.raises(ValueError, match="needs 16 sites"):
            simulate(init, params, t, n=15)

    def test_memory_at_t600(self, hadamard, plus_i):
        # the f recurrence over all modes keeps only its last two terms;
        # holding the whole sequence would take about 12 MB here
        simulate(plus_i, hadamard, 2)
        tracemalloc.start()
        try:
            simulate(plus_i, hadamard, 600)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MB"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=12))
    def test_normalized_any_t(self, t):
        dist = simulate(PureState.plus_i(), CoinParams.hadamard(), t)
        assert math.isclose(dist.total(), 1.0, abs_tol=1e-12)
