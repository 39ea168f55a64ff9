import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_params, random_state
from qwalk.core import CoinParams, PureState, total_variation
from qwalk.direct import distribution_of, evolve_pure
from qwalk.horner import u_k
from qwalk.spectral import evolve_spectral, ring_size, simulate


def bound_ring(init: PureState, t: int) -> int:
    """The smallest odd ring that holds the window lo - t .. hi + t."""
    lo, hi = init.span
    return (hi - lo + 2 * t + 1) | 1


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
        # at t = 0 the pass is the forward sum followed by the inverse, on
        # the default ring, the smallest one and an oversized one
        rng = random.Random(3)
        params = random_params(rng)
        for _ in range(12):
            state = random_state(rng, radius=4)
            lo, hi = state.span
            for n in (None, bound_ring(state, 0), 21):
                back = evolve_spectral(state, params, 0, n=n)
                assert back.support == tuple(range(lo, hi + 1))
                for x in range(lo, hi + 1):
                    a0, b0 = state.amplitude(x)
                    a1, b1 = back.amplitude(x)
                    assert a1 == pytest.approx(a0, abs=1e-13)
                    assert b1 == pytest.approx(b0, abs=1e-13)

    def test_forward_matches_defining_sum(self):
        # the pass is alpha~_j = sum_x e^{+i k_j x} alpha_x, then u(-k_j)^t,
        # then alpha_x = (1/n) sum_j e^{-i k_j x} alpha~_j; with negative
        # sites, with sites away from the origin, on the smallest admissible
        # ring and on an oversized one
        rng = random.Random(5)
        params = random_params(rng)
        t = 3
        for sites in ((-4, -3, -1, 0, 2), (7, 8, 10)):
            state = PureState({
                x: (complex(rng.gauss(0, 1), rng.gauss(0, 1)),
                    complex(rng.gauss(0, 1), rng.gauss(0, 1)))
                for x in sites
            })
            lo, hi = state.span
            for n in (bound_ring(state, t), 101):
                ks = 2.0 * math.pi * np.arange(n) / n
                modes = sum(
                    np.exp(1j * ks * x)[:, None] * np.array(pair)
                    for x, pair in state.amplitudes.items()
                )
                modes = np.einsum(
                    "jab,jb->ja", np.linalg.matrix_power(u_k(params, -ks), t), modes
                )
                got = evolve_spectral(state, params, t, n=n)
                for x in range(lo - t, hi + t + 1):
                    want = np.exp(-1j * ks * x) @ modes / n
                    assert np.max(np.abs(np.array(got.amplitude(x)) - want)) < 1e-12

    def test_even_ring_rejected(self):
        init = PureState.localized(0, 1.0, 0.0)
        for route in (simulate, evolve_spectral):
            with pytest.raises(ValueError, match="must be odd"):
                route(init, CoinParams.hadamard(), 0, n=8)

    def test_too_small_ring_rejected(self):
        # five steps from one site need 11 sites, wherever the site is
        state = PureState.localized(5, 1.0, 0.0)
        with pytest.raises(ValueError, match="too small"):
            evolve_spectral(state, CoinParams.hadamard(), 5, n=9)

    def test_far_site_on_the_smallest_ring(self, hadamard):
        # a ring only has to hold the window: site 5 at t = 2 fits in 5 sites
        init = PureState.localized(5, 1.0, 0.0)
        want = simulate(init, hadamard, 2)
        got = simulate(init, hadamard, 2, n=5)
        assert got.positions == want.positions
        for x in want.positions:
            assert got[x] == pytest.approx(want[x], abs=1e-15)

    def test_exact_state_accepted(self, hadamard, plus_i):
        back = evolve_spectral(plus_i, hadamard, 0, n=5)
        assert back.support == (0,)
        assert back.amplitude(0) == pytest.approx(plus_i.to_float().amplitude(0), abs=1e-15)


class TestPropagate:
    def test_t_zero_is_identity(self, hadamard, plus_i):
        want = plus_i.to_float().amplitude(0)
        for power in ("horner", "repeated"):
            got = evolve_spectral(plus_i, hadamard, 0, n=7, power=power)
            assert got.amplitude(0) == pytest.approx(want, abs=1e-15)
            assert simulate(plus_i, hadamard, 0, n=7, power=power)[0] == pytest.approx(1.0)

    def test_mode_norms_preserved(self, hadamard):
        # on the smallest ring the window is the whole ring, so the mode
        # norms |alpha~_j|^2 + |beta~_j|^2 can be read from the output
        rng = random.Random(7)
        init = random_state(rng)
        t = 9
        n = bound_ring(init, t)

        def mode_norms(state):
            ring = np.zeros((2, n), dtype=complex)
            for x, pair in state.amplitudes.items():
                ring[:, x % n] = pair
            return np.sum(np.abs(np.fft.ifft(ring)) ** 2, axis=0)

        for power in ("horner", "repeated"):
            out = evolve_spectral(init, hadamard, t, n=n, power=power)
            assert len(out.support) == n
            assert np.allclose(mode_norms(out), mode_norms(init))

    def test_bad_power_name(self, hadamard, plus_i):
        for route in (simulate, evolve_spectral):
            with pytest.raises(ValueError, match="unknown power method"):
                route(plus_i, hadamard, 1, n=5, power="schur")

    def test_negative_t(self, hadamard, plus_i):
        for route in (simulate, evolve_spectral):
            for n in (None, 5):
                with pytest.raises(ValueError, match="non-negative"):
                    route(plus_i, hadamard, -1, n=n)


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
        # u_k^t takes f_t and f_{t-1} in closed form, a few arrays of one
        # value per mode; holding the whole f sequence over all modes would
        # take about 12 MB here
        simulate(plus_i, hadamard, 2)
        tracemalloc.start()
        try:
            simulate(plus_i, hadamard, 600)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MB"

    def test_far_site_is_the_origin_walk_shifted(self, hadamard):
        # the ring is sized by the support, not by its distance from 0: at
        # x = 10^5 it used to take a 72 MB ring for a 3-step walk. Sites
        # past the int64 range used to reach numpy as object arrays, which
        # cannot index the ring.
        want = simulate(PureState.localized(0, 0.6, 0.8j), hadamard, 3)
        for far in (10**5, 2**63 - 3, -(2**63) + 2, 2**70):
            tracemalloc.start()
            try:
                got = simulate(PureState.localized(far, 0.6, 0.8j), hadamard, 3)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MB at {far}"
            assert got.positions == tuple(x + far for x in want.positions)
            for x in want.positions:
                assert got[x + far] == pytest.approx(want[x], abs=1e-14)
            state = evolve_spectral(PureState.localized(far, 0.6, 0.8j), hadamard, 3)
            assert state.support == tuple(x + far for x in want.positions)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=12))
    def test_normalized_any_t(self, t):
        dist = simulate(PureState.plus_i(), CoinParams.hadamard(), t)
        assert math.isclose(dist.total(), 1.0, abs_tol=1e-12)
