import cmath
import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_bloch, random_params, random_state
from qwalk.arithmetic import SqrtTwo, SqrtTwoComplex
from qwalk.core import CoinParams, MixedLocalizedState, PureState, coin_matrix, coin_matrix_exact
from qwalk import direct
from qwalk.direct import distribution_of, evolve_mixed, evolve_pure, step

RT2 = math.sqrt(2)


def dict_walk(state: PureState, params: CoinParams, t: int) -> dict:
    """Reference float stepper: one dict per step, CPython complex
    arithmetic, every site the light cone reaches kept as a key."""
    (c00, c01), (c10, c11) = coin_matrix(params).tolist()
    amps = state.to_float().amplitudes
    for _ in range(t):
        up = {x + 1: c00 * a + c01 * b for x, (a, b) in amps.items()}
        down = {x - 1: c10 * a + c11 * b for x, (a, b) in amps.items()}
        amps = {x: (up.get(x, 0j), down.get(x, 0j)) for x in up.keys() | down.keys()}
    return amps


def ring_dict_walk(state: PureState, params: CoinParams, t: int) -> dict:
    """Reference exact stepper: one dict per step, every product and sum a
    SqrtTwoComplex operation in lowest terms, every site the light cone
    reaches kept as a key."""
    (c00, c01), (c10, c11) = coin_matrix_exact(params)
    zero, amps = SqrtTwoComplex.zero(), state.amplitudes
    for _ in range(t):
        up = {x + 1: c00 * a + c01 * b for x, (a, b) in amps.items()}
        down = {x - 1: c10 * a + c11 * b for x, (a, b) in amps.items()}
        amps = {x: (up.get(x, zero), down.get(x, zero)) for x in up.keys() | down.keys()}
    return amps


def unit_state(rng: random.Random, sources) -> PureState:
    sites = {
        x: tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2))
        for x in sources
    }
    norm = math.sqrt(sum(abs(a) ** 2 + abs(b) ** 2 for a, b in sites.values()))
    return PureState({x: (a / norm, b / norm) for x, (a, b) in sites.items()})


def worst_amplitude_gap(amps: dict, ref: dict) -> float:
    return max(
        max(abs(a - ra), abs(b - rb))
        for (a, b), (ra, rb) in ((amps[x], ref[x]) for x in ref)
    )


# one source; two of equal parity far enough apart that the cones start
# disjoint; two of opposite parity; three; two of opposite parity whose
# cones start disjoint (they meet at t = 8)
SOURCES = {
    "one": (0,),
    "two-even": (-4, 4),
    "two-odd": (-1, 2),
    "three": (-3, 0, 5),
    "far-apart": (-9, 6),
}
TIMES = (*range(8), 150, 600)


class TestStep:
    def test_single_hadamard_step_from_zero(self, hadamard):
        s = step(PureState.localized(0, 1.0, 0.0), hadamard)
        a1, b1 = s.amplitude(1)
        am1, bm1 = s.amplitude(-1)
        assert abs(a1 - 1 / RT2) < 1e-15 and b1 == 0
        assert am1 == 0 and abs(bm1 - 1 / RT2) < 1e-15

    def test_theta_zero_is_ballistic(self):
        p = CoinParams.make(0.0, 0.0, 0.0)
        s = PureState.localized(0, 1.0, 0.0)
        for t in range(1, 6):
            s = step(s, p)
            dist = distribution_of(s, t)
            assert dist[t] == pytest.approx(1.0)

    def test_theta_half_pi_oscillates(self):
        p = CoinParams.make(math.pi / 2, 0.3, 1.1)
        s = PureState.localized(0, 1.0, 0.0)
        for t in range(1, 7):
            s = step(s, p)
            dist = distribution_of(s, t)
            expected_site = -1 if t % 2 else 0
            assert dist[expected_site] == pytest.approx(1.0)

    def test_norm_preserved_random(self):
        rng = random.Random(23)
        for _ in range(20):
            params = random_params(rng)
            s = random_state(rng)
            for _ in range(rng.randint(1, 8)):
                s = step(s, params)
            assert math.isclose(s.norm_sq(), 1.0, abs_tol=1e-12)

    def test_exact_step_stays_exact(self, hadamard):
        s = PureState.plus_i()
        for _ in range(4):
            s = step(s, hadamard)
        assert s.exact
        assert float(s.norm_sq_exact()) == 1.0

    def test_off_grid_coin_downgrades_exact_state(self):
        s = step(PureState.plus_i(), CoinParams.make(0.3, 0.0, 0.0))
        assert not s.exact


class TestEvolvePure:
    def test_t_zero_identity(self, hadamard, plus_i):
        assert evolve_pure(plus_i, hadamard, 0) is plus_i

    def test_negative_t_rejected(self, hadamard, plus_i):
        with pytest.raises(ValueError):
            evolve_pure(plus_i, hadamard, -1)

    def test_numpy_integer_t_reads_as_int(self, hadamard, plus_i):
        # t = 64 is past a 63-bit shift: a numpy int64 reaching the
        # exact walk's scale ** t overflowed or divided by zero
        t = 64
        for init in (plus_i, plus_i.to_float()):
            got = evolve_pure(init, hadamard, np.int64(t))
            assert got.amplitudes == evolve_pure(init, hadamard, t).amplitudes
        for rho in ((0.5, 0.0, 0.0, 0.2), (0.5, 0.1, 0.2, 0.15)):
            state = MixedLocalizedState.from_pauli(*rho)
            got = evolve_mixed(state, hadamard, np.int64(t))
            want = evolve_mixed(state, hadamard, t)
            assert type(got.t) is int and got.probs == want.probs
            assert got.exact == want.exact

    def test_float_t_rejected(self, hadamard, plus_i):
        with pytest.raises(TypeError):
            evolve_pure(plus_i, hadamard, 2.0)
        with pytest.raises(TypeError):
            evolve_mixed(MixedLocalizedState.from_pauli(0.5, 0, 0, 0), hadamard, 2.0)

    def test_plus_i_t1(self, hadamard, plus_i):
        dist = distribution_of(evolve_pure(plus_i, hadamard, 1), 1)
        assert dist[1] == pytest.approx(0.5)
        assert dist[-1] == pytest.approx(0.5)

    def test_plus_i_t2(self, hadamard, plus_i):
        dist = distribution_of(evolve_pure(plus_i, hadamard, 2), 2)
        assert dist[-2] == pytest.approx(0.25)
        assert dist[0] == pytest.approx(0.5)
        assert dist[2] == pytest.approx(0.25)

    def test_zero_coin_start_t3_right_biased(self, hadamard):
        # The textbook asymmetric Hadamard walk: 5/8 of the mass sits at
        # x = 1 after three steps.
        dist = distribution_of(evolve_pure(PureState.localized(0, 1.0, 0.0),
                                           hadamard, 3), 3)
        assert dist[-3] == pytest.approx(1 / 8)
        assert dist[-1] == pytest.approx(1 / 8)
        assert dist[1] == pytest.approx(5 / 8)
        assert dist[3] == pytest.approx(1 / 8)

    def test_light_cone(self):
        rng = random.Random(4)
        for _ in range(10):
            params = random_params(rng)
            init = random_state(rng, radius=2)
            t = rng.randint(0, 9)
            lo, hi = init.span
            final = evolve_pure(init, params, t)
            flo, fhi = final.span
            assert flo >= lo - t and fhi <= hi + t

    def test_parity_support(self, hadamard):
        init = PureState.localized(2, 0.6, 0.8)
        for t in range(6):
            dist = distribution_of(evolve_pure(init, hadamard, t), t)
            for x, p in dist.items():
                if (x + 2 + t) % 2:
                    assert p == 0.0

    def test_global_coin_phase_invariance(self):
        rng = random.Random(9)
        params = random_params(rng)
        phase = cmath.exp(0.7j)
        init = PureState.localized(0, 0.6, 0.8j)
        rotated = PureState.localized(0, 0.6 * phase, 0.8j * phase)
        d1 = distribution_of(evolve_pure(init, params, 7), 7)
        d2 = distribution_of(evolve_pure(rotated, params, 7), 7)
        for x in d1.positions:
            assert d1[x] == pytest.approx(d2[x], abs=1e-14)

    def test_exact_equals_float_evolution(self, hadamard, plus_i):
        t = 8
        exact_dist = distribution_of(evolve_pure(plus_i, hadamard, t), t)
        float_dist = distribution_of(
            evolve_pure(plus_i.to_float(), hadamard, t), t
        )
        assert exact_dist.mode == "exact" and float_dist.mode == "double"
        for x in exact_dist.positions:
            assert float_dist[x] == pytest.approx(exact_dist[x], abs=1e-13)


class TestDistributionOf:
    def test_delta_at_origin(self):
        dist = distribution_of(PureState.localized(0, 1.0, 0.0), 0)
        assert dist.positions == (0,)
        assert dist[0] == 1.0

    def test_full_span_has_explicit_zeros(self, hadamard, plus_i):
        dist = distribution_of(evolve_pure(plus_i, hadamard, 3), 3)
        assert dist.positions == tuple(range(-3, 4))
        assert dist[0] == 0.0

    def test_sums_to_one(self):
        rng = random.Random(17)
        for _ in range(10):
            s = random_state(rng)
            t = rng.randint(0, 8)
            dist = distribution_of(evolve_pure(s, random_params(rng), t), t)
            assert math.isclose(dist.total(), 1.0, abs_tol=1e-12)

    def test_exact_values_carried(self, hadamard, plus_i):
        dist = distribution_of(evolve_pure(plus_i, hadamard, 4), 4)
        assert dist.exact is not None
        assert float(dist.exact_value(0)) == pytest.approx(dist[0])


class TestEvolveMixed:
    def test_unbiased_t2_hand_value(self, hadamard):
        dist = evolve_mixed(
            MixedLocalizedState.from_pauli(0.5, 0.0, 0.0, 0.0), hadamard, 2
        )
        assert dist[-2] == pytest.approx(0.25)
        assert dist[0] == pytest.approx(0.5)
        assert dist[2] == pytest.approx(0.25)

    def test_adjudication_t2_hand_value(self, hadamard):
        # r = (1/2, 1/2, 0, 0) is the rank-1 projector onto (|0>+|1>)/sqrt2;
        # four lines of hand evolution give {0: 1/2, 2: 1/2}.
        dist = evolve_mixed(
            MixedLocalizedState.from_pauli(0.5, 0.5, 0.0, 0.0), hadamard, 2
        )
        assert dist[0] == pytest.approx(0.5)
        assert dist[2] == pytest.approx(0.5)
        assert dist[-2] == pytest.approx(0.0, abs=1e-15)

    def test_rank_one_equals_pure(self, hadamard):
        rng = random.Random(31)
        for _ in range(8):
            # random pure coin state -> rank-1 density matrix
            a = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            b = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            a, b = a / norm, b / norm
            t = rng.randint(0, 10)
            params = random_params(rng)
            rho = [
                [abs(a) ** 2, a * b.conjugate()],
                [b * a.conjugate(), abs(b) ** 2],
            ]
            mixed = evolve_mixed(MixedLocalizedState.from_rho(rho), params, t)
            pure = distribution_of(
                evolve_pure(PureState.localized(0, a, b), params, t), t
            )
            for x in mixed.positions:
                assert mixed[x] == pytest.approx(pure[x], abs=1e-12)

    def test_maximally_mixed_is_average_of_basis_walks(self, hadamard):
        t = 9
        mixed = evolve_mixed(
            MixedLocalizedState.from_pauli(0.5, 0.0, 0.0, 0.0), hadamard, t
        )
        d0 = distribution_of(
            evolve_pure(PureState.localized(0, 1.0, 0.0), hadamard, t), t
        )
        d1 = distribution_of(
            evolve_pure(PureState.localized(0, 0.0, 1.0), hadamard, t), t
        )
        for x in mixed.positions:
            assert mixed[x] == pytest.approx(0.5 * d0[x] + 0.5 * d1[x], abs=1e-13)

    def test_unbiased_mirror_symmetry(self, hadamard):
        for t in (5, 12, 25):
            dist = evolve_mixed(
                MixedLocalizedState.from_pauli(0.5, 0.0, 0.0, 0.0), hadamard, t
            )
            for x in dist.positions:
                assert dist[x] == pytest.approx(dist[-x], abs=1e-13)

    def test_odd_support_at_t25(self, hadamard):
        dist = evolve_mixed(
            MixedLocalizedState.from_pauli(0.5, 0.0, 0.0, 0.0), hadamard, 25
        )
        for x, p in dist.items():
            if x % 2 == 0:
                assert p == 0.0

    def test_invalid_state_rejected(self, hadamard):
        with pytest.raises(ValueError):
            evolve_mixed(
                MixedLocalizedState.from_pauli(0.5, 0.5, 0.5, 0.5), hadamard, 1
            )
        with pytest.raises(ValueError):
            evolve_mixed(
                MixedLocalizedState.from_pauli(0.5, 0.0, 0.0, 0.0), hadamard, -1
            )

    @pytest.mark.parametrize(
        "params", [CoinParams.hadamard(), CoinParams.make(0.7, 1.1, 2.3)],
        ids=["exact", "float"],
    )
    def test_weight_just_below_zero_skipped(self, params):
        # valid within PSD_ATOL, so rho_11 = r0 - r3 = -1e-13; that weight
        # enters the linear form like any other, with no skip and no raise
        state = MixedLocalizedState.from_pauli(0.5, 0.0, 0.0, 0.5000000000001)
        dist = evolve_mixed(state, params, 7)
        assert dist.mode == ("exact" if params.exact_capable else "double")
        up = PureState.localized(0, 1.0, 0.0)
        up = distribution_of(evolve_pure(up, params, 7), 7)
        for x in dist.positions:
            assert dist[x] == pytest.approx(up[x], abs=1e-12)

    @pytest.mark.parametrize("theta", ["1/4 pi", "3/4 pi"])
    @pytest.mark.parametrize("phi1", ["0 pi", "1/4 pi", "1/2 pi"])
    @pytest.mark.parametrize("phi2", ["0 pi", "1/4 pi", "1/2 pi"])
    def test_exact_diagonal_is_weighted_basis_walks(self, theta, phi1, phi2):
        # every eighth-turn coin, not only Hadamard, keeps a diagonal rho
        # exact: w0 |psi_0|^2 + w1 |psi_1|^2 in the ring at every site
        params = CoinParams.make(theta, phi1, phi2)
        one, zero = SqrtTwoComplex.one(), SqrtTwoComplex.zero()
        for t in (0, 1, 9, 30):
            p0 = distribution_of(evolve_pure(PureState.localized(0, one, zero), params, t))
            p1 = distribution_of(evolve_pure(PureState.localized(0, zero, one), params, t))
            for r3 in (Fraction(1, 4), Fraction(-1, 8), Fraction(0)):
                w0, w1 = Fraction(1, 2) + r3, Fraction(1, 2) - r3
                dist = evolve_mixed(
                    MixedLocalizedState.from_pauli(0.5, 0.0, 0.0, float(r3)), params, t
                )
                assert dist.mode == "exact"
                assert dist.positions == p0.positions
                for x in dist.positions:
                    want = w0 * p0.exact[x] + w1 * p1.exact[x]
                    assert isinstance(dist.exact[x], SqrtTwo)
                    assert dist.exact[x] == want, (t, r3, x)
                    assert dist[x] == float(want)

    def test_non_finite_pauli_rejected(self, hadamard):
        with pytest.raises(ValueError, match="finite"):
            evolve_mixed(
                MixedLocalizedState.from_pauli(0.5, math.nan, 0.0, 0.0), hadamard, 3
            )

    def test_random_bloch_normalized(self, hadamard):
        rng = random.Random(41)
        for _ in range(10):
            dist = evolve_mixed(
                MixedLocalizedState.from_pauli(*random_bloch(rng)),
                hadamard,
                rng.randint(0, 12),
            )
            assert math.isclose(dist.total(), 1.0, abs_tol=1e-12)


def two_walk_route(state: MixedLocalizedState, params: CoinParams, t: int) -> dict:
    """The float mixed distribution by the route evolve_mixed took before
    its one pass: two evolve_pure walks, each read by distribution_of, and
    the bilinear form over their amplitudes site by site."""
    r0, r1, r2, r3 = state.pauli
    psi0 = evolve_pure(PureState.localized(0, 1.0, 0.0), params, t)
    psi1 = evolve_pure(PureState.localized(0, 0.0, 1.0), params, t)
    d0, d1 = distribution_of(psi0, t), distribution_of(psi1, t)
    w0, w1, rho10 = r0 + r3, r0 - r3, complex(r1, r2)
    probs = {}
    for x, p in d0.probs.items():
        (a0, b0), (a1, b1) = psi0.amplitude(x), psi1.amplitude(x)
        cross = rho10 * (a0.conjugate() * a1 + b0.conjugate() * b1)
        probs[x] = w0 * p + w1 * d1.probs[x] + 2.0 * cross.real
    return probs


# the 18 eighth-turn coins of test_exact_diagonal_is_weighted_basis_walks
EIGHTH_TURN_GRID = [
    (theta, phi1, phi2)
    for theta in ("1/4 pi", "3/4 pi")
    for phi1 in ("0 pi", "1/4 pi", "1/2 pi")
    for phi2 in ("0 pi", "1/4 pi", "1/2 pi")
]


class TestBasisWalksInOnePass:
    """evolve_mixed steps psi_0 and psi_1 together, as pairs in the cells
    of one pass, and reads the bilinear form once off them."""

    def test_float_pair_is_two_pure_walks(self):
        rng = random.Random(280)
        for _ in range(40):
            params, t = random_params(rng), rng.randint(0, 60)
            denominator, walked = direct._basis_walks(params, t, exact=False)
            psi0 = evolve_pure(PureState.localized(0, 1.0, 0.0), params, t).amplitudes
            psi1 = evolve_pure(PureState.localized(0, 0.0, 1.0), params, t).amplitudes
            assert denominator == 1 and walked.keys() == psi0.keys() == psi1.keys()
            for x, ((a0, a1), (b0, b1)) in walked.items():
                assert repr((a0, b0)) == repr(psi0[x]), (t, x)
                assert repr((a1, b1)) == repr(psi1[x]), (t, x)

    @pytest.mark.parametrize("coin", EIGHTH_TURN_GRID, ids=",".join)
    def test_exact_pair_is_two_pure_walks(self, coin):
        params = CoinParams.make(*coin)
        one, zero = SqrtTwoComplex.one(), SqrtTwoComplex.zero()
        ring = SqrtTwoComplex.from_numerators
        for t in (0, 1, 9, 30, 60):
            denominator, walked = direct._basis_walks(params, t, exact=True)
            psi0 = evolve_pure(PureState.localized(0, one, zero), params, t).amplitudes
            psi1 = evolve_pure(PureState.localized(0, zero, one), params, t).amplitudes
            assert walked.keys() == psi0.keys() == psi1.keys()
            for x, column in walked.items():
                for walk, psi in zip(zip(*column), (psi0, psi1)):
                    pair = (ring(*walk[:4], denominator), ring(*walk[4:], denominator))
                    assert pair == psi[x], (t, x)

    def test_float_mixed_is_the_two_walk_route(self):
        rng = random.Random(281)
        for case in range(120):
            params, t = random_params(rng), rng.randint(0, 60)
            # every fourth rho diagonal: floats still, the coin being off-grid
            r0, r1, r2, r3 = random_bloch(rng)
            state = MixedLocalizedState.from_pauli(
                r0, *((0.0, 0.0) if case % 4 == 0 else (r1, r2)), r3
            )
            dist = evolve_mixed(state, params, t)
            want = two_walk_route(state, params, t)
            assert dist.mode == "double"
            assert [(x, repr(p)) for x, p in dist.probs.items()] == [
                (x, repr(p)) for x, p in want.items()
            ], (case, t)

    @pytest.mark.parametrize(
        "params, pauli",
        [
            (CoinParams.make(0.7, 1.1, 2.3), (0.5, 0.1, 0.2, 0.15)),
            (CoinParams.hadamard(), (0.5, 0.0, 0.0, 0.15)),
            (CoinParams.hadamard(), (0.5, 0.1, 0.2, 0.15)),
        ],
        ids=["float", "exact", "hadamard-float"],
    )
    def test_one_stepping_pass_per_mixed_walk(self, monkeypatch, params, pauli):
        calls = []
        stepped = direct._stepped

        def counting(*args):
            calls.append(args[1])
            return stepped(*args)

        monkeypatch.setattr(direct, "_stepped", counting)
        evolve_mixed(MixedLocalizedState.from_pauli(*pauli), params, 25)
        assert calls == [25]


def fresh_mixed(state: MixedLocalizedState, params: CoinParams, t: int):
    """evolve_mixed with no basis pair kept from an earlier call."""
    direct._pair_sums.cache_clear()
    return evolve_mixed(state, params, t)


def assert_same_distribution(got, want, label=None):
    assert got.mode == want.mode and got.method == want.method, label
    assert [(x, repr(p)) for x, p in got.probs.items()] == [
        (x, repr(p)) for x, p in want.probs.items()
    ], label
    # ring-equal where exact, None on both sides otherwise
    assert got.exact == want.exact, label


class TestKeptPairSums:
    """evolve_mixed keeps the last basis pair's site sums, keyed on
    (coin, t, exact): rho alone changes nothing that is kept, and any
    other walk replaces the entry."""

    @pytest.mark.parametrize(
        "params, diagonal",
        [
            (CoinParams.make(0.7, 1.1, 2.3), False),
            (CoinParams.hadamard(), False),
            (CoinParams.make("3/4 pi", "5/4 pi", "1/4 pi"), True),
            # exact and float rho on one eighth-turn coin, in turn
            (CoinParams.hadamard(), None),
        ],
        ids=["off-grid", "hadamard-float", "eighth-turn-exact", "hadamard-both"],
    )
    def test_sweep_of_rho_equals_calls_from_nothing(self, params, diagonal):
        rng = random.Random(f"sweep-{diagonal}")
        t = 23
        states = []
        for k in range(10):
            r0, r1, r2, r3 = random_bloch(rng)
            if diagonal or (diagonal is None and k % 2):
                r1 = r2 = 0.0
            states.append(MixedLocalizedState.from_pauli(r0, r1, r2, r3))
        want = [fresh_mixed(state, params, t) for state in states]
        order = list(range(10))
        rng.shuffle(order)
        direct._pair_sums.cache_clear()
        for k in order:
            assert_same_distribution(evolve_mixed(states[k], params, t), want[k], k)
        if diagonal:
            assert all(want[k].mode == "exact" for k in order)

    def test_only_the_last_walk_is_kept(self):
        hadamard, other = CoinParams.hadamard(), CoinParams.make(0.7, 1.1, 2.3)
        coherent = MixedLocalizedState.from_pauli(0.5, 0.2, -0.1, 0.15)
        diagonal = MixedLocalizedState.from_pauli(0.5, 0.0, 0.0, 0.15)
        # (state, coin, t): another coin, another t, and the exact flag
        # flipped on the same coin and t, each between calls on the first
        calls = [
            (coherent, hadamard, 20),
            (coherent, other, 20),
            (coherent, hadamard, 20),
            (coherent, hadamard, 21),
            (coherent, hadamard, 20),
            (diagonal, hadamard, 20),
            (coherent, hadamard, 20),
            (diagonal, other, 20),
            (diagonal, hadamard, 21),
            (diagonal, hadamard, 20),
        ]
        want = [fresh_mixed(*call) for call in calls]
        direct._pair_sums.cache_clear()
        for k, call in enumerate(calls):
            assert_same_distribution(evolve_mixed(*call), want[k], k)
        # after A then B only B is kept: B again is a hit, A again a miss
        direct._pair_sums.cache_clear()
        evolve_mixed(coherent, hadamard, 20)
        evolve_mixed(coherent, other, 20)
        info = direct._pair_sums.cache_info()
        assert info.currsize == 1
        evolve_mixed(MixedLocalizedState.from_pauli(0.5, -0.1, 0.3, 0.0), other, 20)
        assert direct._pair_sums.cache_info().hits == info.hits + 1
        evolve_mixed(coherent, hadamard, 20)
        assert direct._pair_sums.cache_info().misses == info.misses + 1

    @pytest.mark.parametrize(
        "params, exact",
        [(CoinParams.make(0.7, 1.1, 2.3), False), (CoinParams.hadamard(), True)],
        ids=["float", "exact"],
    )
    def test_sweep_of_ten_rho_steps_once(self, monkeypatch, params, exact):
        calls = []
        stepped = direct._stepped

        def counting(*args):
            calls.append(args[1])
            return stepped(*args)

        monkeypatch.setattr(direct, "_stepped", counting)
        rng = random.Random(31)
        for _ in range(10):
            r0, r1, r2, r3 = random_bloch(rng)
            if exact:
                r1 = r2 = 0.0
            dist = evolve_mixed(MixedLocalizedState.from_pauli(r0, r1, r2, r3), params, 17)
            assert dist.mode == ("exact" if exact else "double")
        assert calls == [17]

    def test_kept_sums_are_read_only(self):
        sums = direct._pair_sums(CoinParams.make(0.7, 1.1, 2.3), 12, False)
        assert sums.shape == (4, 25) and sums.dtype == np.float64
        assert not sums.flags.writeable
        for row in sums:
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[12] = 1.0

    def test_threads_racing_give_the_same_values(self):
        rng = random.Random(32)
        coins = [CoinParams.hadamard(), CoinParams.make(0.7, 1.1, 2.3),
                 CoinParams.make("1/4 pi", "1/2 pi", "0 pi")]
        calls = []
        for _ in range(24):
            r0, r1, r2, r3 = random_bloch(rng)
            if rng.random() < 0.3:
                r1 = r2 = 0.0
            calls.append((MixedLocalizedState.from_pauli(r0, r1, r2, r3),
                          rng.choice(coins), rng.choice((9, 14))))
        want = [fresh_mixed(*call) for call in calls]
        direct._pair_sums.cache_clear()
        barrier, failures = threading.Barrier(4), []

        def run(seed):
            order = list(range(len(calls)))
            random.Random(seed).shuffle(order)
            barrier.wait()
            for _ in range(3):
                for k in order:
                    try:
                        assert_same_distribution(evolve_mixed(*calls[k]), want[k], k)
                    except AssertionError as exc:
                        failures.append((seed, k, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:3]


class TestArrayWalkAgainstDicts:
    """The float walk is array code; the dict stepper above pins it. Complex
    multiplies round differently in numpy than in CPython, so amplitudes
    agree within 1e-15, not bit for bit."""

    @pytest.mark.parametrize("t", TIMES)
    @pytest.mark.parametrize("sources", SOURCES.values(), ids=SOURCES.keys())
    def test_evolve_pure_matches_dict_walk(self, sources, t):
        rng = random.Random(f"{sources}-{t}")
        params, init = random_params(rng), unit_state(rng, sources)
        ref = dict_walk(init, params, t)
        final = evolve_pure(init, params, t)
        assert final.amplitudes.keys() == ref.keys()
        gap = worst_amplitude_gap(final.amplitudes, ref)
        assert gap <= 1e-15, f"t={t}: {gap:.2e}"

    @pytest.mark.parametrize("sources", SOURCES.values(), ids=SOURCES.keys())
    def test_step_is_one_dict_step(self, sources):
        rng = random.Random(f"step-{sources}")
        params, init = random_params(rng), unit_state(rng, sources)
        ref = dict_walk(init, params, 1)
        stepped = step(init, params)
        assert stepped.amplitudes.keys() == ref.keys()
        assert worst_amplitude_gap(stepped.amplitudes, ref) <= 1e-15

    @pytest.mark.parametrize("t", TIMES)
    def test_evolve_mixed_non_diagonal_matches_dict_walk(self, t):
        rng = random.Random(f"mixed-{t}")
        params = random_params(rng)
        state = MixedLocalizedState.from_pauli(0.5, 0.21, -0.17, 0.3)
        evals, evecs = np.linalg.eigh(state.rho)
        ref = {x: 0.0 for x in range(-t, t + 1)}
        for w, v in zip(evals, evecs.T):
            branch = PureState.localized(0, complex(v[0]), complex(v[1]))
            for x, (a, b) in dict_walk(branch, params, t).items():
                ref[x] += float(w) * (abs(a) ** 2 + abs(b) ** 2)
        dist = evolve_mixed(state, params, t)
        assert dist.mode == "double" and dist.positions == tuple(ref)
        gap = max(abs(dist[x] - p) for x, p in ref.items())
        assert gap <= 1e-15, f"t={t}: {gap:.2e}"


def _ring(a=0, b=0, c=0, d=0) -> SqrtTwoComplex:
    return SqrtTwoComplex(SqrtTwo(a, b), SqrtTwo(c, d))


_THIRD, _TWO_THIRDS = Fraction(1, 3), Fraction(2, 3)
# exact starts whose common denominator is not a power of 2: 1/3 and
# 2/3 sqrt2, on one site, on two sites of opposite parity, and on three
# sites with a fifth and a half beside them
EXACT_STARTS = {
    "one": PureState({0: (_ring(_THIRD), _ring(0, 0, 0, _TWO_THIRDS))}),
    "two": PureState({-2: (_ring(_THIRD), _ring()), 1: (_ring(), _ring(0, _TWO_THIRDS))}),
    "three": PureState({
        -1: (_ring(0, _TWO_THIRDS, Fraction(1, 5)), _ring(_THIRD)),
        0: (_ring(), _ring(Fraction(-1, 2), 0, 0, _THIRD)),
        4: (_ring(0, 0, _THIRD), _ring(Fraction(1, 4), Fraction(-1, 6))),
    }),
}
# theta in {0, pi/2} with phases; theta = pi/4 and 3pi/4 with phases whose
# products with sin make entries (+-1 +- i)/2; Hadamard
EIGHTH_TURN_COINS = [
    ("0 pi", "1/4 pi", "3/4 pi"),
    ("0 pi", "0 pi", "0 pi"),
    ("1/2 pi", "0 pi", "0 pi"),
    ("1/2 pi", "5/4 pi", "1/2 pi"),
    ("1/4 pi", "1/4 pi", "3/4 pi"),
    ("3/4 pi", "5/4 pi", "1/4 pi"),
    ("1/4 pi", "7/4 pi", "5/4 pi"),
    ("1/4 pi", "0 pi", "0 pi"),
]
_rng = random.Random(60)
EIGHTH_TURN_COINS += [
    tuple(f"{_rng.randrange(8)}/4 pi" for _ in range(3)) for _ in range(8)
]


class TestExactWalkAgainstRingDicts:
    """Exact stepping holds integer numerators over one denominator; the
    SqrtTwoComplex dict stepper above pins it, as ring elements at every
    site."""

    @pytest.mark.parametrize("coin", EIGHTH_TURN_COINS, ids=",".join)
    @pytest.mark.parametrize("start", EXACT_STARTS.values(), ids=EXACT_STARTS.keys())
    def test_evolve_pure_equals_ring_dicts(self, start, coin):
        params = CoinParams.make(*coin)
        for t in (0, 1, 2, 5, 23, 60):
            ref = ring_dict_walk(start, params, t)
            final = evolve_pure(start, params, t)
            assert final.exact and final.amplitudes.keys() == ref.keys(), t
            for x, pair in ref.items():
                assert final.amplitudes[x] == pair, (t, x)

    @pytest.mark.parametrize("coin", EIGHTH_TURN_COINS[:8], ids=",".join)
    def test_repeated_steps_equal_evolve_pure(self, coin):
        params = CoinParams.make(*coin)
        start = state = EXACT_STARTS["three"]
        for t in range(1, 25):
            state = step(state, params)
            assert state.amplitudes == evolve_pure(start, params, t).amplitudes, t
        assert state.amplitudes == ring_dict_walk(start, params, 24)
