import math
import random
import warnings

import mpmath
import pytest

from conftest import random_params, random_state
from fractions import Fraction

from qwalk import arithmetic
from qwalk.arithmetic import FixedComplex, SqrtTwo, SqrtTwoComplex
from qwalk.closedform_pure import (
    FAMILIES,
    MODES,
    _amplitudes,
    _scalars,
    _site,
    admissible_terms,
    amplitude,
    coefficient_bits,
    coefficient_row,
    distribution,
    term_coefficient,
)
from qwalk.core import CoinParams, PureState, max_pointwise_difference
from qwalk.direct import distribution_of, evolve_pure

RT2 = math.sqrt(2)


def _c(value) -> complex:
    return value.to_complex() if hasattr(value, "to_complex") else complex(value)


def _amps_close(got, want, tol=1e-12):
    ga, gb = got
    wa, wb = want
    assert _c(ga) == pytest.approx(_c(wa), abs=tol)
    assert _c(gb) == pytest.approx(_c(wb), abs=tol)


class TestHandValues:
    def test_t1_all_entries(self, hadamard):
        # One Hadamard step from (alpha, beta) at the origin lands
        # (alpha+beta)/sqrt2 on x=1 coin 0 and (alpha-beta)/sqrt2 on
        # x=-1 coin 1.
        init = PureState.localized(0, 0.6, 0.8j)
        _amps_close(
            amplitude(1, 1, init, hadamard),
            ((0.6 + 0.8j) / RT2, 0.0),
        )
        _amps_close(
            amplitude(-1, 1, init, hadamard),
            (0.0, (0.6 - 0.8j) / RT2),
        )

    def test_t2_all_entries(self, hadamard):
        init = PureState.localized(0, 0.6, 0.8j)
        a, b = (0.6 + 0.8j) / 2, (0.6 - 0.8j) / 2
        _amps_close(amplitude(2, 2, init, hadamard), (a, 0.0))
        _amps_close(amplitude(0, 2, init, hadamard), (b, a))
        _amps_close(amplitude(-2, 2, init, hadamard), (0.0, -b))

    def test_t3_orientation(self, hadamard):
        # the asymmetric three-step walk fixes the left/right convention:
        # mass 5/8 must sit at +1, not -1
        dist = distribution(3, PureState.localized(0, 1.0, 0.0), hadamard)
        assert dist[1] == pytest.approx(5 / 8, abs=1e-13)
        assert dist[-1] == pytest.approx(1 / 8, abs=1e-13)
        assert dist[3] == pytest.approx(1 / 8, abs=1e-13)
        assert dist[-3] == pytest.approx(1 / 8, abs=1e-13)

    def test_t0_bypass(self, hadamard):
        init = PureState.localized(2, 0.6, 0.8)
        exact_init = PureState.localized(
            2, SqrtTwoComplex.one(), SqrtTwoComplex.zero()
        )
        for mode in MODES:
            use = init if mode != "exact" else exact_init
            a, b = amplitude(2, 0, use, hadamard, mode=mode)
            assert _c(a) == _c(use.amplitude(2)[0])
            assert _c(b) == _c(use.amplitude(2)[1])


class TestAgainstDirect:
    def test_random_coins_and_states(self):
        rng = random.Random(5)
        for _ in range(20):
            params = random_params(rng)
            init = random_state(rng, radius=3)
            t = rng.randint(0, 14)
            ref = distribution_of(evolve_pure(init, params, t), t)
            got = distribution(t, init, params)
            assert max_pointwise_difference(got, ref) < 1e-10

    def test_amplitude_level_agreement(self):
        rng = random.Random(7)
        for _ in range(10):
            params = random_params(rng)
            init = random_state(rng, radius=2)
            t = rng.randint(1, 10)
            final = evolve_pure(init, params, t)
            for x in range(-t - 2, t + 3):
                want = final.amplitude(x)
                got = amplitude(x, t, init, params)
                _amps_close(got, want, tol=1e-11)

    def test_exact_mode_vs_exact_direct(self, hadamard, plus_i):
        t = 12
        ref = distribution_of(evolve_pure(plus_i, hadamard, t), t)
        got = distribution(t, plus_i, hadamard, mode="exact")
        assert got.mode == "exact"
        for x in ref.positions:
            # both sides are ring elements; compare exactly
            assert got.exact_value(x) == ref.exact_value(x)

    def test_exact_mode_eighth_turn_coins(self, plus_i):
        # every eighth-turn coin keeps the walk in the ring, so the closed
        # form must equal the exact oracle, phases included
        t = 6
        quarter = ("0 pi", "1/4 pi", "1/2 pi", "5/4 pi")
        for theta in ("1/4 pi", "3/4 pi"):
            for phi1 in quarter:
                for phi2 in quarter:
                    params = CoinParams.make(theta, phi1, phi2)
                    ref = distribution_of(evolve_pure(plus_i, params, t), t)
                    got = distribution(t, plus_i, params, "exact")
                    for x in ref.positions:
                        assert got.exact_value(x) == ref.exact_value(x), (params, x)

    @pytest.mark.parametrize("t", [7, 30, 60])
    def test_exact_mode_three_sources(self, t):
        # one kernel K_t(d) serves every source at distance d; sources at
        # -2, 0 and 3 put amplitude on sites of both parities
        def ring(a, b=0, c=0, d=0):
            return SqrtTwoComplex(SqrtTwo(a, b), SqrtTwo(c, d))

        half, quarter = Fraction(1, 2), Fraction(1, 4)
        init = PureState({
            -2: (ring(half), ring(0, 0, 0, half)),
            0: (ring(0, quarter), ring(-quarter, 0, half)),
            3: (ring(0), ring(Fraction(1, 3), Fraction(-1, 5))),
        })
        params = CoinParams.make("3/4 pi", "1/4 pi", "1/2 pi")
        final = evolve_pure(init, params, t)
        lo, hi = init.span
        for x in range(lo - t, hi + t + 1):
            assert amplitude(x, t, init, params, "exact") == final.amplitude(x), x
        ref = distribution_of(final, t)
        got = distribution(t, init, params, "exact")
        for x in ref.positions:
            assert got.exact_value(x) == ref.exact_value(x), x

    def test_double_mode_small_t(self):
        rng = random.Random(9)
        for _ in range(10):
            params = random_params(rng)
            init = random_state(rng, radius=1)
            t = rng.randint(0, 8)
            ref = distribution_of(evolve_pure(init, params, t), t)
            got = distribution(t, init, params, mode="double")
            assert max_pointwise_difference(got, ref) < 1e-11


class TestLostPrecision:
    # theta = 0.3 from (|0> + i|1>)/sqrt2: the double sums blow up to
    # "probabilities" of order 1e75 by t = 150
    PARAMS = CoinParams.make(0.3, 0.0, 0.0)

    def test_double_warns_when_total_is_off(self, plus_i):
        with pytest.warns(RuntimeWarning, match=r"t=150: probabilities sum to"):
            dist = distribution(150, plus_i, self.PARAMS, mode="double")
        assert sum(p for _, p in dist.items()) > 1e70

    @pytest.mark.parametrize("t", [600, 1000])
    def test_double_past_float_range_warns(self, plus_i, t):
        # |amplitude|^2 passes the float range at t=600, and the row
        # coefficients themselves at t=1000; both raised OverflowError
        with pytest.warns(RuntimeWarning, match=rf"t={t}: probabilities sum to"):
            dist = distribution(t, plus_i, CoinParams.make(0.7), mode="double")
        assert not math.isfinite(dist.total())

    def test_nan_amplitude_warns(self):
        init = PureState({0: (complex(math.nan, 0.0), 0j)})
        with pytest.warns(RuntimeWarning, match="probabilities sum to nan"):
            distribution(8, init, CoinParams.make(0.7), mode="double")

    def test_adaptive_does_not_warn(self, plus_i):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = distribution(150, plus_i, self.PARAMS, mode="adaptive")
        assert math.fsum(p for _, p in dist.items()) == pytest.approx(1.0, abs=1e-12)

    def test_double_silent_while_accurate(self, hadamard, plus_i):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            distribution(20, plus_i, hadamard, mode="double")

    def test_tolerance_scales_with_norm(self, hadamard):
        # an unnormalized start keeps its norm, which is not a loss
        init = PureState.localized(0, 2.0, 1.0j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = distribution(10, init, hadamard, mode="double")
        assert math.fsum(p for _, p in dist.items()) == pytest.approx(5.0)


class TestStructure:
    def test_parity_forbidden_sites_exact_zero(self, hadamard, plus_i):
        dist = distribution(9, plus_i, hadamard, mode="exact")
        for x in dist.positions:
            if (x + 9) % 2:
                assert dist[x] == 0.0
                assert dist.exact_value(x).is_zero

    def test_outside_light_cone_zero(self, hadamard, plus_i):
        a, b = amplitude(7, 5, plus_i, hadamard, mode="adaptive")
        assert a == 0 and b == 0

    def test_distribution_matches_amplitudes(self, plus_i):
        # distribution evaluates all sites at once; site by site it must
        # give |amplitude|^2 in every mode, ring-equal in exact mode
        params = CoinParams.make("3/4 pi", "1/4 pi", "1/2 pi")
        for mode in MODES:
            init = plus_i if mode == "exact" else plus_i.to_float()
            dist = distribution(7, init, params, mode)
            for x in dist.positions:
                a, b = amplitude(x, 7, init, params, mode)
                if mode == "exact":
                    assert dist.exact_value(x) == a.abs_sq() + b.abs_sq()
                else:
                    assert dist[x] == abs(a) ** 2 + abs(b) ** 2

    @pytest.mark.parametrize("mode", ["adaptive", "double"])
    def test_distribution_matches_amplitudes_t140(self, mode):
        # a full distribution shares each kernel across sources and sites,
        # a point query builds only the kernels it needs; both must give
        # the same bits, so chi^e may depend on (t, d) alone and not on
        # which neighbouring kernels were built first. double is far past
        # its cliff at t=140 and says so, but must still agree with itself
        t = 140
        params = CoinParams.make(0.7, 1.1, 2.3)
        init = PureState({-2: (0.5 + 0j, 0.5j), 0: (0.5 + 0j, 0j), 3: (-0.5j, 0j)})
        if mode == "double":
            with pytest.warns(RuntimeWarning, match="probabilities sum to"):
                dist = distribution(t, init, params, mode)
        else:
            dist = distribution(t, init, params, mode)
        sites = dist.positions[::7]
        assert len(sites) == 41
        for x in sites:
            a, b = amplitude(x, t, init, params, mode)
            assert dist[x] == abs(a) ** 2 + abs(b) ** 2, x

    def test_bad_mode_and_phase_rejected(self, hadamard, plus_i):
        with pytest.raises(ValueError, match="unknown mode"):
            distribution(1, plus_i, hadamard, mode="quad")
        # the cross phase has one spelling; the old option is gone
        with pytest.raises(TypeError, match="beta_cross_phase"):
            distribution(1, plus_i, hadamard, beta_cross_phase="phi1")
        with pytest.raises(ValueError, match="non-negative"):
            distribution(-1, plus_i, hadamard)

    def test_exact_mode_preconditions(self, hadamard):
        float_init = PureState.localized(0, 0.6, 0.8)
        with pytest.raises(ValueError, match="ring-valued"):
            amplitude(0, 2, float_init, hadamard, mode="exact")
        with pytest.raises(ValueError, match="eighth-turn"):
            amplitude(0, 2, PureState.plus_i(), CoinParams.make(0.3), mode="exact")

    def test_constants(self):
        assert MODES == ("exact", "adaptive", "double")


class TestTermBookkeeping:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            list(admissible_terms(0, 2, 0, "gamma_ft"))

    def test_inadmissible_coefficient_rejected(self):
        with pytest.raises(ValueError, match="not admissible"):
            term_coefficient(3, "alpha_ft", d=2, h=100)

    def test_coefficient_bits_monotone(self):
        bits = [coefficient_bits(t) for t in range(1, 30)]
        assert all(b2 >= b1 for b1, b2 in zip(bits, bits[1:]))
        assert all(b >= 1 for b in bits)

    def test_coefficient_bits_cache_matches_recomputation(self):
        for t in (0, 1, 2, 7, 40, 151, 300, 601):
            cached = coefficient_bits(t)
            assert coefficient_bits(t) == cached
            assert coefficient_bits.__wrapped__(t) == cached, t

    @staticmethod
    def _rows_match_terms(t):
        for family in FAMILIES:
            for d in range(-t - 2, t + 3):
                want = [
                    term_coefficient(t, family, d, h)
                    for h in admissible_terms(d, t, 0, family)
                ]
                assert coefficient_row(t, family, d) == want, (t, family, d)

    def test_rows_match_term_coefficient(self):
        # the multinomial ratio recurrence against the per-term spec, for
        # every family and every d, inside and outside the light cone
        for t in range(61):
            self._rows_match_terms(t)

    @pytest.mark.parametrize("t", [301, 400])
    def test_rows_match_term_coefficient_large_t(self, t):
        self._rows_match_terms(t)


    @staticmethod
    def _row_identities(t):
        # the kernel reads only alpha_ft and alpha_cos; these are the
        # identities that let it stand in for the other four families
        sign_t = -1 if t % 2 else 1  # (-1)^t

        def row(family, d, sign=1):
            return [sign * c for c in coefficient_row(t, family, d)]

        for d in range(-t - 2, t + 3):
            assert row("beta_ft", d) == row("alpha_ft", d), (t, d)
            assert row("beta_sin", d) == row("alpha_cos", d), (t, d)
            assert row("beta_cos", d) == row("alpha_sin", d, -1), (t, d)
            assert row("alpha_ft", -d) == row("alpha_ft", d, sign_t), (t, d)
            assert row("alpha_sin", -d) == row("alpha_cos", d, -sign_t), (t, d)

    def test_row_identities(self):
        for t in range(61):
            self._row_identities(t)

    def test_row_identities_large_t(self):
        self._row_identities(301)


def _ring(a, b=0, c=0, d=0):
    return SqrtTwoComplex(SqrtTwo(a, b), SqrtTwo(c, d))


_HALF, _QUARTER = Fraction(1, 2), Fraction(1, 4)
# ring-valued starts on 1, 2 and 3 sites, of both parities
_RING_STARTS = (
    PureState({0: (_ring(0, _HALF), _ring(0, 0, 0, _HALF))}),
    PureState({-1: (_ring(_HALF), _ring(0, 0, _HALF)), 2: (_ring(-_HALF), _ring(_HALF))}),
    PureState({
        -2: (_ring(_HALF), _ring(0, 0, 0, _HALF)),
        0: (_ring(0, _QUARTER), _ring(-_QUARTER, 0, _HALF)),
        3: (_ring(0), _ring(Fraction(1, 3), Fraction(-1, 5))),
    }),
)


def _every_site(init: PureState, t: int) -> range:
    lo, hi = init.span
    return range(lo - t - 1, hi + t + 2)


class TestAdaptiveAgainstExact:
    # on the eighth-turn grid the exact closed form is the truth; the
    # fixed-point kernels and site sums must land within 1e-15 of it
    @pytest.mark.parametrize("t", [140, 301])
    @pytest.mark.parametrize(
        "n_sources,coin",
        [
            (1, ("1/4 pi", "3/4 pi", "3/2 pi")),
            (2, ("3/4 pi", "1/4 pi", "1/2 pi")),
            (3, ("1/2 pi", "5/4 pi", "0 pi")),
            (3, ("1/4 pi", "7/4 pi", "1/4 pi")),
        ],
    )
    def test_every_site_within_1e15(self, t, n_sources, coin):
        init, params = _RING_STARTS[n_sources - 1], CoinParams.make(*coin)
        sites = _every_site(init, t)
        exact = _amplitudes(sites, t, init, params, "exact")
        adaptive = _amplitudes(sites, t, init, params, "adaptive")
        for x, got, want in zip(sites, adaptive, exact):
            for g, w in zip(got, want):
                assert abs(g - w.to_complex()) <= 1e-15, x

    def test_kernels_and_sites_stay_fixed_point(self):
        # past the rows nothing is an mpmath number: the kernel entries
        # and the site sums are FixedComplex at the working precision
        t = 60
        init = PureState({-1: (0.6 + 0j, 0.8j), 2: (0j, 1.0 + 0j)})
        wp = arithmetic.precision_for(coefficient_bits(t))
        with mpmath.workprec(wp):
            s = _scalars(CoinParams.make(0.7, 1.1, 2.3), t, "adaptive")
            sources = [
                (xp, (s.lift(a), s.lift(b))) for xp, (a, b) in init.amplitudes.items()
            ]
            for d in range(-t, t + 1, 2):
                for entry in (e for row in s.kernel(d) for e in row):
                    assert type(entry) is FixedComplex and entry.wp == wp, d
            for x in _every_site(init, t):
                for value in _site(x, sources, s):
                    assert type(value) is FixedComplex and value.wp == wp, x


class TestAdaptivePrecision:
    # the adaptive rows are summed on fixed-point integers; at 256 guard
    # bits instead of 64 the amplitudes must not move
    PARAMS = CoinParams.make(0.9, 0.4, 1.3)

    @pytest.mark.parametrize("theta", [0.05, math.pi / 2 - 0.01, math.pi - 0.05])
    def test_every_site_at_t301_matches_256_guard_bits(self, monkeypatch, theta):
        # near theta = 0 and pi |R| grows as 1/|sin theta|; near pi/2 the
        # powers of cos fall below 2^-wp towards the light-cone edge
        t = 301
        init = random_state(random.Random(29), radius=2)
        params = CoinParams.make(theta, 0.4, 1.3)
        sites = _every_site(init, t)
        got = _amplitudes(sites, t, init, params, "adaptive")
        monkeypatch.setattr(arithmetic, "GUARD_BITS", 256)
        want = _amplitudes(sites, t, init, params, "adaptive")
        for x, g, w in zip(sites, got, want):
            _amps_close(g, w, tol=1e-15)

    def test_amplitudes_at_t600_match_256_guard_bits(self, monkeypatch, plus_i):
        t = 600
        peak = round(t * math.cos(0.9))
        sites = (-t, -t + 2, -peak, 0, peak, t - 2, t)
        got = [amplitude(x, t, plus_i, self.PARAMS) for x in sites]
        monkeypatch.setattr(arithmetic, "GUARD_BITS", 256)
        for x, pair in zip(sites, got):
            _amps_close(pair, amplitude(x, t, plus_i, self.PARAMS), tol=1e-15)

    def test_distribution_at_t140_matches_256_guard_bits(self, monkeypatch):
        rng = random.Random(23)
        init = random_state(rng, radius=2)
        t = 140
        got = distribution(t, init, self.PARAMS)
        monkeypatch.setattr(arithmetic, "GUARD_BITS", 256)
        want = distribution(t, init, self.PARAMS)
        assert max_pointwise_difference(got, want) < 1e-15
