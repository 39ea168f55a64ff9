import collections
import math
import random
import sys
import threading
import warnings
from functools import cache

import mpmath
import numpy as np
import pytest
from mpmath.libmp import to_fixed

from conftest import random_params, random_state
from fractions import Fraction

from qwalk import arithmetic, closedform_pure
from qwalk.arithmetic import DyadicComplex, SqrtTwo, SqrtTwoComplex
from qwalk.closedform_pure import (
    FAMILIES,
    MODES,
    _amplitudes,
    _first_h,
    _kernels,
    _read_keys,
    _rows,
    _scalars,
    _site,
    _sweep_rows,
    admissible_terms,
    amplitude,
    coefficient_bits,
    coefficient_row,
    distribution,
    term_coefficient,
    working_precision,
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
        # form must equal the exact oracle, phases included, and cos^2 in
        # {0, 1/2, 1}
        t = 6
        quarter = ("0 pi", "1/4 pi", "1/2 pi", "5/4 pi")
        for theta in ("1/4 pi", "3/4 pi", "0 pi", "1/2 pi", "1 pi"):
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

    @pytest.mark.parametrize(
        "coin",
        [("0 pi", "1/4 pi", "1/2 pi"), ("1/4 pi", "3/4 pi", "3/2 pi"),
         ("1/2 pi", "5/4 pi", "0 pi"), ("3/4 pi", "1/4 pi", "7/4 pi")],
    )
    def test_exact_distribution_matches_point_queries_t60(self, monkeypatch, coin):
        # an exact distribution and each point query take their rows from
        # the sweeps, the reference from a Fraction Horner sum of every
        # row; all are exact, so ring-equal at every site, theta = 0
        # (cos^2 = 1) and pi/2 (cos^2 = 0) included
        t, init, params = 60, _RING_STARTS[2], CoinParams.make(*coin)
        sites = _every_site(init, t)
        with monkeypatch.context() as m:
            m.setattr(closedform_pure, "_rational_rows", _fraction_horner_rows)
            want = _amplitudes(sites, t, init, params, "exact")
        swept = _amplitudes(sites, t, init, params, "exact")
        dist = distribution(t, init, params, "exact")
        for x, pair, reference in zip(sites, swept, want):
            a, b = amplitude(x, t, init, params, "exact")
            assert pair == (a, b) == reference, x
            if x in dist.exact:
                assert dist.exact_value(x) == a.abs_sq() + b.abs_sq(), x

    def test_bad_mode_and_phase_rejected(self, hadamard, plus_i):
        with pytest.raises(ValueError, match="unknown mode"):
            distribution(1, plus_i, hadamard, mode="quad")
        # the cross phase has one spelling; the old option is gone
        with pytest.raises(TypeError, match="beta_cross_phase"):
            distribution(1, plus_i, hadamard, beta_cross_phase="phi1")
        with pytest.raises(ValueError, match="non-negative"):
            distribution(-1, plus_i, hadamard)

    def test_numpy_integer_t_and_x_read_as_int(self, hadamard, plus_i):
        # t = 64 is past a 63-bit shift: a numpy int64 t made the exact
        # distribution's unit 1 << (t // 2) wrap to a NaN total, and raised
        # OverflowError in adaptive mode
        t = 64
        for mode in MODES:
            init = plus_i if mode == "exact" else plus_i.to_float()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # double may be past its cliff
                got = distribution(np.int64(t), init, hadamard, mode)
                want = distribution(t, init, hadamard, mode)
            assert type(got.t) is int and got.probs == want.probs, mode
            assert got.exact == want.exact, mode
            for x in (-t, -2, 0, 10, t):
                got = amplitude(np.int64(x), np.int64(t), init, hadamard, mode)
                assert got == amplitude(x, t, init, hadamard, mode), (mode, x)

    def test_float_t_and_x_rejected(self, hadamard, plus_i):
        with pytest.raises(TypeError):
            distribution(2.0, plus_i, hadamard)
        with pytest.raises(TypeError):
            amplitude(0, 2.0, plus_i, hadamard)
        with pytest.raises(TypeError):
            amplitude(0.0, 2, plus_i, hadamard)

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


class TestRowSweeps:
    # the three-term recurrences in d against the Horner sums of
    # coefficient_row: exactly on rational cos^2, the eighth-turn values
    # and off-grid ones, and in fixed point at the working precision
    C2 = tuple(
        Fraction(c) for c in ("0", "1/2", "1", "1/3", "7/11", "1/100", "999/1000")
    )

    @staticmethod
    def _keys(t):
        # alpha_ft at every d >= 0 (the mirror gives d < 0), alpha_cos at
        # every d with a non-empty row
        return {
            (family, d)
            for family in ("alpha_ft", "alpha_cos")
            for d in range(0 if family == "alpha_ft" else -t, t + 1)
            if coefficient_row(t, family, d)
        }

    @classmethod
    def _sweeps_match_horner(cls, t):
        for c2 in cls.C2:
            num, den = c2.numerator, c2.denominator
            unit = den ** (t // 2)
            values = _sweep_rows(t, num, den, unit, _read_keys(range(-t, t + 1, 2)))
            assert set(values) == cls._keys(t), (t, c2)
            for (family, d), n in values.items():
                # Horner on one numerator over den^(len - 1)
                row, acc = coefficient_row(t, family, d), 0
                for j, c in enumerate(reversed(row)):
                    acc = acc * num + c * den**j
                want = Fraction(acc, den ** (len(row) - 1))
                assert Fraction(n, unit) == want, (t, c2, family, d)

    def test_sweeps_match_horner(self):
        for t in range(61):
            self._sweeps_match_horner(t)

    @pytest.mark.parametrize("t", [301, 400])
    def test_sweeps_match_horner_large_t(self, t):
        self._sweeps_match_horner(t)

    @pytest.mark.parametrize("theta", [0.05, math.pi / 2 - 0.01, math.pi / 2, math.pi - 0.05])
    def test_fixed_point_sweeps_match_horner(self, theta):
        # the same x = floor(cos^2 2^wp) as the adaptive mode; each value
        # within L 2^-wp of its row's scale sum_j |c_j| cos^2j
        t = 301
        wp = arithmetic.precision_for(coefficient_bits(t))
        with mpmath.workprec(wp):
            cos = mpmath.cos(CoinParams.make(theta).theta.mp_radians())
            x = int(to_fixed((cos * cos)._mpf_, wp))
        values = _sweep_rows(t, x, 1 << wp, 1 << wp, _read_keys(range(-t, t + 1, 2)))
        assert set(values) == self._keys(t)
        for (family, d), n in values.items():
            row = coefficient_row(t, family, d)
            horner = scale = 0
            for c in reversed(row):
                horner = ((horner * x) >> wp) + (c << wp)
                scale = ((scale * x) >> wp) + (abs(c) << wp)
            assert abs(n - horner) << wp <= len(row) * scale, (theta, family, d)


def _ring(a, b=0, c=0, d=0):
    return SqrtTwoComplex(SqrtTwo(a, b), SqrtTwo(c, d))


def _fraction_horner_rows(cos: SqrtTwo, t: int):
    """A stand-in for ``_rational_rows``: rows(ds) with each R a Fraction
    Horner sum of its coefficient_row, as ``TestRowSweeps`` sums them,
    times the ring power cos^h0; a row path that shares nothing with the
    sweeps."""
    c2 = (cos * cos).a

    def value(family, d):
        p = Fraction(0)
        for c in reversed(coefficient_row(t, family, d)):
            p = p * c2 + c
        return DyadicComplex.of(SqrtTwoComplex(SqrtTwo(p) * cos ** _first_h(t, family, d)))

    return lambda ds: {key: value(*key) for key in _read_keys(ds) - {("alpha_cos", t)}}


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


_EVERY_SITE_CASES = pytest.mark.parametrize(
    "n_sources,coin",
    [
        (1, ("1/4 pi", "3/4 pi", "3/2 pi")),
        (2, ("3/4 pi", "1/4 pi", "1/2 pi")),
        (3, ("1/2 pi", "5/4 pi", "0 pi")),
        (3, ("1/4 pi", "7/4 pi", "1/4 pi")),
    ],
)


class TestRowPaths:
    # each mode has one row path: exact and adaptive make every row by the
    # sweeps, which read only their outermost rows, a point query running
    # them only as far as its distances need; double sums every row by
    # Horner
    PARAMS = CoinParams.make("3/4 pi", "1/4 pi", "1/2 pi")

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = collections.Counter()
        for name in ("_sweeps", "coefficient_row"):

            def counted(*args, _name=name, _call=getattr(closedform_pure, name)):
                counts[_name] += 1
                return _call(*args)

            monkeypatch.setattr(closedform_pure, name, counted)
        return counts

    @pytest.mark.parametrize("mode", ["exact", "double"])
    def test_point_query_makes_at_most_three_rows(self, calls, monkeypatch, mode):
        # a one-site query reads three rows at most, and makes no other:
        # double sums just those by Horner, exact sweeps once and converts
        # only those
        made = []
        rows = closedform_pure._rows

        def recorded(s, ds):
            out = rows(s, ds)
            made.append(len(out.keys() - {("alpha_cos", s.t)}))
            return out

        monkeypatch.setattr(closedform_pure, "_rows", recorded)
        init = _RING_STARTS[0] if mode == "exact" else _RING_STARTS[0].to_float()
        for x in (-60, -6, 0, 2, 58, 60):
            calls.clear()
            made.clear()
            amplitude(x, 60, init, self.PARAMS, mode)
            assert calls["_sweeps"] == (mode == "exact"), x
            assert len(made) == 1 and 0 < made[0] <= 3, x
            if mode == "double":
                assert 0 < calls["coefficient_row"] <= 3, x

    def test_adaptive_point_query_sweeps_only_to_its_distance(self, calls, monkeypatch):
        # in adaptive and exact mode alike, one pass for all sources: each
        # sweep runs from its edge to the innermost distance d that the
        # query needs, (t - |d|)/2 + 1 values, and reads only its two
        # outermost rows
        spans = []
        sweeps = closedform_pure._sweeps

        def recorded(*args):
            out = sweeps(*args)
            spans.extend(len(span) for _, span, _ in out)
            return out

        monkeypatch.setattr(closedform_pure, "_sweeps", recorded)
        t = 60
        for mode, init in (("adaptive", _RING_STARTS[2].to_float()), ("exact", _RING_STARTS[2])):
            for x in (-62, -6, 0, 1, 2, 58, 63):  # sources at -2, 0 and 3
                calls.clear()
                spans.clear()
                amplitude(x, t, init, self.PARAMS, mode)
                inner = min(abs(x - xp) for xp in (-2, 0, 3) if (x - xp - t) % 2 == 0)
                assert len(spans) == 3, (mode, x)
                assert max(spans) <= (t - inner) // 2 + 1, (mode, x)
                assert calls["coefficient_row"] <= 6, (mode, x)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("ds", [(0,), (-6,), (60,), (-60, 2), range(-60, 61, 2)])
    def test_rows_are_the_keys_the_kernels_read(self, mode, ds):
        # every mode makes R only for the keys that _read_keys names, plus
        # the one empty row it states, so no swept value is converted in
        # vain
        t = 60
        with mpmath.workprec(working_precision(t)):
            s = _scalars(self.PARAMS, t, mode)
            assert _rows(s, ds).keys() == _read_keys(ds) | {("alpha_cos", t)}

    @pytest.mark.parametrize("mode", ["exact", "adaptive"])
    def test_distribution_sweeps_once(self, calls, mode):
        init = _RING_STARTS[2] if mode == "exact" else _RING_STARTS[2].to_float()
        distribution(60, init, self.PARAMS, mode)
        assert calls["_sweeps"] == 1
        assert 0 < calls["coefficient_row"] <= 6

    def test_a_row_the_sweeps_miss_raises(self, monkeypatch):
        # the kernels index the rows, so a gap in the sweeps cannot fall
        # back to Horner unseen
        sweep = closedform_pure._sweep_rows

        def with_gap(*args):
            rows = sweep(*args)
            del rows["alpha_cos", 0]
            return rows

        monkeypatch.setattr(closedform_pure, "_sweep_rows", with_gap)
        with pytest.raises(KeyError):
            distribution(60, _RING_STARTS[0], self.PARAMS, "exact")

    def test_double_never_sweeps(self, calls, hadamard, plus_i):
        distribution(20, plus_i.to_float(), hadamard, "double")
        assert calls["_sweeps"] == 0
        assert calls["coefficient_row"] > 0


def _fresh(x, t, init, params):
    """repr of an adaptive point query that sweeps from the edges, with no
    walk kept from before."""
    closedform_pure._last_walk = None
    return repr(amplitude(x, t, init, params))


def _walk_on(rng, n_sources):
    """A random off-grid coin and a float start on n_sources sites."""
    sites = rng.sample(range(-3, 4), n_sources)
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2 * n_sources)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    init = PureState({
        x: (amps[2 * i] / norm, amps[2 * i + 1] / norm) for i, x in enumerate(sites)
    })
    return init, random_params(rng)


_RESUME_CASES = pytest.mark.parametrize(
    "t,n_sources", [(t, n) for t in (1, 2, 7, 60, 301) for n in (1, 2, 3)]
)


class TestResumedSweeps:
    # the adaptive sweeps of the last walk are kept, and a later call on
    # that walk resumes them; every R depends on (t, d) alone, so each
    # answer has the bits of a query that sweeps from the edges, in any
    # order of queries and whatever ran between them

    @_RESUME_CASES
    def test_every_site_in_any_order(self, t, n_sources):
        rng = random.Random(1000 * t + n_sources)
        init, params = _walk_on(rng, n_sources)
        sites = list(_every_site(init, t))
        want = {x: _fresh(x, t, init, params) for x in sites}
        shuffled = sites[:]
        rng.shuffle(shuffled)
        for order in (sites, sites[::-1], shuffled):
            closedform_pure._last_walk = None
            for x in order:
                assert repr(amplitude(x, t, init, params)) == want[x], (order[0], x)

    @_RESUME_CASES
    def test_interleaved_with_other_walks(self, t, n_sources):
        # walk A between walks on another coin at t and on A's coin at
        # another t, each call replacing the walk kept
        rng = random.Random(2000 * t + n_sources)
        init, params = _walk_on(rng, n_sources)
        other_init, other_params = _walk_on(rng, n_sources)
        walks = [(t, init, params), (t, other_init, other_params), (t + 3, init, params)]
        queries = [
            (walk, x) for walk in walks
            for x in rng.sample(_every_site(walk[1], walk[0]), min(t + 3, 60))
        ]
        rng.shuffle(queries)
        want = {(w[0], w[2], x): _fresh(x, *w) for w, x in queries}
        closedform_pure._last_walk = None
        for (s, i, p), x in queries:
            assert repr(amplitude(x, s, i, p)) == want[s, p, x], (s, x)

    @_RESUME_CASES
    def test_under_another_working_precision(self, t, n_sources):
        rng = random.Random(3000 * t + n_sources)
        init, params = _walk_on(rng, n_sources)
        sites = list(_every_site(init, t))
        want = {x: _fresh(x, t, init, params) for x in sites}
        closedform_pure._last_walk = None
        for x in sites:
            with mpmath.workprec(rng.choice([20, 53, 500])):
                assert repr(amplitude(x, t, init, params)) == want[x], x

    @_RESUME_CASES
    def test_before_and_after_a_distribution(self, t, n_sources):
        rng = random.Random(4000 * t + n_sources)
        init, params = _walk_on(rng, n_sources)
        sites = list(_every_site(init, t))
        rng.shuffle(sites)
        want = {x: _fresh(x, t, init, params) for x in sites}
        closedform_pure._last_walk = None
        whole = repr(sorted(distribution(t, init, params).items()))
        half = len(sites) // 2
        closedform_pure._last_walk = None
        for x in sites[:half]:
            assert repr(amplitude(x, t, init, params)) == want[x], x
        assert repr(sorted(distribution(t, init, params).items())) == whole
        for x in sites[half:]:
            assert repr(amplitude(x, t, init, params)) == want[x], x

    def test_a_repeat_query_sweeps_nothing(self, monkeypatch):
        counts = collections.Counter()
        for name in ("coefficient_row", "_coefficients"):

            def counted(*args, _name=name, _call=getattr(closedform_pure, name), **kw):
                counts[_name] += 1
                return _call(*args, **kw)

            monkeypatch.setattr(closedform_pure, name, counted)
        init, params = _walk_on(random.Random(5), 3)
        for x in (0, 1):  # one of them is on the light cone
            amplitude(x, 60, init, params)
        assert counts["coefficient_row"] > 0 and counts["_coefficients"] > 0
        for x in (-60, 0, 61, 1):
            amplitude(x, 60, init, params)
            counts.clear()
            amplitude(x, 60, init, params)
            assert counts == {}, x
        distribution(60, init, params)
        counts.clear()
        distribution(60, init, params)
        for x in range(-64, 65):
            amplitude(x, 60, init, params)
        assert counts == {}

    def test_only_the_last_walk_is_kept(self):
        rng = random.Random(6)
        walk_a, walk_b = _walk_on(rng, 2), _walk_on(rng, 3)
        amplitude(5, 60, *walk_b)
        alone = closedform_pure._last_walk.values
        closedform_pure._last_walk = None
        distribution(301, *walk_a)
        amplitude(5, 60, *walk_b)
        kept = closedform_pure._last_walk
        assert kept.key[0] == 60 and kept.values == alone

    def test_threads_racing_on_the_kept_walk_get_fresh_bits(self):
        # four threads query two walks in their own orders, switching
        # every microsecond; mpmath's precision is one global, so it is
        # pinned to the walks' working precision, which both share, for
        # the threads' workprec blocks to leave it as it is
        rng = random.Random(7)
        walks = [(60, *_walk_on(rng, 2)), (61, *_walk_on(rng, 3))]
        queries = [(w, x) for w in walks for x in _every_site(w[1], w[0])]
        want = {(w[0], x): _fresh(x, *w) for w, x in queries}
        got = []

        def worker(seed):
            order = queries[:]
            random.Random(seed).shuffle(order)
            for (t, init, params), x in order:
                got.append(((t, x), repr(amplitude(x, t, init, params))))

        closedform_pure._last_walk = None
        interval, prec = sys.getswitchinterval(), mpmath.mp.prec
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        try:
            sys.setswitchinterval(1e-6)
            mpmath.mp.prec = working_precision(60)
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            mpmath.mp.prec = prec
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 4 * len(queries)
        for key, value in got:
            assert value == want[key], key

    @pytest.mark.parametrize("t", [1, 2, 60, 301, 600])
    def test_a_walk_keeps_about_one_and_a_half_t_rows(self, t):
        init, params = _walk_on(random.Random(t), 3)
        distribution(t, init, params)
        assert len(closedform_pure._last_walk.values) <= 1.5 * t + 6


class TestAdaptiveAgainstExact:
    # on the eighth-turn grid the exact closed form is the truth; the
    # adaptive rows, kernels and site sums must land within 1e-15 of it,
    # site by site (point queries, which resume the sweeps of the walk's
    # last query as far as each needs) and all at once (full
    # distributions)
    @staticmethod
    def _every_site_within_1e15(t, n_sources, coin, at_once):
        init, params = _RING_STARTS[n_sources - 1], CoinParams.make(*coin)
        sites = _every_site(init, t)
        exact = _amplitudes(sites, t, init, params, "exact")
        if at_once:
            adaptive = _amplitudes(sites, t, init, params, "adaptive")
        else:
            adaptive = [amplitude(x, t, init, params) for x in sites]
        for x, got, want in zip(sites, adaptive, exact):
            for g, w in zip(got, want):
                assert abs(g - w.to_complex()) <= 1e-15, x

    @pytest.mark.parametrize("t", [140, 301])
    @_EVERY_SITE_CASES
    def test_every_site_within_1e15(self, t, n_sources, coin):
        self._every_site_within_1e15(t, n_sources, coin, at_once=False)

    @pytest.mark.parametrize("t", [140, 301])
    @_EVERY_SITE_CASES
    def test_every_site_within_1e15_by_sweeps(self, t, n_sources, coin):
        self._every_site_within_1e15(t, n_sources, coin, at_once=True)

    def test_past_the_sweeps_everything_is_float64(self):
        # past the sweeps nothing is an mpmath or Python-int number: the
        # rows are floats, the kernels a complex128 array, and the site
        # sums Python complex
        t = 60
        init = PureState({-1: (0.6 + 0j, 0.8j), 2: (0j, 1.0 + 0j)})
        with mpmath.workprec(working_precision(t)):
            s = _scalars(CoinParams.make(0.7, 1.1, 2.3), t, "adaptive")
            sources = [
                (xp, (s.lift(a), s.lift(b))) for xp, (a, b) in init.amplitudes.items()
            ]
            ds = range(-t, t + 1, 2)
            rows = _rows(s, ds)
            for key, value in rows.items():
                if key != ("alpha_cos", t):  # the empty row, 0
                    assert type(value) is float, key
            assert all(type(v) in (float, complex) for v in (s.cos, s.sin, s.ephi1, s.chi_pow(7)))
            d0, kernels = closedform_pure._float_kernels(s, ds, rows)
            assert d0 == -t and kernels.dtype == np.complex128 and kernels.shape == (4, t + 1)
            sites = _every_site(init, t)
            for pair in closedform_pure._float_sites(sites, sources, d0, kernels):
                for value in pair:
                    assert type(value) is complex, pair

    def test_products_round_each_real_operation_once(self):
        # the float stage's complex products equal the same sums of
        # products in Python floats, bit for bit, so no multiply and add
        # are fused on any host, and a point query and a distribution
        # keep the same bits
        rng = np.random.default_rng(5)
        k = rng.standard_normal(257) + 1j * rng.standard_normal(257)
        for z in (0.3 + 0.7j, -1.1 + 0.2j, complex(*rng.standard_normal(2))):
            re, im = closedform_pure._product(k, z)
            assert re.tolist() == [x.real * z.real - x.imag * z.imag for x in k.tolist()]
            assert im.tolist() == [x.real * z.imag + x.imag * z.real for x in k.tolist()]

    def test_exact_kernels_and_sites_stay_dyadic(self):
        # past the rows nothing is reduced: the kernel entries and the
        # site sums are DyadicComplex, the sources lifted over their
        # common denominator 60
        t, init = 60, _RING_STARTS[2]
        s = _scalars(CoinParams.make("3/4 pi", "5/4 pi", "1/4 pi"), t, "exact", 60)
        sources = [(xp, (s.lift(a), s.lift(b))) for xp, (a, b) in init.amplitudes.items()]
        beta = sources[2][1][1]  # 1/3 - sqrt2/5 at x' = 3
        assert (beta.p, beta.q, beta.r, beta.s, beta.k) == (20, -12, 0, 0, 0)
        ds = range(-t, t + 1, 2)
        kernels = _kernels(s, ds, _rows(s, ds))
        for d in ds:
            for entry in (e for row in kernels[d] for e in row):
                assert type(entry) is DyadicComplex, d
        for x in _every_site(init, t):
            for value in _site(x, sources, kernels, s.zero):
                assert type(value) is DyadicComplex, x


def _horner_scalars(t: int, params: CoinParams) -> closedform_pure._Scalars:
    """Scalars for the generic kernels and site sums at wp =
    coefficient_bits(t) + 256 bits, the current mpmath precision: cos,
    sin and every phase an mpf or mpc, chi^e as expj(e (phi1 + phi2)), and
    every row summed by Horner's rule on wp-bit fixed-point integers, then
    times an mpf power of cos. A path that shares nothing with the sweeps
    or the float stage after them, 192 bits wider than the 64 guard bits
    that keep a Horner sum within 1e-15 (``arithmetic.precision_for``)."""
    wp = mpmath.mp.prec
    cos = mpmath.cos(params.theta.mp_radians())
    sin = mpmath.sin(params.theta.mp_radians())
    phi = params.phi1.mp_radians() + params.phi2.mp_radians()
    c2, cos_pow = int(to_fixed((cos * cos)._mpf_, wp)), cache(cos.__pow__)

    def value(family, d):
        acc = 0
        for c in reversed(coefficient_row(t, family, d)):
            acc = ((acc * c2) >> wp) + (c << wp)
        return mpmath.mpf((acc, -wp)) * cos_pow(_first_h(t, family, d))

    def rows(ds):
        return {key: value(*key) for key in _read_keys(ds) - {("alpha_cos", t)}}

    return closedform_pure._Scalars(
        t, cos, sin, mpmath.expj(params.phi1.mp_radians()),
        chi_pow=lambda e: mpmath.expj(e * phi), lift=mpmath.mpc, zero=mpmath.mpc(0),
        rows=rows,
    )


def _horner_reference(xs, t: int, init: PureState, params: CoinParams, probabilities=False) -> list:
    """Amplitude pairs at the sites xs from ``_horner_scalars`` and the
    module's generic kernels and site sums at that width, as complex, or
    with ``probabilities`` |alpha|^2 + |beta|^2 as an mpf at each site."""
    init = init.to_float()
    if t == 0:
        return [init.amplitude(x) for x in xs]
    with mpmath.workprec(coefficient_bits(t) + 256):
        s = _horner_scalars(t, params)
        sources = [(xp, (s.lift(a), s.lift(b))) for xp, (a, b) in init.amplitudes.items()]
        ds = {x - xp for x in xs for xp, _ in sources} & set(range(-t, t + 1, 2))
        kernels = _kernels(s, ds, _rows(s, ds))
        pairs = [_site(x, sources, kernels, s.zero) for x in xs]
        if probabilities:
            return [abs(a) ** 2 + abs(b) ** 2 for a, b in pairs]
        return [tuple(map(complex, pair)) for pair in pairs]


class TestAdaptivePrecision:
    # the adaptive rows come from the sweeps at SWEEP_BITS + bitlen(t)
    # bits; the amplitudes must match a Horner reference whose fixed point
    # is wider than the largest trinomial by 256 bits, within 1e-15
    PARAMS = CoinParams.make(0.9, 0.4, 1.3)

    THETAS = pytest.mark.parametrize(
        "theta", [0.05, 0.7, math.pi / 2 - 0.01, math.pi / 2, math.pi - 0.05]
    )

    @staticmethod
    def _every_site(theta, t, at_once, step=1):
        # near theta = 0 and pi |R| grows as 1/|sin theta|; near pi/2 the
        # powers of cos fall below 2^-wp towards the light-cone edge
        init = random_state(random.Random(29), radius=2)
        params = CoinParams.make(theta, 0.4, 1.3)
        sites = _every_site(init, t)[::step]
        if at_once:
            got = _amplitudes(sites, t, init, params, "adaptive")
        else:
            got = [amplitude(x, t, init, params) for x in sites]
        want = _horner_reference(sites, t, init, params)
        for x, g, w in zip(sites, got, want):
            _amps_close(g, w, tol=1e-15)

    @THETAS
    def test_every_site_at_t301_matches_256_guard_bits(self, theta):
        self._every_site(theta, 301, at_once=False)

    @THETAS
    def test_every_site_at_t301_by_sweeps_matches_256_guard_bits(self, theta):
        self._every_site(theta, 301, at_once=True)

    @THETAS
    def test_sites_at_t600_match_256_guard_bits(self, theta):
        # point queries at every 9th site, a distribution's sweeps at all
        self._every_site(theta, 600, at_once=False, step=9)
        self._every_site(theta, 600, at_once=True)

    @THETAS
    def test_small_t_match_256_guard_bits(self, theta):
        for t in range(4):
            self._every_site(theta, t, at_once=False)
            self._every_site(theta, t, at_once=True)

    def test_amplitudes_at_t600_match_256_guard_bits(self, plus_i):
        t = 600
        peak = round(t * math.cos(0.9))
        sites = (-t, -t + 2, -peak, 0, peak, t - 2, t)
        want = _horner_reference(sites, t, plus_i, self.PARAMS)
        for x, pair in zip(sites, want):
            _amps_close(amplitude(x, t, plus_i, self.PARAMS), pair, tol=1e-15)

    @pytest.mark.parametrize("coin", [(0.7, 1.1, 2.3), (0.9, "1/4 pi", "3/4 pi"), (0.3, 6.2, 6.28)])
    def test_chi_powers_within_an_ulp(self, coin):
        # chi^e by the reduction of e (phi1 + phi2) mod 2 pi on integers:
        # each part within 2^-52 of mpmath's at 400 bits for every e up to
        # t, where an angle e phi in floats is off by about e ulps
        params, rng = CoinParams.make(*coin), random.Random(3)
        for t in (600, 10**5, 10**7):
            wp = working_precision(t)
            *_, phi, two_pi = closedform_pure._coin_constants(params, wp)
            chi_pow = closedform_pure._phases(phi, two_pi, wp)
            with mpmath.workprec(400):
                angle = params.phi1.mp_radians() + params.phi2.mp_radians()
                for e in [*range(20), *rng.sample(range(t + 1), 100), t]:
                    got, want = chi_pow(e), mpmath.expj(e * angle)
                    assert abs(got.real - want.real) <= 2**-52, (t, e)
                    assert abs(got.imag - want.imag) <= 2**-52, (t, e)

    # Relative bound on the far tails, fixed once from a measurement: over
    # t in {301, 600}, these three coins and three starts, the largest
    # relative gap to the reference where it reads P < 1e-60 was 3.1e-15
    TAIL_RELATIVE = 1e-14

    @pytest.mark.parametrize("t", [301, 600])
    @pytest.mark.parametrize("coin", [(0.7, 1.1, 2.3), (0.9, 0.4, 1.3), (2.4, 5.0, 0.2)])
    def test_far_tails_relative_to_256_guard_bits(self, t, coin):
        # floats past the sweeps keep the tails' relative precision, where
        # a fixed point of wp bits reads 0 or about 2^-2wp; the reference
        # is summed at the sites where direct stepping gives P < 1e-50, a
        # superset of those where the reference gives P < 1e-60
        params = CoinParams.make(*coin)
        starts = (
            PureState({0: (0.6 + 0j, 0j), 3: (0j, 0.8j)}),
            random_state(random.Random(29), radius=2),
        )
        for init in starts:
            got = distribution(t, init, params)
            direct = distribution_of(evolve_pure(init, params, t), t)
            sites = [x for x in got.positions if direct[x] < 1e-50]
            want = _horner_reference(sites, t, init, params, probabilities=True)
            tail = [(x, p) for x, p in zip(sites, want) if p < 1e-60]
            assert len(tail) >= 10
            for x, p in tail:
                assert abs(got[x] - p) <= self.TAIL_RELATIVE * p, x

    def test_distribution_at_t140_matches_256_guard_bits(self):
        rng = random.Random(23)
        init = random_state(rng, radius=2)
        t = 140
        got = distribution(t, init, self.PARAMS)
        want = _horner_reference(got.positions, t, init, self.PARAMS)
        for x, (a, b) in zip(got.positions, want):
            assert got[x] == pytest.approx(abs(a) ** 2 + abs(b) ** 2, abs=1e-15), x

    @THETAS
    def test_swept_rows_match_256_guard_bits(self, theta):
        # the envelope of the module docstring: every swept R, its exact
        # (mantissa, exponent) pair, within 2^-(SWEEP_BITS - 4) of the
        # reference's row, at t = 301
        t, params = 301, CoinParams.make(theta, 0.4, 1.3)
        ds = range(-t, t + 1, 2)
        wp = working_precision(t)
        mp_cos, c2, *_ = closedform_pure._coin_constants(params, wp)
        with mpmath.workprec(wp):
            got = closedform_pure._float_rows(mp_cos, c2, wp, t)(ds)
        with mpmath.workprec(coefficient_bits(t) + 256):
            want = _rows(_horner_scalars(t, params), ds)
        assert got.keys() == want.keys() - {("alpha_cos", t)}
        assert want["alpha_cos", t] == 0  # the empty row
        for key, (m, e) in got.items():
            sign, man, exp, _ = want[key]._mpf_
            w = (-1) ** sign * Fraction(int(man)) * Fraction(2) ** int(exp)
            error = abs(Fraction(m) * Fraction(2) ** e - w)
            assert error <= Fraction(1, 2 ** (closedform_pure.SWEEP_BITS - 4)), key
