"""End-to-end acceptance gates.

One test per shipped claim, each at its stated tolerance, so a plain
``pytest -v tests/test_acceptance.py`` reads as a pass/fail checklist.
The tests print a one-line summary with the measured numbers; run with
``-s`` to see them for passing tests too.
"""

import cmath
import hashlib
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import random_bloch, random_params, random_state
from qwalk.arithmetic import SqrtTwo, SqrtTwoComplex
from qwalk.closedform_mixed import KERNELS, integral_identity, kernel_value
from qwalk.closedform_pure import amplitude as cf_amplitude
from qwalk.closedform_pure import distribution as cf_distribution
from qwalk.core import CoinParams, MixedLocalizedState, PureState, max_pointwise_difference
from qwalk.direct import distribution_of, evolve_mixed, evolve_pure, step
from qwalk.horner import (
    f_explicit,
    f_sequence,
    quartic_coeffs,
    superop,
    superop_power,
    u_k,
    u_k_power,
)
from qwalk.spectral import evolve_spectral, simulate
from qwalk.verify import compare_mixed, compare_pure


def test_symmetric_hadamard_t40_three_methods_agree(hadamard, plus_i):
    # t = 40 from (|0> + i|1>)/sqrt2: all three methods pairwise within
    # TV 1e-10, odd sites exactly zero in exact arithmetic, mirror
    # symmetric to 1e-12, under 10 seconds.
    start = time.perf_counter()
    report = compare_pure(
        plus_i, hadamard, 40, mode="exact", check_symmetry=True
    )
    elapsed = time.perf_counter() - start
    assert report.passed, report.failures
    assert max(report.pairwise_tv.values()) <= 1e-10
    for name in ("direct", "closed-form"):
        dist = report.distributions[name]
        for x, p in dist.items():
            if x % 2:
                assert p == 0.0, (name, x)
    assert report.symmetry_defect <= 1e-12
    assert elapsed <= 10.0, f"ran {elapsed:.1f}s, budget 10s"
    print(
        f"\nPASS symmetric t=40: max TV {max(report.pairwise_tv.values()):.2e}, "
        f"symmetry {report.symmetry_defect:.2e}, odd sites exactly 0, "
        f"{elapsed:.2f}s"
    )


def test_unbiased_mixed_t25_three_methods_agree():
    # r = (1/2, 0, 0, 0) at t = 25: oracle, consistent pipeline, and the
    # compact closed form agree pointwise to 1e-10 and live exactly on
    # the odd sublattice, under 30 seconds.
    start = time.perf_counter()
    report = compare_mixed(
        (0.5, 0.0, 0.0, 0.0), 25, methods=("direct", "consistent", "literal")
    )
    elapsed = time.perf_counter() - start
    assert report.passed, report.failures
    assert max(report.pairwise_pointwise.values()) <= 1e-10
    for name, dist in report.distributions.items():
        for y, p in dist.items():
            if y % 2 == 0:
                assert p == 0.0, (name, y)
            else:
                assert p > 0.0, (name, y)
    assert elapsed <= 30.0, f"ran {elapsed:.1f}s, budget 30s"
    print(
        f"\nPASS unbiased mixed t=25: max pointwise "
        f"{max(report.pairwise_pointwise.values()):.2e}, odd support, "
        f"{elapsed:.2f}s"
    )


def test_random_coins_closed_form_amplitudes_match_direct():
    # 50 seeded draws of coin angles and a delocalized start (radius <= 3),
    # t <= 30: closed-form amplitudes match position-space evolution to
    # 1e-10 component by component.
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(50):
        params = random_params(rng)
        init = random_state(rng, radius=3)
        t = rng.randint(0, 30)
        final = evolve_pure(init, params, t)
        lo, hi = init.span
        for x in range(lo - t, hi + t + 1):
            want_a, want_b = final.amplitude(x)
            got_a, got_b = cf_amplitude(x, t, init, params)
            worst = max(
                worst,
                abs(complex(got_a) - complex(want_a)),
                abs(complex(got_b) - complex(want_b)),
            )
        assert worst <= 1e-10, f"amplitude deviation {worst:.2e} at t={t}"
    print(f"\nPASS random-coin amplitudes: 50 draws, worst {worst:.2e}")


def test_matrix_powers_and_f_sequences():
    # 100 random draws each: the quadratic power identity vs repeated
    # multiplication (1e-12) and the quartic analog (1e-12); then the
    # explicit f sums vs the recurrences for t <= 50, run in exact
    # arithmetic because the double-precision partition sums shed digits
    # long before t = 50 (that cliff has its own test below).
    rng = random.Random(7)
    worst_quad = worst_quartic = 0.0
    for _ in range(100):
        params = random_params(rng)
        k = rng.uniform(-math.pi, math.pi)
        t = rng.randint(0, 30)
        diff = np.max(
            np.abs(
                u_k_power(params, k, t)
                - np.linalg.matrix_power(u_k(params, k), t)
            )
        )
        worst_quad = max(worst_quad, diff)
    assert worst_quad <= 1e-12
    for _ in range(100):
        k = rng.uniform(-math.pi, math.pi)
        kp = rng.uniform(-math.pi, math.pi)
        t = rng.randint(0, 30)
        diff = np.max(
            np.abs(
                superop_power(k, kp, t)
                - np.linalg.matrix_power(superop(k, kp), t)
            )
        )
        worst_quartic = max(worst_quartic, diff)
    assert worst_quartic <= 1e-12

    def rr() -> Fraction:
        return Fraction(rng.randint(-2, 2), 4)

    for _ in range(10):
        fc = quartic_coeffs(rng.uniform(-3, 3), rng.uniform(-3, 3))
        c = tuple(Fraction(v.real) for v in fc)
        t = rng.randint(0, 50)
        assert f_explicit(c, t) == f_sequence(c, t)[t]
    for _ in range(10):
        c = (
            SqrtTwoComplex(SqrtTwo(rr(), rr()), SqrtTwo(rr(), rr())),
            SqrtTwoComplex(SqrtTwo(rr(), rr()), SqrtTwo(rr(), rr())),
        )
        t = rng.randint(0, 50)
        assert f_explicit(c, t) == f_sequence(c, t)[t]
    print(
        f"\nPASS power identities: quad worst {worst_quad:.2e}, "
        f"quartic worst {worst_quartic:.2e}, f explicit == recurrence exactly"
    )


def test_integral_identities_against_quadrature():
    # all seven trig kernels against a 64-node uniform product grid, which
    # integrates these low-degree trig polynomials exactly; random integer
    # site pairs in [-6, 6]^2 beyond the tabulated support, tolerance 1e-10
    n = 64
    ks = 2.0 * math.pi * np.arange(n) / n
    rng = random.Random(11)
    worst = 0.0
    for kernel in KERNELS:
        imag, entries = integral_identity(kernel)
        grid = np.array([[kernel_value(kernel, u, v) for v in ks] for u in ks])
        pairs = {(a, b) for a, b, _ in entries}
        while len(pairs) < 14:
            pairs.add((rng.randint(-6, 6), rng.randint(-6, 6)))
        for a, b in sorted(pairs):
            pa = np.exp(1j * ks * a)
            pb = np.exp(1j * ks * b)
            quad = complex(pa @ grid @ pb) / n**2
            total = sum(f for aa, bb, f in entries if (aa, bb) == (a, b))
            want = complex(Fraction(total))
            if imag:
                want = want / 1j
            worst = max(worst, abs(quad - want))
            assert abs(quad - want) <= 1e-10, (kernel, a, b)
    print(f"\nPASS integral identities: {len(KERNELS)} kernels, worst {worst:.2e}")


def test_mixed_closed_form_adjudication():
    # the coherent probe r = (1/2, 1/2, 0, 0) at t = 2: the density-matrix
    # oracle gives {0: 1/2, 2: 1/2} (four lines by hand); the consistent
    # kernel table must match it, and the compact closed form's deviating
    # value {-2: 1/4, 0: 1/2, 2: 1/4} is pinned as a regression record.
    # Then: consistent matches the oracle on 100 random Bloch states,
    # t <= 20, to 1e-10 per point.
    probe = (0.5, 0.5, 0.0, 0.0)
    report = compare_mixed(probe, 2, methods=("direct", "consistent", "literal"))
    oracle = report.distributions["direct"]
    assert oracle[0] == pytest.approx(0.5, abs=1e-15)
    assert oracle[2] == pytest.approx(0.5, abs=1e-15)
    assert oracle[-2] == pytest.approx(0.0, abs=1e-15)
    assert report.pairwise_pointwise["direct|consistent"] <= 1e-10
    literal = report.distributions["literal"]
    assert literal[-2] == pytest.approx(0.25, abs=1e-15)
    assert literal[0] == pytest.approx(0.5, abs=1e-15)
    assert literal[2] == pytest.approx(0.25, abs=1e-15)
    assert not report.passed  # the deviation is on record, not hidden

    rng = random.Random(13)
    worst = 0.0
    for _ in range(100):
        r = random_bloch(rng)
        t = rng.randint(0, 20)
        got = compare_mixed(r, t, methods=("direct", "consistent"))
        assert got.passed, got.failures
        worst = max(worst, got.pairwise_pointwise["direct|consistent"])
        assert worst <= 1e-10
    print(
        f"\nPASS adjudication: oracle {{0: 1/2, 2: 1/2}} matched by "
        f"consistent (literal records {{-2: 1/4, 0: 1/2, 2: 1/4}}); "
        f"100 random states worst {worst:.2e}"
    )


def test_double_precision_fails_where_adaptive_passes(hadamard, plus_i):
    # t = 40 closed form: the trinomial coefficients cancel through ~40
    # bits, so plain double arithmetic must breach the 1e-10 bound while
    # the adaptive precision path stays inside it. Both numbers are the
    # record.
    t = 40
    reference = distribution_of(evolve_pure(plus_i, hadamard, t), t)
    dbl = cf_distribution(t, plus_i, hadamard, mode="double")
    ada = cf_distribution(t, plus_i, hadamard, mode="adaptive")
    dbl_err = max_pointwise_difference(dbl, reference)
    ada_err = max_pointwise_difference(ada, reference)
    assert dbl_err > 1e-10, (
        f"double-precision closed form unexpectedly accurate: {dbl_err:.2e}"
    )
    assert ada_err <= 1e-10, f"adaptive deviation {ada_err:.2e}"
    print(
        f"\nPASS cancellation stress t=40: double off by {dbl_err:.2e} "
        f"(> 1e-10 as expected), adaptive {ada_err:.2e} (<= 1e-10)"
    )


EXACT_DIGESTS = Path(__file__).parent / "data" / "exact_distribution_digests.json"


def _exact_digest(dist) -> str:
    return hashlib.sha256(repr(sorted(dist.exact.items())).encode()).hexdigest()


def test_exact_distributions_match_pinned_digests(hadamard, plus_i):
    # SHA-256 of repr(sorted(dist.exact.items())), recorded from the ring
    # on Fraction pairs that the integer-numerator ring replaced: direct
    # and closed form on Hadamard from (|0> + i|1>)/sqrt2 for every
    # t <= 60, two coins with every angle an odd multiple of pi/4 at
    # t = 7, 33, 60, and the unbiased mixed state at t = 25.
    pinned = json.loads(EXACT_DIGESTS.read_text())
    assert len(pinned["direct"]) == len(pinned["closed-form"]) == 61
    state = plus_i
    for t in range(61):
        assert _exact_digest(distribution_of(state, t)) == pinned["direct"][t], t
        dist = cf_distribution(t, plus_i, hadamard, mode="exact")
        assert _exact_digest(dist) == pinned["closed-form"][t], t
        state = step(state, hadamard)
    assert len(pinned["variants"]) == 2
    for coin, by_method in pinned["variants"].items():
        params = CoinParams.make(*coin.split(","))
        for t_text, want in by_method["direct"].items():
            t = int(t_text)
            got = _exact_digest(distribution_of(evolve_pure(plus_i, params, t), t))
            assert got == want, (coin, t)
        for t_text, want in by_method["closed-form"].items():
            t = int(t_text)
            got = _exact_digest(cf_distribution(t, plus_i, params, mode="exact"))
            assert got == want, (coin, t)
    unbiased = MixedLocalizedState.from_pauli(0.5, 0.0, 0.0, 0.0)
    got = _exact_digest(evolve_mixed(unbiased, hadamard, 25))
    assert got == pinned["mixed-direct-unbiased-t25"]
    print("\nPASS pinned exact digests: t <= 60, two eighth-turn coins, mixed t=25")


def _assert_exact_routes_identical(t, params, plus_i):
    # from (|0> + i|1>)/sqrt2, direct stepping and the closed form give
    # the same element of Q(sqrt2) at every site.
    start = time.perf_counter()
    oracle = distribution_of(evolve_pure(plus_i, params, t), t)
    closed = cf_distribution(t, plus_i, params, mode="exact")
    elapsed = time.perf_counter() - start
    assert set(oracle.exact) == set(closed.exact) == set(range(-t, t + 1))
    for x, value in oracle.exact.items():
        assert closed.exact[x] == value, x
    assert sum(oracle.exact.values(), SqrtTwo()) == SqrtTwo(1, 0)
    print(
        f"\nPASS exact t={t}, coin {params}: direct and closed form "
        f"ring-identical, {elapsed:.2f}s"
    )


def test_exact_direct_and_closed_form_identical_at_t200(hadamard, plus_i):
    _assert_exact_routes_identical(200, hadamard, plus_i)


def test_exact_direct_and_closed_form_identical_at_t400(hadamard, plus_i):
    _assert_exact_routes_identical(400, hadamard, plus_i)


def test_exact_direct_and_closed_form_identical_at_t800(hadamard, plus_i):
    _assert_exact_routes_identical(800, hadamard, plus_i)


def test_exact_routes_identical_at_t400_on_a_phased_coin(plus_i):
    # every angle an odd multiple of pi/4: the off-diagonal entries are
    # -(1 + i)/2 and (1 + i)/2, and chi = e^{i 3pi/2}
    params = CoinParams.make("3/4 pi", "5/4 pi", "1/4 pi")
    _assert_exact_routes_identical(400, params, plus_i)


def test_spectral_reaches_t2000(plus_i):
    # the momentum route on an off-grid coin: at t = 2000 against the
    # closed form's single-site amplitudes at both peaks (x ~ +-t cos theta)
    # and both light-cone edges, and at t = 1000 against direct stepping on
    # the whole window, every amplitude within 1e-12.
    theta = 0.9
    params = CoinParams.make(theta, 0.4, 1.3)
    start = time.perf_counter()
    t = 2000
    spec = evolve_spectral(plus_i, params, t)
    peak = 2 * round(t * math.cos(theta) / 2)
    worst_cf = max(
        abs(complex(u) - v)
        for x in (-t, -peak, peak, t)
        for u, v in zip(cf_amplitude(x, t, plus_i, params), spec.amplitude(x))
    )
    assert worst_cf <= 1e-12, f"closed-form deviation {worst_cf:.2e}"
    t = 1000
    oracle = evolve_pure(plus_i, params, t)
    spec = evolve_spectral(plus_i, params, t)
    worst_direct = max(
        abs(u - v)
        for x in range(-t, t + 1)
        for u, v in zip(oracle.amplitude(x), spec.amplitude(x))
    )
    assert worst_direct <= 1e-12, f"direct deviation {worst_direct:.2e}"
    elapsed = time.perf_counter() - start
    print(
        f"\nPASS spectral reach: closed form at t=2000 {worst_cf:.2e}, "
        f"direct at t=1000 {worst_direct:.2e}, {elapsed:.2f}s"
    )


def test_closed_form_reaches_t1600(plus_i):
    # the adaptive closed-form distribution, its rows by the sweeps in d,
    # against the momentum route on the off-grid coin of the spectral
    # reach gate, every site of the light cone within 1e-12
    params = CoinParams.make(0.9, 0.4, 1.3)
    t = 1600
    start = time.perf_counter()
    closed = cf_distribution(t, plus_i, params)
    elapsed = time.perf_counter() - start
    worst = max_pointwise_difference(closed, simulate(plus_i, params, t))
    assert worst <= 1e-12, f"closed-form deviation {worst:.2e}"
    print(
        f"\nPASS closed-form reach: spectral at t=1600 {worst:.2e}, "
        f"closed form {elapsed:.2f}s"
    )


def test_closed_form_reaches_t3200():
    # the adaptive closed-form distribution of the off-grid CI config's
    # coin, from (0.6, 0.8i e^{0.4i}) at the origin, against the momentum
    # route at every site within 1e-12: the reach of the sweeps in block
    # floating point, past the 2,000-bit fixed point a Horner sum needs
    params = CoinParams.make(0.7, 1.1, 2.3)
    init = PureState.localized(0, 0.6, 0.8j * cmath.exp(0.4j))
    t = 3200
    start = time.perf_counter()
    closed = cf_distribution(t, init, params)
    elapsed = time.perf_counter() - start
    worst = max_pointwise_difference(closed, simulate(init, params, t))
    assert worst <= 1e-12, f"closed-form deviation {worst:.2e}"
    print(
        f"\nPASS closed-form reach: spectral at t=3200 {worst:.2e}, "
        f"closed form {elapsed:.2f}s"
    )


def test_direct_reaches_t4000(plus_i):
    # float direct stepping against the momentum route on the off-grid coin
    # of the spectral reach gate, every amplitude of the whole window
    params = CoinParams.make(0.9, 0.4, 1.3)
    t = 4000
    start = time.perf_counter()
    oracle = evolve_pure(plus_i, params, t)
    elapsed = time.perf_counter() - start
    spec = evolve_spectral(plus_i, params, t)
    worst = max(
        abs(u - v)
        for x in range(-t, t + 1)
        for u, v in zip(oracle.amplitude(x), spec.amplitude(x))
    )
    assert worst <= 1e-12, f"direct deviation {worst:.2e}"
    print(f"\nPASS direct reach: spectral at t=4000 {worst:.2e}, direct {elapsed:.2f}s")


def _konno_limits(params, alpha, beta) -> tuple[float, float]:
    """(K L, L): the limits of E[X/t] and E[(X/t)^2] from the start
    (alpha, beta) at the origin (Konno, J. Math. Soc. Japan 57, 1179
    (2005)), with a = cos(theta) and b = e^{i phi1} sin(theta) the coin's
    first row, L = 1 - sqrt(1 - |a|^2) and
    K = |alpha|^2 - |beta|^2 + 2 Re(a alpha conj(b) conj(beta)) / |a|^2."""
    a = math.cos(params.theta.radians)
    b = cmath.exp(1j * params.phi1.radians) * math.sin(params.theta.radians)
    big_l = 1 - math.sqrt(1 - a * a)
    k = abs(alpha) ** 2 - abs(beta) ** 2 + 2 * (a * alpha * (b * beta).conjugate()).real / (a * a)
    return k * big_l, big_l


def test_spectral_holds_konno_limit_law_at_t10000():
    # a check from outside the code, which a convention shared by all
    # three routes would fail: at t = 10^4, |E[X/t] - K L| <= C1/t and
    # |E[(X/t)^2] - L| <= C2/t on a grid of coins and starts. C1 and C2
    # were fit once at t = 10^4 over 132 (coin, start) pairs, this grid
    # and 96 random ones at theta from 0.2 to 2.94: the worst were
    # t |m1 - K L| = 0.494 and t |m2 - L| = 1.3e-4, and C1 = 0.75,
    # C2 = 3e-4. In this code's convention the mean is +K L: the -K L
    # reading is off by up to about 13,000/t on this grid.
    t, c1, c2 = 10**4, 0.75, 3e-4
    coins = [
        CoinParams.make(0.7, 1.1, 2.3),
        CoinParams.hadamard(),
        CoinParams.make(2.2, 0.3, 4.0),
        CoinParams.make(0.35, 5.0, 1.0),
        CoinParams.make(1.2, 2.0, 0.5),
        CoinParams.make(2.8, 0.9, 3.3),
    ]
    h = 1 / math.sqrt(2)
    starts = [
        (0.6, 0.8j * cmath.exp(0.4j)), (1.0, 0.0), (0.0, 1.0),
        (h, 1j * h), (h, h), (0.8, -0.6j * cmath.exp(1.3j)),
    ]
    start = time.perf_counter()
    worst1 = worst2 = other_sign = 0.0
    means = {}
    for params in coins:
        for alpha, beta in starts:
            dist = simulate(PureState.localized(0, alpha, beta), params, t)
            x = np.array(dist.positions, dtype=float) / t
            p = np.array(list(dist.probs.values()))
            m1, m2 = float(x @ p), float((x * x) @ p)
            means[params, alpha, beta] = m1
            mean, second = _konno_limits(params, alpha, beta)
            assert abs(m1 - mean) <= c1 / t, (params, alpha, beta, m1, mean)
            assert abs(m2 - second) <= c2 / t, (params, alpha, beta, m2, second)
            worst1 = max(worst1, t * abs(m1 - mean))
            worst2 = max(worst2, t * abs(m2 - second))
            other_sign = max(other_sign, t * abs(m1 + mean))
    assert other_sign > 100 * c1, "the grid does not tell +K L from -K L"
    # the symmetric Hadamard start spreads both ways alike
    m1 = means[CoinParams.hadamard(), h, 1j * h]
    assert abs(m1) <= 1e-12, f"symmetric Hadamard mean {m1:.2e}"
    elapsed = time.perf_counter() - start
    print(
        f"\nPASS Konno's law at t={t}: t|m1 - KL| <= {worst1:.3f}, "
        f"t|m2 - L| <= {worst2:.2e}, -KL off by {other_sign:.0f}/t, {elapsed:.2f}s"
    )


def test_spectral_and_closed_form_agree_at_t10000():
    # past direct stepping's reach: the momentum route against the adaptive
    # closed form on the off-grid CI config's coin and start, every site of
    # the light cone within 1e-12
    params = CoinParams.make(0.7, 1.1, 2.3)
    init = PureState.localized(0, 0.6, 0.8j * cmath.exp(0.4j))
    t = 10**4
    start = time.perf_counter()
    spectral = simulate(init, params, t)
    elapsed = time.perf_counter() - start
    worst = max_pointwise_difference(cf_distribution(t, init, params), spectral)
    assert worst <= 1e-12, f"spectral and closed form differ by {worst:.2e}"
    print(f"\nPASS two routes at t={t}: {worst:.2e}, spectral {elapsed:.2f}s")
