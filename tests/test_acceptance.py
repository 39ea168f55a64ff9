"""End-to-end acceptance gates.

One test per shipped claim, each at its stated tolerance, so a plain
``pytest -v tests/test_acceptance.py`` reads as a pass/fail checklist.
The tests print a one-line summary with the measured numbers; run with
``-s`` to see them for passing tests too.
"""

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
from qwalk.core import CoinParams, MixedLocalizedState, max_pointwise_difference
from qwalk.direct import distribution_of, evolve_mixed, evolve_pure, step
from qwalk.horner import (
    CharPolyQuad,
    CharPolyQuartic,
    f_quad,
    f_quad_sequence,
    f_quartic,
    f_quartic_sequence,
    quartic_coeffs,
    superop,
    superop_power,
    u_k,
    u_k_power,
)
from qwalk.spectral import evolve_spectral
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
        c = CharPolyQuartic(
            *(Fraction(v.real) for v in (fc.c0, fc.c1, fc.c2, fc.c3))
        )
        t = rng.randint(0, 50)
        assert f_quartic(c, t) == f_quartic_sequence(c, t)[t]
    for _ in range(10):
        c = CharPolyQuad(
            SqrtTwoComplex(SqrtTwo(rr(), rr()), SqrtTwo(rr(), rr())),
            SqrtTwoComplex(SqrtTwo(rr(), rr()), SqrtTwo(rr(), rr())),
        )
        t = rng.randint(0, 50)
        assert f_quad(c, t) == f_quad_sequence(c, t)[t]
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


def _assert_exact_routes_identical(t, hadamard, plus_i):
    # from (|0> + i|1>)/sqrt2, direct stepping and the closed form give
    # the same element of Q(sqrt2) at every site.
    start = time.perf_counter()
    oracle = distribution_of(evolve_pure(plus_i, hadamard, t), t)
    closed = cf_distribution(t, plus_i, hadamard, mode="exact")
    elapsed = time.perf_counter() - start
    assert set(oracle.exact) == set(closed.exact) == set(range(-t, t + 1))
    for x, value in oracle.exact.items():
        assert closed.exact[x] == value, x
    assert sum(oracle.exact.values(), SqrtTwo()) == SqrtTwo(1, 0)
    print(
        f"\nPASS exact t={t}: direct and closed form ring-identical, "
        f"{elapsed:.2f}s"
    )


def test_exact_direct_and_closed_form_identical_at_t200(hadamard, plus_i):
    _assert_exact_routes_identical(200, hadamard, plus_i)


def test_exact_direct_and_closed_form_identical_at_t400(hadamard, plus_i):
    _assert_exact_routes_identical(400, hadamard, plus_i)


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
