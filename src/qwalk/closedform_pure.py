"""Closed-form position amplitudes for the pure-state walk.

For a walker prepared on finitely many sites, the amplitude pair at time t
is a finite double sum over source sites x' and an auxiliary index h. With
d = x - x', chi = e^{i(phi1+phi2)} and all factorial arguments required to
be non-negative integers (terms are dropped otherwise, never continued via
the Gamma function), the six term families are, schematically,

    alpha_x(t) =  sum_h (-1)^{(h-d)/2} T(t, h; d) cos^h(theta)
                      chi^{(t-d)/2} alpha_{x'}                      (F1)
               +  sum_h (-1)^{(h-1-d)/2} T(t-1, h; d+1...) cos^{h+1}(theta)
                      chi^{(t-d)/2} alpha_{x'}                      (F2)
               +  sum_h (-1)^{(h+1-d)/2} T(t-1, h; d-1...) cos^h(theta)
                      sin(theta) e^{i phi1} chi^{(t-d)/2} beta_{x'} (F3)

and mirror families F4..F6 for beta_x(t), where
T(m, h; ...) = ((m+h)/2)! / [((m-h)/2)! p! q!] is a trinomial whose lower
arguments p, q are the family-specific half-integers spelled out in the
table below. Admissibility (all arguments integral and non-negative) forces
h = |d| parity and confines support to the light cone |d| <= t.

The beta <- alpha cross family carries a phase that can be written two
equivalent ways: e^{-i phi1} chi^{(t-d)/2} or e^{+i phi2} chi^{(t-d)/2 - 1}
(identical because chi = e^{i(phi1+phi2)}). Both spellings are exposed via
``beta_cross_phase`` and tested to agree exactly.

The terms of one (family, d) group share every factor but their signed
trinomial and cos^h, and h steps by 2, so a group is one integer row
c_0, c_1, .. (``coefficient_row``: the first from ``term_coefficient``,
the rest by the exact multinomial ratio) evaluated as a polynomial in
cos^2(theta) by Horner's rule, times cos^(h0 + 1 if cos_plus else h0).

Three arithmetic modes: ``exact`` (ring Q[sqrt(2)][i], eighth-turn coins
only), ``adaptive`` (mpmath, precision sized from the largest trinomial
plus guard bits), ``double`` (floats; cancellation-prone at large t by
design, so the failure stays demonstrable). All three run the same family
loop; a mode only supplies the scalars and the row-evaluation rule:

* exact: cos^2 is 0, 1/2 or 1, so Horner runs on one integer numerator
  over a power of its denominator and is reduced once;
* adaptive: Horner on Python integers in fixed point, cos^2 taken as a
  wp-bit integer with wp the working precision, so the coefficients
  enter exactly and a row of length L is off by about L 2^-guard;
* double: Horner in floats.

Powers of cos and chi and the group values are made on first
use and memoised for the rest of the call, so a full distribution makes
each once and a single-site query pays O(t) for its rows.
"""

from __future__ import annotations

import math
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

import mpmath
from mpmath.libmp import to_fixed

from .arithmetic import Angle, SqrtTwo, SqrtTwoComplex, precision_for
from .core import CoinParams, Distribution, PureState

__all__ = [
    "FAMILIES",
    "admissible_terms",
    "term_coefficient",
    "coefficient_row",
    "coefficient_bits",
    "amplitude",
    "distribution",
]

MODES = ("exact", "adaptive", "double")
# Relative amount by which a float-mode distribution may miss the initial
# norm before it is reported as numerically meaningless.
NORM_TOLERANCE = 1e-6
BETA_CROSS_PHASES = ("phi1", "phi2")


class _Family(NamedTuple):
    target: str  # which output component the family feeds
    source: str  # which input component it reads
    dt: int      # 0 for the f_t families, 1 for the f_{t-1} families
    p0: int      # p = (h + p0 + d)/2
    q0: int      # q = (h + q0 - d)/2, sign of the term is (-1)^q
    cos_plus: bool   # cos exponent is h+1 instead of h
    use_sin: bool    # extra sin(theta) factor
    negate: bool     # overall minus sign
    phase: str       # "none" | "phi1" | "cross"


FAMILIES: dict[str, _Family] = {
    "alpha_ft": _Family("alpha", "alpha", 0, 0, 0, False, False, False, "none"),
    "alpha_cos": _Family("alpha", "alpha", 1, 1, -1, True, False, False, "none"),
    "alpha_sin": _Family("alpha", "beta", 1, -1, 1, False, True, False, "phi1"),
    "beta_ft": _Family("beta", "beta", 0, 0, 0, False, False, False, "none"),
    "beta_sin": _Family("beta", "alpha", 1, 1, -1, False, True, False, "cross"),
    "beta_cos": _Family("beta", "beta", 1, -1, 1, True, False, True, "none"),
}


def admissible_terms(x: int, t: int, xp: int, family: str) -> Iterator[int]:
    """Yield the admissible h values for one (destination, source, family).

    A term survives iff every factorial argument is a non-negative integer;
    equivalently h has the right parity and clears the family's offsets.
    """
    fam = FAMILIES.get(family)
    if fam is None:
        raise ValueError(f"unknown family {family!r}")
    d = x - xp
    m = t - fam.dt
    if m < 0:
        return
    if (fam.p0 + d - m) % 2:
        return
    h0 = max(0, -(fam.p0 + d), d - fam.q0)
    h0 += (m - h0) % 2
    for h in range(h0, m + 1, 2):
        yield h


def term_coefficient(t: int, family: str, d: int, h: int) -> int:
    """Signed integer coefficient of one admissible term (the trinomial
    times the term's sign), excluding the cos/sin/phase factors."""
    fam = FAMILIES[family]
    m = t - fam.dt
    n = (m + h) // 2
    a = (m - h) // 2
    p = (h + fam.p0 + d) // 2
    q = (h + fam.q0 - d) // 2
    if min(a, p, q) < 0:
        raise ValueError("term is not admissible")
    coeff = math.comb(n, a) * math.comb(n - a, p)
    if (q + fam.negate) % 2:
        coeff = -coeff
    return coeff


@lru_cache(maxsize=None)
def coefficient_bits(t: int) -> int:
    """Bit length of the largest trinomial any family can produce at time t.

    Used to size the adaptive working precision before any summation
    happens. Cached: it depends on t alone and costs milliseconds at
    t in the hundreds, which every single-site query would pay again.
    """
    worst = 1
    for m in (t, t - 1):
        for h in range(max(m % 2, 0), m + 1, 2):
            n = (m + h) // 2
            a = (m - h) // 2
            c = math.comb(n, a) * math.comb(n - a, (h + 1) // 2)
            if c > worst:
                worst = c
    return worst.bit_length()


def coefficient_row(t: int, family: str, d: int) -> list[int]:
    """The coefficients term_coefficient(t, family, d, h) of one group, for
    its admissible h in increasing order; empty if there are none.

    Only the first comes from ``term_coefficient``. The coefficient is the
    multinomial n! / (a! p! q!) with a + p + q = n (p0 + q0 = 0 in every
    family), and stepping h -> h + 2 takes (n, a, p, q) to
    (n + 1, a - 1, p + 1, q + 1) and flips the sign, so each next one is
    -c (n + 1) a / ((p + 1)(q + 1)), an exact division. The last h of a
    row is always t - dt.
    """
    h0 = next(admissible_terms(d, t, 0, family), None)
    if h0 is None:
        return []
    fam = FAMILIES[family]
    m = t - fam.dt
    c = term_coefficient(t, family, d, h0)
    n, a = (m + h0) // 2, (m - h0) // 2
    p, q = (h0 + fam.p0 + d) // 2, (h0 + fam.q0 - d) // 2
    row = [c]
    while a:
        n, p, q = n + 1, p + 1, q + 1
        c = -c * n * a // (p * q)
        a -= 1
        row.append(c)
    return row


def _float_horner(c2: float) -> Callable:
    """Row evaluation by Horner's rule in floats."""

    def evaluate(row):
        acc = 0
        for c in reversed(row):
            acc = acc * c2 + c
        return acc

    return evaluate


def _rational_horner(c2: Fraction) -> Callable:
    """Exact row evaluation by Horner's rule on one integer numerator over
    a power of c2's denominator, reduced once at the end."""
    num, den = c2.numerator, c2.denominator

    def evaluate(row):
        acc, scale = 0, 1
        for c in reversed(row):
            acc = acc * num + c * scale
            scale *= den
        return SqrtTwo(Fraction(acc, scale // den))

    return evaluate


def _fixed_point_horner(c2: mpmath.mpf, wp: int) -> Callable:
    """Row evaluation by Horner's rule on wp-bit fixed-point integers.

    c2 becomes the integer floor(c2 2^wp), and every product is shifted back
    by wp bits, so the integer coefficients enter exactly and each step
    loses at most one unit of 2^-wp. With wp = coefficient bits + guard
    bits, the absolute error of a row of length L is about L 2^-guard.
    """
    x = to_fixed(c2._mpf_, wp)

    def evaluate(row):
        acc = 0
        for c in reversed(row):
            acc = ((acc * x) >> wp) + (c << wp)
        return mpmath.mpf((acc, -wp))

    return evaluate


@dataclass(frozen=True)
class _Scalars:
    """Every factor of the family loop in one arithmetic mode's number type.

    Powers of cos and chi and group sums are made on first use and
    kept in ``memo`` for the rest of the call, so a full distribution
    computes each once and a point query pays only for what it needs.
    """

    t: int
    cos: object
    sin: object
    chi: object
    chi_inv: object
    ephi1: object
    cross: object    # beta <- alpha phase, times chi^(e + cross_shift)
    cross_shift: int
    lift: Callable       # source amplitude (or 0) -> the mode's complex type
    evaluate: Callable   # integer row -> its value at cos^2(theta)
    memo: dict = field(default_factory=dict)

    def _cached(self, key, make):
        try:
            return self.memo[key]
        except KeyError:
            value = self.memo[key] = make()
            return value

    def cos_pow(self, k: int):
        return self._cached(("cos", k), lambda: self.cos**k)

    def chi_pow(self, e: int):
        return self._cached(
            ("chi", e), lambda: self.chi**e if e >= 0 else self.chi_inv ** (-e)
        )

    def group(self, family: str, d: int):
        """sum_h term_coefficient(t, family, d, h) cos^(h + cos_plus), the
        real h-sum of one group, or None if it has no terms."""

        def make():
            row = coefficient_row(self.t, family, d)
            if not row:
                return None
            fam = FAMILIES[family]
            h0 = self.t - fam.dt - 2 * (len(row) - 1)
            return self.evaluate(row) * self.cos_pow(h0 + fam.cos_plus)

        return self._cached((family, d), make)


def _to_ring(value) -> SqrtTwoComplex:
    return SqrtTwoComplex.zero() + value


def _expj(angle: Angle) -> complex:
    return complex(math.cos(angle.radians), math.sin(angle.radians))


def _mp_expj(angle: Angle):
    value = mpmath.expjpi(mpmath.mpf(angle.pi_num) / angle.pi_den)
    if angle.offset:
        value = value * mpmath.expj(mpmath.mpf(angle.offset))
    return value


def _scalars(params: CoinParams, t: int, mode: str, beta_cross_phase: str) -> _Scalars:
    """The scalar bundle of one mode; adaptive values are made at the
    current mpmath working precision."""
    if mode == "exact":
        if not params.exact_capable:
            raise ValueError("exact mode needs coin angles on the eighth-turn grid")
        cos, sin = params.theta.cos_exact(), params.theta.sin_exact()
        chi = params.chi_exact()
        ephi1, ephi2 = params.phi1.exp_i_exact(), params.phi2.exp_i_exact()
        # cos^2 is 0, 1/2 or 1 on the eighth-turn grid
        c2 = cos * cos
        assert c2.b == 0
        lift, evaluate = _to_ring, _rational_horner(c2.a)
    elif mode == "adaptive":
        th = params.theta.mp_radians()
        cos, sin = mpmath.cos(th), mpmath.sin(th)
        ephi1, ephi2 = _mp_expj(params.phi1), _mp_expj(params.phi2)
        chi = ephi1 * ephi2
        lift, evaluate = mpmath.mpc, _fixed_point_horner(cos * cos, mpmath.mp.prec)
    else:
        th = params.theta.radians
        cos, sin = math.cos(th), math.sin(th)
        chi, ephi1, ephi2 = params.chi, _expj(params.phi1), _expj(params.phi2)
        lift, evaluate = complex, _float_horner(cos * cos)
    if beta_cross_phase == "phi1":
        cross, cross_shift = ephi1.conjugate(), 0
    else:
        cross, cross_shift = ephi2, -1
    return _Scalars(
        t, cos, sin, chi, chi.conjugate(), ephi1, cross, cross_shift, lift, evaluate
    )


def _family_loop(x: int, t: int, sources: list, s: _Scalars):
    """(alpha_x(t), beta_x(t)) in the bundle's number type. The admissible
    terms of one (source site, family) group share every factor but the
    real h-sum, so each group costs one complex multiply."""
    out = {"alpha": s.lift(0), "beta": s.lift(0)}
    for xp, src in sources:
        d = x - xp
        if abs(d) > t or (t - d) % 2:
            continue
        e = (t - d) // 2
        chi_e = s.chi_pow(e)
        phase = {
            "none": chi_e,
            "phi1": s.ephi1 * chi_e,
            "cross": s.cross * s.chi_pow(e + s.cross_shift),
        }
        for name, fam in FAMILIES.items():
            total = s.group(name, d)
            if total is None:
                continue
            factor = src[fam.source] * phase[fam.phase]
            if fam.use_sin:
                factor = factor * s.sin
            out[fam.target] = out[fam.target] + factor * total
    return out["alpha"], out["beta"]


def _amplitudes(xs, t: int, init: PureState, params: CoinParams, mode: str,
                beta_cross_phase: str) -> list:
    """Amplitude pairs at the sites xs: ring elements in exact mode,
    complex otherwise. The bundle and the working precision are set up
    once for all sites."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if beta_cross_phase not in BETA_CROSS_PHASES:
        raise ValueError(f"unknown beta_cross_phase {beta_cross_phase!r}")
    if mode == "exact":
        if not init.exact:
            raise ValueError("exact mode needs ring-valued initial amplitudes")
    else:
        init = init.to_float()
    if t == 0:
        return [init.amplitude(x) for x in xs]
    if mode == "adaptive":
        precision = mpmath.workprec(precision_for(coefficient_bits(t)))
    else:
        precision = nullcontext()
    with precision:
        s = _scalars(params, t, mode, beta_cross_phase)
        sources = [
            (xp, {"alpha": s.lift(alpha), "beta": s.lift(beta)})
            for xp, (alpha, beta) in init.amplitudes.items()
        ]
        pairs = [_family_loop(x, t, sources, s) for x in xs]
    if mode != "adaptive":
        return pairs
    return [(complex(a), complex(b)) for a, b in pairs]


def amplitude(
    x: int,
    t: int,
    init: PureState,
    params: CoinParams,
    mode: str = "adaptive",
    beta_cross_phase: str = "phi1",
):
    """Amplitude pair (alpha_x(t), beta_x(t)) by the closed form.

    Returns ring elements in exact mode, complex otherwise. Positions
    outside the light cone give exact zeros.
    """
    (pair,) = _amplitudes((x,), t, init, params, mode, beta_cross_phase)
    return pair


def distribution(
    t: int,
    init: PureState,
    params: CoinParams,
    mode: str = "adaptive",
    beta_cross_phase: str = "phi1",
) -> Distribution:
    """Closed-form distribution on the full light-cone span of the initial
    support, parity-forbidden sites included as exact zeros.

    In the float modes a RuntimeWarning reports a total probability that
    misses the initial norm by more than NORM_TOLERANCE (relative): the
    sums have then lost their precision, as ``double`` does past t ~ 40.
    """
    lo, hi = init.span
    grid = range(lo - t, hi + t + 1)
    pairs = zip(grid, _amplitudes(grid, t, init, params, mode, beta_cross_phase))
    if mode == "exact":
        exact = {x: a.abs_sq() + b.abs_sq() for x, (a, b) in pairs}
        probs = {x: float(v) for x, v in exact.items()}
        return Distribution(probs, t=t, method="closed-form", mode="exact", exact=exact)
    probs = {x: abs(a) ** 2 + abs(b) ** 2 for x, (a, b) in pairs}
    total, norm = math.fsum(probs.values()), init.norm_sq()
    if abs(total - norm) > NORM_TOLERANCE * norm:
        warnings.warn(
            f"closed form in {mode} mode at t={t}: probabilities sum to "
            f"{total:.10g}, not {norm:.10g}",
            RuntimeWarning,
            stacklevel=2,
        )
    return Distribution(probs, t=t, method="closed-form", mode=mode)
