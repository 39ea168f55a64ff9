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

Every factor but alpha_{x'} and beta_{x'} depends on d alone, so the
closed form is a position-space propagator: (alpha_x, beta_x)(t) is the
sum over sources of K_t(x - x') (alpha_{x'}, beta_{x'}).

The terms of one (family, d) group share every factor but their signed
trinomial and cos^h, and h steps by 2, so each group is one integer row
c_0, c_1, .. (``coefficient_row``: the first from ``term_coefficient``,
the rest by the exact multinomial ratio) evaluated as a polynomial in
cos^2(theta) by Horner's rule. Let R(f, d) be that value times cos^h0,
h0 the row's first h (the extra cos of the cos_plus families left out),
and 0 for an empty row. The six rows are only two distinct ones, mirrored
in d: beta_ft = alpha_ft, beta_sin = alpha_cos, beta_cos = -alpha_sin,
alpha_ft(-d) = (-1)^t alpha_ft(d) and alpha_sin(d) = (-1)^(t-1)
alpha_cos(-d) (``test_row_identities`` checks all five). So with
e = (t - d)/2,

    Rft  = R(alpha_ft, |d|), negated when d < 0 and t is odd,
    Rc   = R(alpha_cos, d),
    S    = (-1)^(t-1) R(alpha_cos, -d)        (= R(alpha_sin, d)),

    K_t(d) = [[ chi^e (Rft + cos(theta) Rc),
                e^{i phi1} sin(theta) chi^e S ],
              [ e^{-i phi1} sin(theta) chi^e Rc,
                chi^e (Rft - cos(theta) S) ]]

and K_t(d) = 0 off the light cone or at the wrong parity. The beta <- alpha
phase e^{-i phi1} chi^e could also be written e^{i phi2} chi^{e-1}; the two
are equal because chi = e^{i(phi1+phi2)}, which the ring test
``test_cross_phase_spellings_agree`` checks on every eighth-turn pair, so
only the first is used.

Three arithmetic modes: ``exact`` (ring Q[sqrt(2)][i], eighth-turn coins
only), ``adaptive`` (mpmath, precision sized from the largest trinomial
plus guard bits), ``double`` (floats; cancellation-prone at large t by
design, so the failure stays demonstrable). All three build the same
kernels; a mode only supplies the scalars and the row-evaluation rule:

* exact: cos^2 is 0, 1/2 or 1, so Horner runs on one integer numerator
  over a power of its denominator and is reduced once;
* adaptive: Horner on Python integers in fixed point, cos^2 taken as a
  wp-bit integer with wp the working precision, so the coefficients
  enter exactly and a row of length L is off by about L 2^-guard;
* double: Horner in floats.

chi^e is an integer power of the ring element in exact mode and of the
complex chi in double mode; in adaptive mode it is one
``mpmath.expj(e (phi1 + phi2))`` at the working precision, which costs a
fraction of mpmath's integer power at these precisions. In every mode it
is a function of (t, d) alone, so a point query and a full distribution
give the same bits.

Powers of cos, the row values R and the kernels K_t(d) are made on first
use and memoised for the rest of the call, so a full distribution sums
about 1.5t rows (Rft at each |d|, Rc at each d) and builds each kernel
once for all its sources and sites, and a single-site query sums 3 rows
per kernel it needs.
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


class _Family(NamedTuple):
    dt: int      # 0 for the f_t families, 1 for the f_{t-1} families
    p0: int      # p = (h + p0 + d)/2
    q0: int      # q = (h + q0 - d)/2, sign of the term is (-1)^q
    cos_plus: bool   # cos exponent is h+1 instead of h
    negate: bool     # overall minus sign


# The paper's six term families. Only alpha_ft and alpha_cos are summed:
# the other four rows equal +-these, at d or at -d (module docstring), and
# _Scalars.kernel builds all four kernel entries from the three values
# R(alpha_ft, |d|), R(alpha_cos, d) and R(alpha_cos, -d). The other
# entries stay as the spec that admissible_terms, term_coefficient and
# coefficient_row serve and the tests check the identities against.
FAMILIES: dict[str, _Family] = {
    "alpha_ft": _Family(0, 0, 0, False, False),
    "alpha_cos": _Family(1, 1, -1, True, False),
    "alpha_sin": _Family(1, -1, 1, False, False),
    "beta_ft": _Family(0, 0, 0, False, False),
    "beta_sin": _Family(1, 1, -1, False, False),
    "beta_cos": _Family(1, -1, 1, True, True),
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
    """Row evaluation by Horner's rule in floats. A row with a coefficient
    past the float range (t near 1000) has no float value: NaN."""

    def evaluate(row):
        acc = 0
        try:
            for c in reversed(row):
                acc = acc * c2 + c
        except OverflowError:
            return math.nan
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
    """Every factor of the closed form in one arithmetic mode's number type.

    Powers of cos, row values and kernels are made on first use and kept
    in ``memo`` for the rest of the call, so a full distribution computes
    each once and a point query pays only for what it needs.
    """

    t: int
    cos: object
    sin: object
    ephi1: object
    chi_pow: Callable    # e -> chi^e, a function of e alone
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

    def row_value(self, family: str, d: int):
        """sum_h term_coefficient(t, family, d, h) cos^h over one group's
        admissible h (the cos_plus factor left out), or 0 if it has none."""

        def make():
            row = coefficient_row(self.t, family, d)
            if not row:
                return 0
            h0 = self.t - FAMILIES[family].dt - 2 * (len(row) - 1)
            return self.evaluate(row) * self.cos_pow(h0)

        return self._cached((family, d), make)

    def kernel(self, d: int):
        """The 2x2 propagator K_t(d) as ((K_aa, K_ab), (K_ba, K_bb)), or
        None off the light cone or at the wrong parity."""

        def make():
            t = self.t
            if abs(d) > t or (t - d) % 2:
                return None
            # the three row values of the module docstring: Rft, Rc, S
            ft = self.row_value("alpha_ft", abs(d))
            if d < 0 and t % 2:
                ft = -ft
            rc = self.row_value("alpha_cos", d)
            s = self.row_value("alpha_cos", -d)
            if t % 2 == 0:
                s = -s
            chi_e = self.chi_pow((t - d) // 2)
            return (
                (chi_e * (ft + self.cos * rc),
                 self.ephi1 * chi_e * (self.sin * s)),
                (self.ephi1.conjugate() * chi_e * (self.sin * rc),
                 chi_e * (ft - self.cos * s)),
            )

        return self._cached(("kernel", d), make)


def _to_ring(value) -> SqrtTwoComplex:
    return SqrtTwoComplex.zero() + value


def _expj(angle: Angle) -> complex:
    return complex(math.cos(angle.radians), math.sin(angle.radians))


def _mp_expj(angle: Angle):
    value = mpmath.expjpi(mpmath.mpf(angle.pi_num) / angle.pi_den)
    if angle.offset:
        value = value * mpmath.expj(mpmath.mpf(angle.offset))
    return value


def _scalars(params: CoinParams, t: int, mode: str) -> _Scalars:
    """The scalar bundle of one mode; adaptive values are made at the
    current mpmath working precision."""
    if mode == "exact":
        if not params.exact_capable:
            raise ValueError("exact mode needs coin angles on the eighth-turn grid")
        cos, sin = params.theta.cos_exact(), params.theta.sin_exact()
        chi_pow, ephi1 = params.chi_exact().__pow__, params.phi1.exp_i_exact()
        # cos^2 is 0, 1/2 or 1 on the eighth-turn grid
        c2 = cos * cos
        assert c2.b == 0
        lift, evaluate = _to_ring, _rational_horner(c2.a)
    elif mode == "adaptive":
        th = params.theta.mp_radians()
        cos, sin = mpmath.cos(th), mpmath.sin(th)
        ephi1 = _mp_expj(params.phi1)
        phi_sum = params.phi1.mp_radians() + params.phi2.mp_radians()
        chi_pow = lambda e: mpmath.expj(e * phi_sum)
        lift, evaluate = mpmath.mpc, _fixed_point_horner(cos * cos, mpmath.mp.prec)
    else:
        th = params.theta.radians
        cos, sin = math.cos(th), math.sin(th)
        chi_pow, ephi1 = params.chi.__pow__, _expj(params.phi1)
        lift, evaluate = complex, _float_horner(cos * cos)
    return _Scalars(t, cos, sin, ephi1, chi_pow, lift, evaluate)


def _site(x: int, sources: list, s: _Scalars):
    """(alpha_x(t), beta_x(t)) in the bundle's number type: the sum over
    source sites x' of K_t(x - x') applied to the source's pair."""
    alpha = beta = s.lift(0)
    for xp, (a, b) in sources:
        k = s.kernel(x - xp)
        if k is not None:
            alpha = alpha + k[0][0] * a + k[0][1] * b
            beta = beta + k[1][0] * a + k[1][1] * b
    return alpha, beta


def _abs_sq(z: complex) -> float:
    """|z|^2, or inf where it passes the float range (double mode far past
    its cliff, as at t=600)."""
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def _amplitudes(xs, t: int, init: PureState, params: CoinParams, mode: str) -> list:
    """Amplitude pairs at the sites xs: ring elements in exact mode,
    complex otherwise. The bundle and the working precision are set up
    once for all sites."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
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
        s = _scalars(params, t, mode)
        sources = [
            (xp, (s.lift(alpha), s.lift(beta)))
            for xp, (alpha, beta) in init.amplitudes.items()
        ]
        pairs = [_site(x, sources, s) for x in xs]
    if mode != "adaptive":
        return pairs
    return [(complex(a), complex(b)) for a, b in pairs]


def amplitude(
    x: int,
    t: int,
    init: PureState,
    params: CoinParams,
    mode: str = "adaptive",
):
    """Amplitude pair (alpha_x(t), beta_x(t)) by the closed form.

    Returns ring elements in exact mode, complex otherwise. Positions
    outside the light cone give exact zeros.
    """
    (pair,) = _amplitudes((x,), t, init, params, mode)
    return pair


def distribution(
    t: int,
    init: PureState,
    params: CoinParams,
    mode: str = "adaptive",
) -> Distribution:
    """Closed-form distribution on the full light-cone span of the initial
    support, parity-forbidden sites included as exact zeros.

    In the float modes a RuntimeWarning reports a total probability that
    is not within NORM_TOLERANCE (relative) of the initial norm: the sums
    have then lost their precision, as ``double`` does past t ~ 40, or
    left the float range (an inf or NaN total).
    """
    lo, hi = init.span
    grid = range(lo - t, hi + t + 1)
    pairs = zip(grid, _amplitudes(grid, t, init, params, mode))
    if mode == "exact":
        exact = {x: a.abs_sq() + b.abs_sq() for x, (a, b) in pairs}
        probs = {x: float(v) for x, v in exact.items()}
        return Distribution(probs, t=t, method="closed-form", mode="exact", exact=exact)
    probs = {x: _abs_sq(a) + _abs_sq(b) for x, (a, b) in pairs}
    dist = Distribution(probs, t=t, method="closed-form", mode=mode)
    # a plain sum, as fsum raises where finite terms overflow it; "not
    # within" rather than "off by more", so that a NaN total warns too
    total, norm = dist.total(), init.norm_sq()
    if not abs(total - norm) <= NORM_TOLERANCE * norm:
        warnings.warn(
            f"closed form in {mode} mode at t={t}: probabilities sum to "
            f"{total:.10g}, not {norm:.10g}",
            RuntimeWarning,
            stacklevel=2,
        )
    return dist
