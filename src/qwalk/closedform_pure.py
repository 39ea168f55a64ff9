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
the rest by the exact multinomial ratio), a polynomial in c2 =
cos^2(theta). Let P(f, d) = sum_j c_j c2^j be its bare sum and
R(f, d) = P(f, d) cos^h0, h0 the row's first h (the extra cos of the
cos_plus families left out), both 0 for an empty row. The six rows are
only two distinct ones, mirrored in d: beta_ft = alpha_ft, beta_sin =
alpha_cos, beta_cos = -alpha_sin, alpha_ft(-d) = (-1)^t alpha_ft(d) and
alpha_sin(d) = (-1)^(t-1) alpha_cos(-d) (``test_row_identities`` checks
all five). So with e = (t - d)/2,

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

P is a terminating hypergeometric sum in c2, a Jacobi polynomial in the
walk literature (Konno, Quantum Inf. Process. 1, 345 (2002)), so its
values at neighbouring d obey three-term recurrences, of the kind that
Zeilberger's creative telescoping (Petkovsek, Wilf & Zeilberger, "A = B",
ch. 6) or Gauss's contiguous relations prove. For d of the parity of t:

    alpha_ft, from d = t down to 0 or 1 (d < 0 by the mirror identity):
      (d+1)(d+t)(d-t-2) P(d-2) = -[(d-1)(d-t)(d+t+2) c2^2 P(d+2)
                                   + d((4-2c2)(d^2-1) - 2(t+1)^2 c2) P(d)]
    alpha_cos, from d = t-2 down to 0 or -1:
      (d+2)(d-t)(d+t) P(d-2) = -[d(d+2-t)(d+2+t) c2^2 P(d+2)
                                 + (d+1)((4-2c2) d(d+2) - 2t^2 c2) P(d)]
    alpha_cos, from d = -t up to -2 or -3:
      d(d+2-t)(d+2+t) P(d+2) = -[(d+1)((4-2c2) d(d+2) - 2t^2 c2) P(d)
                                 + (d+2)(d-t)(d+t) c2^2 P(d-2)]

Each sweep takes its two outermost values from their rows, of length 1
and 2, and the rest from the recurrence (``_sweep_rows``). On its range
every divisor on the left is a nonzero integer and none is c2, so
theta = pi/2 (c2 = 0) needs no case of its own. Inward from a light-cone
edge the wanted solution is the growing one, so each sweep runs inward
and they meet near d = 0. Run on past the far peak into the other edge's
tail, where it decays, the recurrence would amplify its rounding (by
1e71 in floats at t=1600). The recurrences were fitted, not derived;
``TestRowSweeps`` checks them exactly in Fractions against the Horner
sums, for every d at t <= 60, 301 and 400 on seven values of c2.

The closed form runs in three stages over ds, the distances d = x - x'
from the sources to the sites asked for that lie on the light cone at
the parity of t (``_site_sums``). ``_rows`` makes one dict of the row
values that the kernels read, keyed (alpha_ft, |d|), (alpha_cos, d) and
(alpha_cos, -d) for each d, an empty row (alpha_cos at d = t) stored as
0. A full distribution (``distribution``) needs every d, and in
``exact`` and ``adaptive`` mode takes them all from the three sweeps,
about 1.5t recurrence steps in place of about 1.5t Horner rows of up to
t/2 terms. A point query (``amplitude``) needs three rows per kernel
and sums each by Horner's rule, which costs less than the sweeps would:
in fixed point at theta = 0.9 the three rows of the centre kernel took
0.86 ms at t = 300 and 3.7 ms at t = 600, the three sweeps 3.2 and
13.5 ms, and a kernel nearer the edge has shorter rows. ``double`` keeps
Horner everywhere, so its precision cliff stays demonstrable.
``_kernels`` reads the dict by index into one table {d: K_t(d)}, so a
key the rows did not make raises, and ``_site`` sums K_t(x - x') times
each source's pair. So a full distribution makes each R and each kernel
once, and a point query at one site from one source at most 3 rows and
one kernel.

Three arithmetic modes: ``exact`` (ring Q[sqrt(2)][i], eighth-turn coins
only), ``adaptive`` (fixed-point integers, precision sized from the largest
trinomial plus guard bits), ``double`` (floats; cancellation-prone at large
t by design, so the failure stays demonstrable). All three build the same
kernels; a mode only supplies the scalars and the rules that make P
(Horner, sweeps) and turn it into R:

* exact: c2 is 0, 1/2 or 1, so P is one integer over a power of 2 that
  no row outgrows; Horner and the sweeps are exact on it. On the
  eighth-turn grid cos, sin and every phase have a denominator dividing
  2, so R and every value after it (cos, sin, e^{i phi1}, chi^e, the
  kernel entries and the site sums) is a ``DyadicComplex``: four integer
  numerators of Z[sqrt(2)][i] over a power of 2, which sums align and
  products multiply and no operation reduces. The sources are lifted as
  their numerators over their common denominator D, and each amplitude,
  or each site's |alpha|^2 + |beta|^2 in a distribution, is brought to
  lowest terms once, over D 2^k, at the end;
* adaptive: P on Python integers in fixed point, c2 taken as the wp-bit
  integer floor(c2 2^wp) with wp the working precision, so the
  coefficients enter exactly. Every value after that (R, cos, sin,
  e^{i phi1}, chi^e, the kernel entries, the lifted source amplitudes and
  the site sums) is a ``FixedComplex``, a Gaussian integer over 2^wp,
  converted to complex once at the end. mpmath makes cos, sin,
  e^{i phi1} and chi once per call, and cos^h0 once per h0, whose
  mantissa and exponent multiply the integer P exactly;
* double: Horner in floats.

chi^e is chi^(e mod 8) in exact mode, where chi is an eighth root of
unity, and an integer power of the complex chi in double mode; in
adaptive mode it is square-and-multiply of the fixed-point chi, each
power kept for the call. In every mode it is a function of (t, d)
alone, so it has the same bits in a point query and a full distribution;
their row values agree exactly in ``exact`` mode and within the envelope
below in ``adaptive`` mode.

The adaptive error envelope is absolute. A row of length L is off by
about L 2^-guard, its coefficients being up to 2^(wp - guard). A sweep
step rounds once, and inward from the edge its error stays on the same
scale: at t = 140 and 301 over theta from 0.05 to pi - 0.05, every swept
P was within 1e-71 of sum_j |c_j| c2^j of its exact value, as Horner's
was. Past the rows each fixed-point product rounds down to the 2^-wp
grid: kernel entries have modulus at most 1 (the propagator is unitary)
and |R| is at most about 1/|sin(theta)|, so these steps add a few units
of 2^-wp, far below the rows' own error. A value below 2^-wp becomes 0;
that happens only at the light-cone edge when |cos(theta)| is small,
where cos^h0 is tiny, and stays inside the same envelope.
"""

from __future__ import annotations

import math
import operator
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, Iterator, NamedTuple

import mpmath
from mpmath.libmp import to_fixed

from .arithmetic import (
    Angle,
    DyadicComplex,
    FixedComplex,
    SqrtTwo,
    SqrtTwoComplex,
    precision_for,
)
from .core import CoinParams, Distribution, PureState, step_count

__all__ = [
    "FAMILIES",
    "admissible_terms",
    "term_coefficient",
    "coefficient_row",
    "coefficient_bits",
    "working_precision",
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
# _kernels builds all four kernel entries from the three values
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
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    h0 = _first_h(t, family, x - xp)
    if h0 is not None:
        yield from range(h0, t - FAMILIES[family].dt + 1, 2)


def _first_h(t: int, family: str, d: int) -> int | None:
    """The first admissible h of the (family, d) group at time t, or None
    if the group is empty: where every row starts, stated once."""
    fam = FAMILIES[family]
    m = t - fam.dt
    if m < 0 or (fam.p0 + d - m) % 2:
        return None
    h0 = max(0, -(fam.p0 + d), d - fam.q0)
    h0 += (m - h0) % 2
    return h0 if h0 <= m else None


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


def working_precision(t: int) -> tuple[int, int]:
    """The adaptive mode's working precision at time t, in bits, and the
    coefficient bit size it is sized from: the one statement of that rule."""
    bits = coefficient_bits(t)
    return precision_for(bits), bits


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
    h0 = _first_h(t, family, d)
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


def _float_horner(cos: float) -> Callable:
    """R by Horner's rule in floats. A row with a coefficient past the
    float range (t near 1000) has no float value: NaN."""
    c2, cos_pow = cos * cos, cache(cos.__pow__)

    def evaluate(row, h0):
        acc = 0
        try:
            for c in reversed(row):
                acc = acc * c2 + c
        except OverflowError:
            return math.nan
        return acc * cos_pow(h0)

    return evaluate


def _sweep_rows(t: int, num: int, den: int, unit: int) -> dict:
    """The bare sums P(f, d) that a full distribution needs, by the three
    sweeps of the module docstring: {(family, d): P unit} for alpha_ft at
    every d >= 0 and alpha_cos at every d, with cos^2 = num / den.

    Each sweep takes its two outermost values from their rows (of length 1
    and 2) and each next one from the recurrence, dividing by its leading
    coefficient times den^2 and rounding down. The divisions are exact
    when every P unit is an integer (den^K divides unit, K the longest
    row's length less one), so then the values are exact; with
    unit = den = 2^wp it is fixed point, each step off by less than one
    unit of 2^-wp on top of what it inherits.
    """
    n2, nd, d2 = num * num, num * den, den * den
    values = {}

    def run(family, ds, coefficients):
        rows = [coefficient_row(t, family, d) for d in ds[:2]]
        if not rows or not rows[0]:
            return  # alpha_cos has no terms at t = 0
        held = []
        for row in rows:
            n = 0
            for c in reversed(row):
                n = n * num // den + c * unit
            held.append(n)
        for d in ds[1:-1]:
            far, mid, mid_c2, near = coefficients(d)
            held.append(-(far * n2 * held[-2] + (mid * d2 - mid_c2 * nd) * held[-1])
                        // (near * d2))
        values.update(zip([(family, d) for d in ds], held))

    u, v = (t + 1) ** 2, t * t
    # coefficients(d) = (far, mid, mid_c2, near) of the recurrence at d:
    # near P(ahead) = -(far c2^2 P(behind) + (mid - mid_c2 c2) P(d)), where
    # behind is one step nearer the sweep's edge and ahead one step further
    run("alpha_ft", range(t, -1, -2), lambda d: (
        (d - 1) * (d - t) * (d + t + 2), 4 * d * (d * d - 1),
        2 * d * (d * d - 1 + u), (d + 1) * (d + t) * (d - t - 2)))
    run("alpha_cos", range(t - 2, -2, -2), lambda d: (
        d * (d + 2 - t) * (d + 2 + t), 4 * d * (d + 1) * (d + 2),
        2 * (d + 1) * (d * (d + 2) + v), (d + 2) * (d - t) * (d + t)))
    run("alpha_cos", range(-t, -1, 2), lambda d: (
        (d + 2) * (d - t) * (d + t), 4 * d * (d + 1) * (d + 2),
        2 * (d + 1) * (d * (d + 2) + v), d * (d + 2 - t) * (d + 2 + t)))
    return values


def _integer_rows(t: int, num: int, shift: int, unit: int, finish: Callable):
    """(evaluate, sweep) for a mode that holds each bare sum P on one
    integer N = P 2^unit, with cos^2 = num / 2^shift; finish(N, h0) turns
    N into R = P cos^h0 in the mode's number type.

    evaluate(row, h0) is Horner's rule, each product shifted back by
    ``shift`` bits; sweep() is every R a distribution needs, by
    ``_sweep_rows``, as {(family, d): R}.
    """

    def evaluate(row, h0):
        acc = 0
        for c in reversed(row):
            acc = ((acc * num) >> shift) + (c << unit)
        return finish(acc, h0)

    def sweep():
        return {
            (family, d): finish(n, _first_h(t, family, d))
            for (family, d), n in _sweep_rows(t, num, 1 << shift, 1 << unit).items()
        }

    return evaluate, sweep


def _rational_rows(cos: SqrtTwo, t: int):
    """Exact rows: cos^2 is 0, 1/2 or 1 on the eighth-turn grid, so
    num / 2^shift with shift 0 or 1. No row is longer than t//2 + 1, so
    with unit = shift (t//2) every N is an integer, and every shift in
    Horner and every division in the sweeps is exact. R is the
    DyadicComplex N / 2^unit times cos^h0 = (cos^2)^(h0//2) cos^(h0%2),
    with no reduction."""
    c2 = cos * cos
    assert c2.b == 0
    num, shift = c2.a.numerator, c2.a.denominator.bit_length() - 1
    unit = shift * (t // 2)
    cos = DyadicComplex.of(SqrtTwoComplex(cos))

    def finish(n, h0):
        m = h0 // 2
        r = DyadicComplex(n * num**m, 0, 0, 0, unit + shift * m)
        return r * cos if h0 % 2 else r

    return _integer_rows(t, num, shift, unit, finish)


def _fixed_point_rows(cos: mpmath.mpf, wp: int, t: int):
    """Rows on wp-bit fixed-point integers, R as a FixedComplex.

    cos^2 becomes the integer floor(cos^2 2^wp), so the integer
    coefficients enter exactly and each Horner or sweep step loses at most
    one unit of 2^-wp. With wp = coefficient bits + guard bits, the
    absolute error of a row of length L is about L 2^-guard. The factor
    cos^h0 is an mpf of wp bits relative precision, as a short edge row's
    sum can be huge exactly where cos^h0 is tiny: its mantissa and
    exponent multiply N exactly, and only the product is rounded down to a
    multiple of 2^-wp.
    """
    x, cos_pow = int(to_fixed((cos * cos)._mpf_, wp)), cache(cos.__pow__)

    def finish(n, h0):
        # n 2^-wp times (-1)^sign man 2^exp, on the 2^-wp grid
        sign, man, exp, _ = cos_pow(h0)._mpf_
        n, exp = n * (-int(man) if sign else int(man)), int(exp)
        return FixedComplex(n << exp if exp >= 0 else n >> -exp, 0, wp)

    return _integer_rows(t, x, wp, wp, finish)


@dataclass(frozen=True)
class _Scalars:
    """One arithmetic mode's constants and its rules for making row values."""

    t: int
    cos: object
    sin: object
    ephi1: object
    chi_pow: Callable    # e -> chi^e, a function of e alone
    lift: Callable       # source amplitude -> the mode's complex type
    zero: object         # 0 in the mode's complex type
    evaluate: Callable   # (integer row, its first h) -> R
    sweep: Callable | None   # () -> {(family, d): R} for every d; None in double


def _lift_dyadic(denominator: int) -> Callable:
    """Source amplitude (a ring element) -> its numerators over the call's
    common denominator, as a DyadicComplex with k = 0."""
    return lambda z: DyadicComplex(*z.numerators(denominator), 0)


def _expj(angle: Angle) -> complex:
    return complex(math.cos(angle.radians), math.sin(angle.radians))


def _mp_expj(angle: Angle):
    value = mpmath.expjpi(mpmath.mpf(angle.pi_num) / angle.pi_den)
    if angle.offset:
        value = value * mpmath.expj(mpmath.mpf(angle.offset))
    return value


def _fixed(value, wp: int) -> FixedComplex:
    """An mpf or mpc as a FixedComplex, each part rounded down to a
    multiple of 2^-wp."""
    re, im = mpmath.mpc(value)._mpc_
    return FixedComplex(int(to_fixed(re, wp)), int(to_fixed(im, wp)), wp)


def _lift_fixed(wp: int) -> Callable:
    """Source amplitude (complex) -> FixedComplex, each part rounded
    down to a multiple of 2^-wp (exactly, whatever the float's exponent)."""

    def part(x) -> int:
        num, den = x.as_integer_ratio()
        return (num << wp) // den

    return lambda z: FixedComplex(part(z.real), part(z.imag), wp)


def _powers(z: FixedComplex) -> Callable:
    """e -> z^e by square-and-multiply from the top bit down, each power
    kept for the rest of the call: a full distribution pays one or two
    products per exponent, a point query about 2 log2(e), and either way
    the bits of z^e depend on e alone."""
    one = FixedComplex(1 << z.wp, 0, z.wp)

    @cache
    def power(e: int) -> FixedComplex:
        if not e:
            return one
        half = power(e >> 1)
        return half * half * z if e & 1 else half * half

    return power


def _scalars(params: CoinParams, t: int, mode: str, denominator: int = 1) -> _Scalars:
    """The scalar bundle of one mode. Exact values are DyadicComplex, the
    sources lifted over ``denominator``, a common denominator of their
    amplitudes; adaptive values are made at the current mpmath working
    precision and kept as FixedComplex."""
    if mode == "exact":
        if not params.exact_capable:
            raise ValueError("exact mode needs coin angles on the eighth-turn grid")
        evaluate, sweep = _rational_rows(params.theta.cos_exact(), t)
        cos, sin = (
            DyadicComplex.of(SqrtTwoComplex(v))
            for v in (params.theta.cos_exact(), params.theta.sin_exact())
        )
        ephi1 = DyadicComplex.of(params.phi1.exp_i_exact())
        # chi is an eighth root of unity, so chi^e = chi^(e mod 8)
        phases = [DyadicComplex.of(params.chi_exact() ** e) for e in range(8)]
        chi_pow, lift = lambda e: phases[e % 8], _lift_dyadic(denominator)
        zero = DyadicComplex(0, 0, 0, 0, 0)
    elif mode == "adaptive":
        wp = mpmath.mp.prec
        th = params.theta.mp_radians()
        mp_cos = mpmath.cos(th)
        evaluate, sweep = _fixed_point_rows(mp_cos, wp, t)
        cos, sin = _fixed(mp_cos, wp), _fixed(mpmath.sin(th), wp)
        ephi1 = _fixed(_mp_expj(params.phi1), wp)
        phi_sum = params.phi1.mp_radians() + params.phi2.mp_radians()
        chi_pow, lift = _powers(_fixed(mpmath.expj(phi_sum), wp)), _lift_fixed(wp)
        zero = FixedComplex(0, 0, wp)
    else:
        th = params.theta.radians
        cos, sin = math.cos(th), math.sin(th)
        chi_pow, ephi1 = params.chi.__pow__, _expj(params.phi1)
        lift, zero, evaluate, sweep = complex, 0j, _float_horner(cos), None
    return _Scalars(t, cos, sin, ephi1, chi_pow, lift, zero, evaluate, sweep)


def _rows(s: _Scalars, ds, sweep: bool) -> dict:
    """Stage 1: {(family, d): R} with every key that the kernels at the
    distances ds read, an empty row stored as 0. With ``sweep`` and a mode
    that has sweeps, every row comes from them, and the one empty row on
    the light cone, alpha_cos at d = t, is stated; otherwise each row is
    summed by Horner's rule."""
    t = s.t
    if sweep and s.sweep is not None:
        return {**s.sweep(), ("alpha_cos", t): 0}
    rows = {}
    for d in ds:
        for key in (("alpha_ft", abs(d)), ("alpha_cos", d), ("alpha_cos", -d)):
            if key not in rows:
                h0 = _first_h(t, *key)
                rows[key] = 0 if h0 is None else s.evaluate(coefficient_row(t, *key), h0)
    return rows


def _kernels(s: _Scalars, ds, rows: dict) -> dict:
    """Stage 2: {d: K_t(d)} for the distances ds, each kernel as
    ((K_aa, K_ab), (K_ba, K_bb)), from the three row values of the module
    docstring, Rft, Rc and S, read from ``rows``."""
    t, kernels = s.t, {}
    for d in ds:
        ft = -rows["alpha_ft", abs(d)] if d < 0 and t % 2 else rows["alpha_ft", abs(d)]
        rc = rows["alpha_cos", d]
        sn = -rows["alpha_cos", -d] if t % 2 == 0 else rows["alpha_cos", -d]
        chi_e = s.chi_pow((t - d) // 2)
        kernels[d] = (
            (chi_e * (ft + s.cos * rc), s.ephi1 * chi_e * (s.sin * sn)),
            (s.ephi1.conjugate() * chi_e * (s.sin * rc), chi_e * (ft - s.cos * sn)),
        )
    return kernels


def _site(x: int, sources: list, kernels: dict, zero):
    """Stage 3: (alpha_x(t), beta_x(t)), starting from ``zero``: the sum
    over source sites x' of K_t(x - x') applied to the source's pair, where
    a distance without a kernel is off the light cone or at the wrong
    parity."""
    alpha = beta = zero
    for xp, (a, b) in sources:
        k = kernels.get(x - xp)
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


def _site_sums(xs, t: int, init: PureState, params: CoinParams, mode: str, sweep: bool):
    """(pairs, D): the amplitude pairs at the sites xs by the three stages,
    in the mode's number type (the start itself at t = 0), D being the
    common denominator of an exact start's amplitudes and 1 otherwise."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    denominator = 1
    if mode == "exact":
        if not init.exact:
            raise ValueError("exact mode needs ring-valued initial amplitudes")
        amps = init.amplitudes.values()
        denominator = math.lcm(*(z.denominator for pair in amps for z in pair))
    else:
        init = init.to_float()
    if t == 0:
        lift = _lift_dyadic(denominator) if mode == "exact" else lambda z: z
        return [tuple(map(lift, init.amplitude(x))) for x in xs], denominator
    if mode == "adaptive":
        precision = mpmath.workprec(working_precision(t)[0])
    else:
        precision = nullcontext()
    with precision:
        s = _scalars(params, t, mode, denominator)
        sources = [
            (xp, (s.lift(alpha), s.lift(beta)))
            for xp, (alpha, beta) in init.amplitudes.items()
        ]
        ds = {x - xp for x in xs for xp, _ in sources} & set(range(-t, t + 1, 2))
        kernels = _kernels(s, ds, _rows(s, ds, sweep))
        return [_site(x, sources, kernels, s.zero) for x in xs], denominator


def _amplitudes(
    xs, t: int, init: PureState, params: CoinParams, mode: str, sweep: bool = False
) -> list:
    """Amplitude pairs at the sites xs: ring elements in exact mode, each
    reduced once over D 2^k, complex otherwise."""
    pairs, denominator = _site_sums(xs, t, init, params, mode, sweep)
    if mode == "exact":
        ring = SqrtTwoComplex.from_numerators
        return [
            tuple(ring(z.p, z.q, z.r, z.s, denominator << z.k) for z in pair)
            for pair in pairs
        ]
    if mode == "adaptive":
        return [(complex(a), complex(b)) for a, b in pairs]
    return pairs


def amplitude(
    x: int,
    t: int,
    init: PureState,
    params: CoinParams,
    mode: str = "adaptive",
):
    """Amplitude pair (alpha_x(t), beta_x(t)) by the closed form.

    Returns ring elements in exact mode, complex otherwise. Positions
    outside the light cone give exact zeros. ``x`` and ``t`` are integers
    (numpy integers included); anything else raises TypeError.
    """
    (pair,) = _amplitudes((operator.index(x),), step_count(t), init, params, mode)
    return pair


def distribution(
    t: int,
    init: PureState,
    params: CoinParams,
    mode: str = "adaptive",
) -> Distribution:
    """Closed-form distribution on the full light-cone span of the initial
    support, parity-forbidden sites included as exact zeros. ``t`` is an
    integer (numpy integers included); anything else raises TypeError.

    In the float modes a RuntimeWarning reports a total probability that
    is not within NORM_TOLERANCE (relative) of the initial norm: the sums
    have then lost their precision, as ``double`` does past t ~ 40, or
    left the float range (an inf or NaN total).
    """
    t = step_count(t)
    lo, hi = init.span
    grid = range(lo - t, hi + t + 1)
    if mode == "exact":
        pairs, denominator = _site_sums(grid, t, init, params, mode, sweep=True)
        exact = {}
        for x, (a, b) in zip(grid, pairs):
            n = a.abs_sq() + b.abs_sq()
            exact[x] = SqrtTwo.from_numerators(n.p, n.q, denominator**2 << n.k)
        probs = {x: float(v) for x, v in exact.items()}
        return Distribution(probs, t=t, method="closed-form", mode="exact", exact=exact)
    pairs = zip(grid, _amplitudes(grid, t, init, params, mode, sweep=True))
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
