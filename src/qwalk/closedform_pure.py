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
and 2, and the rest from the recurrence (``_sweeps`` states the three).
On its range every divisor on the left is a nonzero integer and none is
c2, so theta = pi/2 (c2 = 0) needs no case of its own in exact mode.
Inward from a light-cone edge the wanted solution is the growing one,
so each sweep runs inward and they meet near d = 0 (Gautschi, SIAM Rev.
9, 24 (1967)). Run on past the far peak into the other edge's tail,
where it decays, the recurrence would amplify its rounding (by 1e71 in
floats at t=1600). The recurrences were fitted, not derived;
``TestRowSweeps`` checks them exactly in Fractions against the Horner
sums, for every d at t <= 60, 301 and 400 on seven values of c2.

The closed form runs in three stages over ds, the distances d = x - x'
from the sources to the sites asked for that lie on the light cone at
the parity of t (``_site_sums``). ``_rows`` makes one dict of the row
values that the kernels read, keyed (alpha_ft, |d|), (alpha_cos, d) and
(alpha_cos, -d) for each d (``_row_keys``, the one statement of that
set), an empty row (alpha_cos at d = t) stored as 0. Each mode has one
row path, fixed by the mode alone. ``exact`` and ``adaptive`` take every
row from the sweeps, each of which runs from its edge only to the
innermost of these keys: a full distribution (``distribution``) runs
all three to the middle, about 1.5t recurrence steps in place of about
1.5t Horner rows of up to t/2 terms, and a point query (``amplitude``)
whose nearest source is at distance d about 1.5(t - |d|) steps, one
pass for all its sources. ``adaptive`` keeps the sweeps of the last
walk, so successive point queries on one walk resume them, each
stepping only past the point that the walk's earlier calls reached: a
run of queries pays for the sweeps of its innermost one, and one walk of
about 1.5t rows is kept (``_float_rows``). ``double`` sums each row by
Horner's rule, so its precision cliff stays demonstrable. ``_kernels``
reads the dict by index into one table {d: K_t(d)}, so a key the rows
did not make raises, and ``_site`` sums K_t(x - x') times each source's
pair. ``adaptive`` runs these two stages on float64 arrays over d and
over a window of sites (``_float_kernels``, ``_float_sites``). So every
kernel is made once per call, and every R once per call, or in
``adaptive`` once per walk.

Three arithmetic modes: ``exact`` (ring Q[sqrt(2)][i], eighth-turn coins
only), ``adaptive`` (block floating point in the sweeps at a precision
of SWEEP_BITS plus the bit length of t, floats after them),
``double`` (floats; cancellation-prone at large t by design, so the
failure stays demonstrable). All three build the same kernels; a mode
supplies the scalars and the one rule that makes the row values R, and
adaptive mode sums in arrays:

* exact: c2 is 0, 1/2 or 1, so P is one integer over a power of 2 that
  no row outgrows; the sweeps are exact on it (``_rational_rows``). On the
  eighth-turn grid cos, sin and every phase have a denominator dividing
  2, so R and every value after it (cos, sin, e^{i phi1}, chi^e, the
  kernel entries and the site sums) is a ``DyadicComplex``: four integer
  numerators of Z[sqrt(2)][i] over a power of 2, which sums align and
  products multiply and no operation reduces. The sources are lifted as
  their numerators over their common denominator D, and each amplitude,
  or each site's |alpha|^2 + |beta|^2 in a distribution, is brought to
  lowest terms once, over D 2^k, at the end;
* adaptive: the sweeps run on R = P cos^h0 itself, as wp-bit integer
  mantissas with a shared exponent, with the exact mantissa of the
  wp-bit mpf c2 in the recurrence (``_float_rows``). Each R is read as a
  float from its own (mantissa, exponent) pair, and every value after
  it (cos, sin, e^{i phi1}, chi^e, the kernels and site sums) is a float
  or complex. mpmath makes cos, sin, e^{i phi1}, phi1 + phi2 and 2 pi
  once per coin and wp (``_coin_constants``), and the two outermost R
  of each sweep;
* double: Horner in floats.

chi^e is chi^(e mod 8) in exact mode, where chi is an eighth root of
unity, and an integer power of the complex chi in double mode; in
adaptive mode it is within about an ulp for every e, as e (phi1 + phi2)
is reduced mod 2 pi on integers (``_phases``), where a float angle e phi
would be off by about e ulps. In every mode it is a function of (t, d)
alone, and so is each swept R, which depends only on the steps from its
edge; so a point query and a full distribution have the same bits in
``adaptive`` mode, the complex products on arrays written out
(``_product``), and the same ring values in ``exact`` mode.

The adaptive error envelope is absolute in the rows and relative after
them. A Horner sum of the alternating
trinomials needs as many bits as the largest of them (``coefficient_bits``,
754 at t = 600); the inward sweeps do not, as each step rounds
once relative to the two values it reads, and the wanted solution
dominates them. Over theta in {0.05, 0.7, pi/2 - 0.01, pi/2, pi - 0.05}
at t = 301, 600, 1600 and 3200, every swept R was within
2^-(wp - bitlen(t) - 1) of a Horner sum at coefficient_bits(t) + 256
bits, for wp - bitlen(t) = 32, 64, 96 and 128. SWEEP_BITS = 128 puts
the rows within 6e-39, far below the 1e-15 that the tests ask of the
amplitudes, and costs about what 64 does: Python integers of 138 and
74 bits multiply in about the same time. Past the rows nothing cancels
but Rft + cos(theta) Rc and Rft - cos(theta) S: kernel entries have modulus
at most 1 (the propagator is unitary) and |R| is at most about
1/|sin(theta)|, so each float step adds a few ulps of these. Floats keep
their relative precision down to about 1e-300, so the far tails are
resolved too: at t = 301 and 600, on three off-grid coins, every
probability below 1e-60 was within 3.1e-15, relative, of the reference
at coefficient_bits(t) + 256 bits.
"""

from __future__ import annotations

import math
import operator
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import Callable, Iterator, NamedTuple

import mpmath
import numpy as np
from mpmath.libmp import to_fixed

from .arithmetic import Angle, DyadicComplex, SqrtTwo, SqrtTwoComplex
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
# Bits of the adaptive working precision on top of the bit length of t
# (module docstring, "The adaptive error envelope").
SWEEP_BITS = 128
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
    """Bit length of the largest trinomial any family can produce at time t:
    the fixed-point width that a Horner sum of the rows would need, which
    the adaptive sweeps do not (module docstring). Cached: it depends on t
    alone and costs milliseconds at t in the hundreds.
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


def working_precision(t: int) -> int:
    """The adaptive mode's working precision at time t, in bits: the
    mantissa of the sweeps and the fixed point of everything after them,
    SWEEP_BITS plus the bit length of t. The one statement of that rule."""
    return SWEEP_BITS + t.bit_length()


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


def _row_keys(d: int) -> tuple:
    """The keys of the three rows that K_t(d) reads, in the order Rft, Rc,
    S of the module docstring: alpha_ft at |d| and alpha_cos at d and -d.
    The one statement of which rows a kernel needs."""
    return ("alpha_ft", abs(d)), ("alpha_cos", d), ("alpha_cos", -d)


def _read_keys(ds) -> set:
    """The keys of every row that the kernels at the distances ds read."""
    return {key for d in ds for key in _row_keys(d)}


def _float_horner(cos: float, t: int) -> Callable:
    """rows(ds) for double mode: each R that the kernels at ds read by
    Horner's rule in floats, but the empty row. A row with a coefficient
    past the float range (t near 1000) has no float value: NaN."""
    c2, cos_pow = cos * cos, cache(cos.__pow__)

    def value(family, d):
        acc = 0
        try:
            for c in reversed(coefficient_row(t, family, d)):
                acc = acc * c2 + c
        except OverflowError:
            return math.nan
        return acc * cos_pow(_first_h(t, family, d))

    return lambda ds: {key: value(*key) for key in _read_keys(ds) - {("alpha_cos", t)}}


def _sweeps(t: int, keys) -> list:
    """The three sweeps of the module docstring, as (family, span,
    steps): span is the distances d of the family's rows from the
    light-cone edge inward, stopping at the innermost of the row keys
    ``keys`` (at the meeting point near d = 0 for a full distribution's
    keys), and steps(i), for i >= 2, is (far, mid, mid_c2, near) of the
    recurrence at each d of span[i - 1:-1], the steps that make span[i:],

        near P(ahead) = -(far c2^2 P(behind) + (mid - mid_c2 c2) P(d)),

    where behind is one step nearer the edge and ahead one step further.
    A sweep that resumes where an earlier one stopped asks only for its
    own steps.
    """
    ft = min(d for family, d in keys if family == "alpha_ft")
    cos = [d for family, d in keys if family == "alpha_cos"]
    inner = min(d for d in cos if d >= -1)
    outer = max((d for d in cos if d <= -2), default=-t - 2)
    ft_span = range(t, ft - 1, -2)
    down, up = range(t - 2, inner - 1, -2), range(-t, outer + 1, 2)
    return [
        # alpha_ft's recurrence at (t, d) is alpha_cos's at (t + 1, d - 1)
        ("alpha_ft", ft_span,
         lambda i: _coefficients(t + 1, [d - 1 for d in ft_span[i - 1:-1]])),
        ("alpha_cos", down, lambda i: _coefficients(t, down[i - 1:-1])),
        ("alpha_cos", up, lambda i: _coefficients(t, up[i - 1:-1], up=True)),
    ]


def _coefficients(m: int, ds, up: bool = False) -> list:
    """(far, mid, mid_c2, near) of alpha_cos's recurrence at time m at
    each d of ds, as integers: far = d (d+2-m)(d+2+m) and near =
    (d+2)(d-m)(d+m) on the sweep down from the edge, swapped on the sweep
    up (``up``), mid = 4d(d+1)(d+2) and mid_c2 = 2(d+1)(d(d+2) + m^2)."""
    s = m * m
    down = [
        (d * (q * q - s), 4 * d * (d + 1) * q, 2 * (d + 1) * (d * q + s), q * (d * d - s))
        for d in ds
        for q in [d + 2]
    ]
    return [(near, mid, mid_c2, far) for far, mid, mid_c2, near in down] if up else down


def _sweep_rows(t: int, num: int, den: int, unit: int, keys) -> dict:
    """The bare sums P(f, d) by the three sweeps of ``_sweeps`` for the
    row keys ``keys``, exactly: {(family, d): P unit} for every d that the
    sweeps reach, with cos^2 = num / den.

    Each sweep takes its two outermost values from their rows (of length 1
    and 2) and each next one from the recurrence, dividing by its leading
    coefficient times den^2 and rounding down. The divisions are exact
    when every P unit is an integer (den^K divides unit, K the longest
    row's length less one), so then the values are exact.
    """
    n2, nd, d2 = num * num, num * den, den * den
    values = {}
    for family, span, steps in _sweeps(t, keys):
        held = []
        for d in span[:2]:
            n = 0
            for c in reversed(coefficient_row(t, family, d)):
                n = n * num // den + c * unit
            held.append(n)
        for far, mid, mid_c2, near in steps(2):
            held.append(-(far * n2 * held[-2] + (mid * d2 - mid_c2 * nd) * held[-1])
                        // (near * d2))
        values.update(zip([(family, d) for d in span], held))
    return values


def _rational_rows(cos: SqrtTwo, t: int) -> Callable:
    """rows(ds) for exact mode: {(family, d): R} for the keys that the
    kernels at the distances ds read, by ``_sweep_rows``. cos^2 is 0, 1/2
    or 1 on the eighth-turn grid, so num / 2^shift with shift 0 or 1, and
    each bare sum P is held on one integer N = P 2^unit. No row is longer
    than t//2 + 1, so with unit = shift (t//2) every N is an integer and
    every division in the sweeps is exact. R is the DyadicComplex
    N / 2^unit times cos^h0 = (cos^2)^(h0//2) cos^(h0%2), with no
    reduction, made only for the keys read."""
    c2 = cos * cos
    assert c2.b == 0
    num, shift = c2.a.numerator, c2.a.denominator.bit_length() - 1
    unit = shift * (t // 2)
    cos = DyadicComplex.of(SqrtTwoComplex(cos))

    def finish(n, h0):
        m = h0 // 2
        r = DyadicComplex(n * num**m, 0, 0, 0, unit + shift * m)
        return r * cos if h0 % 2 else r

    def rows(ds):
        keys = _read_keys(ds)
        swept = _sweep_rows(t, num, 1 << shift, 1 << unit, keys)
        return {key: finish(swept[key], _first_h(t, *key)) for key in swept.keys() & keys}

    return rows


def _float_rows(cos: mpmath.mpf, c2: mpmath.mpf, wp: int, t: int) -> Callable:
    """The adaptive mode's sweeps: swept(ds) -> {(family, d): (m, e)} for
    the keys that the kernels at the distances ds read, each R = m 2^e
    with m an integer of about wp bits.

    The sweeps of ``_sweeps`` run on R = P cos^h0 itself. h0 falls by 2 at
    each step inward, so with P = R / cos^h0 the recurrence becomes

        near c2 R(ahead) = -(far c2 R(behind) + (mid - mid_c2 c2) R(d)),

    a rescaling that leaves which solution dominates unchanged. Its values
    are block floating point: the two values a step reads are integers
    over one shared power of 2, and before each step both are shifted, up
    or down, until the larger has wp bits, so each step is off by less
    than 2^-wp relative to them on top of what it inherits. cos^2 =
    num 2^-k is the mpf c2 of wp bits, whose exact mantissa enters the
    recurrence; c2 > 0, as mpmath's cos of an mpf angle is never 0. The
    two outermost R of each sweep are mpf products of their rows and an
    mpf power of cos, so every R depends on (t, d) alone, however far a
    sweep runs.

    So the sweeps of one walk, (t, wp, cos, c2), can resume: the last
    walk asked for is kept (``_Walk``), and a later call on it steps each
    sweep only past the point that sweep has reached, while a call on
    another walk replaces it. Point queries on one walk thus share its
    sweeps, whatever their order, and return the bits that a fresh sweep
    would. Only one walk is kept, as queries come in runs on one walk:
    at most about 1.5t rows of about wp bits, 260 bytes a row, so 0.23 MB
    at t = 600, 3.9 MB at 10^4 and 39 MB at 10^5 once a distribution has
    swept it all. Threads that race on it can only redo a step, never
    change a value: each writes its values before the state that names
    them.
    """
    _, num, exp, _ = c2._mpf_
    num, k = int(num), -int(exp)
    this = (t, wp, cos._mpf_, c2._mpf_)

    def edge(family, d):
        # R of a row of length 1 or 2 as (mantissa, exponent)
        c0, *c1 = coefficient_row(t, family, d)
        p = c0 + c1[0] * c2 if c1 else mpmath.mpf(c0)
        sign, man, exp, _ = (p * cos ** _first_h(t, family, d))._mpf_
        return -int(man) if sign else int(man), int(exp)

    def swept(ds):
        global _last_walk
        keys, walk = _read_keys(ds), _last_walk
        if walk is None or walk.key != this:
            walk = _last_walk = _Walk(this)
        values = walk.values
        for i, (family, span, steps) in enumerate(_sweeps(t, keys)):
            taken, a, b, e = walk.resume[i]
            if taken >= len(span):
                continue
            for d in span[taken:2]:
                values[family, d] = edge(family, d)
            if taken < 2 <= len(span):
                (a, ea), (b, eb) = values[family, span[0]], values[family, span[1]]
                e = min(ea, eb)
                a, b = a << ea - e, b << eb - e
            start = max(taken, 2)
            for ahead, (far, mid, mid_c2, near) in zip(span[start:], steps(start)):
                shift = max(abs(a), abs(b)).bit_length() - wp
                if shift > 0:
                    a, b = a >> shift, b >> shift
                else:
                    a, b = a << -shift, b << -shift
                e += shift
                a, b = b, -(far * num * a + ((mid << k) - mid_c2 * num) * b) // (near * num)
                values[family, ahead] = b, e
            walk.resume[i] = len(span), a, b, e
        return {key: values[key] for key in keys - {("alpha_cos", t)}}

    return swept


@dataclass
class _Walk:
    """The adaptive sweeps of one walk so far (``_float_rows``): ``key``
    is (t, wp, cos, c2), the mpf values as their tuples; ``values`` holds
    every swept R as (mantissa, exponent); and ``resume`` each sweep's
    (taken, a, b, e): the first ``taken`` values of its span are made,
    and when two or more are, a 2^e and b 2^e are the last two, as the
    next step reads them."""

    key: tuple
    values: dict = field(default_factory=dict)
    resume: list = field(default_factory=lambda: [(0, 0, 0, 0)] * 3)


# the last walk that the adaptive sweeps ran on
_last_walk: _Walk | None = None


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
    rows: Callable       # ds -> {(family, d): R} for the keys the kernels at ds read


def _lift_dyadic(denominator: int) -> Callable:
    """Source amplitude (a ring element) -> its numerators over the call's
    common denominator, as a DyadicComplex with k = 0."""
    return lambda z: DyadicComplex(*z.numerators(denominator), 0)


def _expj(angle: Angle) -> complex:
    return complex(math.cos(angle.radians), math.sin(angle.radians))


def _phases(phi: int, two_pi: int, wp: int) -> Callable:
    """e -> chi^e = e^{i e phi} as a complex, within about an ulp for
    every e: phi = phi1 + phi2 and 2 pi are integers over 2^wp, so e phi
    is reduced mod 2 pi on integers, off by about e 2^-wp, then split into
    hi, the float nearest it, and the float lo nearest the rest, and
    cos(hi + lo) = cos hi - lo sin hi, sin likewise, up to lo^2 < 2^-104."""
    scale = 1 << wp

    def power(e: int) -> complex:
        a = e * phi % two_pi
        hi = a / scale
        lo = (a - int(math.ldexp(hi, wp))) / scale
        c, s = math.cos(hi), math.sin(hi)
        return complex(c - lo * s, s + lo * c)

    return power


@lru_cache(maxsize=16)
def _coin_constants(params: CoinParams, wp: int) -> tuple:
    """cos and cos^2 as mpf at wp bits, for the sweeps; cos, sin and
    e^{i phi1} rounded to floats; and phi1 + phi2 and 2 pi as integers
    over 2^wp, for chi^e (``_phases``). What the adaptive mode takes from
    mpmath, made once per coin and precision, as point queries at one
    coin and t ask for them again and again."""
    with mpmath.workprec(wp):
        th, phi1 = params.theta.mp_radians(), params.phi1.mp_radians()
        cos, sin, ephi1 = mpmath.cos(th), mpmath.sin(th), mpmath.expj(phi1)
        phi = phi1 + params.phi2.mp_radians()
        fixed = (int(to_fixed(v._mpf_, wp)) for v in (phi, 2 * mpmath.pi))
        return cos, cos * cos, float(cos), float(sin), complex(ephi1), *fixed


def _scalars(params: CoinParams, t: int, mode: str, denominator: int = 1) -> _Scalars:
    """The scalar bundle of one mode. Exact values are DyadicComplex, the
    sources lifted over ``denominator``, a common denominator of their
    amplitudes; adaptive rows are swept at the current mpmath working
    precision, and they and everything after them are floats."""
    if mode == "exact":
        if not params.exact_capable:
            raise ValueError("exact mode needs coin angles on the eighth-turn grid")
        rows = _rational_rows(params.theta.cos_exact(), t)
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
        mp_cos, c2, cos, sin, ephi1, phi, two_pi = _coin_constants(params, wp)
        swept = _float_rows(mp_cos, c2, wp, t)
        rows = lambda ds: {key: math.ldexp(*pair) for key, pair in swept(ds).items()}
        chi_pow, lift, zero = _phases(phi, two_pi, wp), complex, 0j
    else:
        th = params.theta.radians
        cos, sin = math.cos(th), math.sin(th)
        chi_pow, ephi1 = params.chi.__pow__, _expj(params.phi1)
        lift, zero, rows = complex, 0j, _float_horner(cos, t)
    return _Scalars(t, cos, sin, ephi1, chi_pow, lift, zero, rows)


def _rows(s: _Scalars, ds) -> dict:
    """Stage 1: {(family, d): R} with every key that the kernels at the
    non-empty distances ds read, by the mode's one row path, and the one
    empty row on the light cone, alpha_cos at d = t, stated as 0."""
    return {**s.rows(ds), ("alpha_cos", s.t): 0}


def _signed_rows(t: int, d: int, rows: dict) -> tuple:
    """Rft, Rc and S of the module docstring at d, read from ``rows``."""
    ft_key, rc_key, sn_key = _row_keys(d)
    ft = -rows[ft_key] if d < 0 and t % 2 else rows[ft_key]
    sn = -rows[sn_key] if t % 2 == 0 else rows[sn_key]
    return ft, rows[rc_key], sn


def _kernels(s: _Scalars, ds, rows: dict) -> dict:
    """Stage 2: {d: K_t(d)} for the distances ds, each kernel as
    ((K_aa, K_ab), (K_ba, K_bb)), from the three row values of the module
    docstring, Rft, Rc and S, read from ``rows``."""
    kernels = {}
    for d in ds:
        ft, rc, sn = _signed_rows(s.t, d, rows)
        chi_e = s.chi_pow((s.t - d) // 2)
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


def _product(k: np.ndarray, z) -> tuple:
    """The real and imaginary parts of k z, complex arrays or numbers,
    written out in real operations, which round once each: numpy's own
    complex product may fuse a multiply and an add, as the build and CPU
    decide, so its last bits are not a function of the operands alone."""
    return k.real * z.real - k.imag * z.imag, k.real * z.imag + k.imag * z.real


def _float_kernels(s: _Scalars, ds, rows: dict) -> tuple:
    """Stage 2 in adaptive mode: (d0, K), d0 the least of ds and column
    (d - d0)/2 of the (4, n) complex128 array K holding K_aa, K_ab, K_ba
    and K_bb of K_t(d) for each d of ds, 0 for the d between not in ds.
    The formula of ``_kernels`` over d: each entry is chi^e times 1,
    e^{i phi1}, e^{-i phi1} or 1, times a real factor."""
    order = sorted(ds)
    d0 = order[0]
    ft, rc, sn = np.array([_signed_rows(s.t, d, rows) for d in order], dtype=float).T
    chi = np.array([s.chi_pow((s.t - d) // 2) for d in order], dtype=complex)
    re, im = _product(chi, np.array([1, s.ephi1, s.ephi1.conjugate(), 1])[:, None])
    real = np.array([ft + s.cos * rc, s.sin * sn, s.sin * rc, ft - s.cos * sn])
    kernels = np.zeros((4, (order[-1] - d0) // 2 + 1), dtype=complex)
    columns = (np.array(order) - d0) // 2
    kernels.real[:, columns], kernels.imag[:, columns] = re * real, im * real
    return d0, kernels


def _float_sites(xs, sources: list, d0: int, kernels: np.ndarray) -> list:
    """Stage 3 in adaptive mode: (alpha_x(t), beta_x(t)) at the sites xs,
    summed in a window over min(xs) .. max(xs): each source adds K_t(x -
    x') times its pair at every other site its kernels reach, one slice."""
    w0, w1 = min(xs), max(xs)
    window = np.zeros((2, w1 - w0 + 1), dtype=complex)
    last = d0 + 2 * (kernels.shape[1] - 1)
    for xp, (a, b) in sources:
        lo, hi = max(d0, w0 - xp), min(last, w1 - xp)
        lo += (lo - d0) % 2
        if lo > hi:
            continue
        # K_aa a, K_ab b, K_ba a and K_bb b, summed in pairs
        k = kernels[:, (lo - d0) // 2:(hi - d0) // 2 + 1]
        re, im = _product(k, np.array([a, b, a, b])[:, None])
        cut = slice(xp + lo - w0, xp + hi - w0 + 1, 2)
        window.real[:, cut] += re[::2] + re[1::2]
        window.imag[:, cut] += im[::2] + im[1::2]
    alpha, beta = window.tolist()
    return [(alpha[x - w0], beta[x - w0]) for x in xs]


def _abs_sq(z: complex) -> float:
    """|z|^2, or inf where it passes the float range (double mode far past
    its cliff, as at t=600)."""
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def _site_sums(xs, t: int, init: PureState, params: CoinParams, mode: str):
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
        precision = mpmath.workprec(working_precision(t))
    else:
        precision = nullcontext()
    with precision:
        s = _scalars(params, t, mode, denominator)
        sources = [
            (xp, (s.lift(alpha), s.lift(beta)))
            for xp, (alpha, beta) in init.amplitudes.items()
        ]
        # the distances on the light cone, -t <= d <= t with d = t mod 2
        ds = {
            d for x in xs for xp, _ in sources
            if -t <= (d := x - xp) <= t and (t - d) % 2 == 0
        }
        if not ds:  # every site is off the light cone
            return [(s.zero, s.zero)] * len(xs), denominator
        rows = _rows(s, ds)
        if mode == "adaptive":
            return _float_sites(xs, sources, *_float_kernels(s, ds, rows)), denominator
        kernels = _kernels(s, ds, rows)
        return [_site(x, sources, kernels, s.zero) for x in xs], denominator


def _amplitudes(xs, t: int, init: PureState, params: CoinParams, mode: str) -> list:
    """Amplitude pairs at the sites xs: ring elements in exact mode, each
    reduced once over D 2^k, complex otherwise."""
    pairs, denominator = _site_sums(xs, t, init, params, mode)
    if mode == "exact":
        ring = SqrtTwoComplex.from_numerators
        return [
            tuple(ring(z.p, z.q, z.r, z.s, denominator << z.k) for z in pair)
            for pair in pairs
        ]
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
        pairs, denominator = _site_sums(grid, t, init, params, mode)
        exact = {}
        for x, (a, b) in zip(grid, pairs):
            n = a.abs_sq() + b.abs_sq()
            exact[x] = SqrtTwo.from_numerators(n.p, n.q, denominator**2 << n.k)
        probs = {x: float(v) for x, v in exact.items()}
        return Distribution(probs, t=t, method="closed-form", mode="exact", exact=exact)
    pairs = zip(grid, _amplitudes(grid, t, init, params, mode))
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
