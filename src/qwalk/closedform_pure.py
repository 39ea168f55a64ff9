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

Three arithmetic modes: ``exact`` (ring Q[sqrt(2)][i], eighth-turn coins
only), ``adaptive`` (mpmath, precision sized from the largest trinomial
plus guard bits), ``double`` (floats; cancellation-prone at large t by
design, so the failure stays demonstrable). All three run the same family
loop; a mode only supplies the scalars and the summation rule.
"""

from __future__ import annotations

import math
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

import mpmath

from .arithmetic import (
    Angle,
    SqrtTwo,
    SqrtTwoComplex,
    neumaier_sum,
    precision_for,
)
from .core import CoinParams, Distribution, PureState

__all__ = [
    "FAMILIES",
    "admissible_terms",
    "term_coefficient",
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


@dataclass(frozen=True)
class _Scalars:
    """Every factor of the family loop in one arithmetic mode's number type."""

    cos_pows: list   # cos^0(theta) .. cos^(t+1)(theta)
    sin: object
    chi: object
    chi_inv: object
    ephi1: object
    cross: object    # beta <- alpha phase, times chi^(e + cross_shift)
    cross_shift: int
    lift: Callable   # source amplitude (or 0) -> the mode's complex type
    total: Callable  # summation rule for the real h-sum of one term group

    def chi_pow(self, e: int):
        return self.chi**e if e >= 0 else self.chi_inv ** (-e)


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
        one, cos, sin = SqrtTwo(1), params.theta.cos_exact(), params.theta.sin_exact()
        chi = params.chi_exact()
        ephi1, ephi2 = params.phi1.exp_i_exact(), params.phi2.exp_i_exact()
        lift, total = _to_ring, sum
    elif mode == "adaptive":
        th = params.theta.mp_radians()
        one, cos, sin = mpmath.mpf(1), mpmath.cos(th), mpmath.sin(th)
        ephi1, ephi2 = _mp_expj(params.phi1), _mp_expj(params.phi2)
        chi = ephi1 * ephi2
        lift, total = mpmath.mpc, sum
    else:
        th = params.theta.radians
        one, cos, sin = 1.0, math.cos(th), math.sin(th)
        chi, ephi1, ephi2 = params.chi, _expj(params.phi1), _expj(params.phi2)
        lift, total = complex, neumaier_sum
    cos_pows = [one]
    for _ in range(t + 1):
        cos_pows.append(cos_pows[-1] * cos)
    if beta_cross_phase == "phi1":
        cross, cross_shift = ephi1.conjugate(), 0
    else:
        cross, cross_shift = ephi2, -1
    return _Scalars(
        cos_pows, sin, chi, chi.conjugate(), ephi1, cross, cross_shift, lift, total
    )


def _family_loop(x: int, t: int, init: PureState, s: _Scalars):
    """(alpha_x(t), beta_x(t)) in the bundle's number type. The admissible
    terms of one (source site, family) group share every factor but the
    real h-sum, so each group costs one complex multiply."""
    out = {"alpha": s.lift(0), "beta": s.lift(0)}
    for xp in init.support:
        d = x - xp
        if abs(d) > t or (t - d) % 2:
            continue
        e = (t - d) // 2
        alpha_src, beta_src = init.amplitudes[xp]
        src = {"alpha": s.lift(alpha_src), "beta": s.lift(beta_src)}
        chi_e = s.chi_pow(e)
        phase = {
            "none": chi_e,
            "phi1": s.ephi1 * chi_e,
            "cross": s.cross * s.chi_pow(e + s.cross_shift),
        }
        for name, fam in FAMILIES.items():
            terms = [
                term_coefficient(t, name, d, h) * s.cos_pows[h + fam.cos_plus]
                for h in admissible_terms(x, t, xp, name)
            ]
            if not terms:
                continue
            factor = src[fam.source] * phase[fam.phase]
            if fam.use_sin:
                factor = factor * s.sin
            out[fam.target] = out[fam.target] + factor * s.total(terms)
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
        pairs = [_family_loop(x, t, init, s) for x in xs]
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
