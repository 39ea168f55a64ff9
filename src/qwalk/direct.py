"""Direct position-space evolution. This is the reference implementation
(oracle) that every other evaluation path is checked against.

A step applies the coin at every occupied site, then routes the coin-0
result to x+1 and the coin-1 result to x-1. Evolution is exact in
Q[sqrt(2)][i] when both the state and the coin live on the eighth-turn grid,
and steps site by site on that ring. Otherwise it is float stepping as array
code: alpha and beta are two complex128 arrays over the light-cone window,
and a step is two slice expressions, alpha'[x] = c00 alpha[x-1] +
c01 beta[x-1] and beta'[x] = c10 alpha[x+1] + c11 beta[x+1].

A mixed coin state rho is not stepped as a matrix. By linearity the walk
from rho is known from the two basis walks psi_0 and psi_1, from |0, 0>
and |0, 1>, and the distribution is the bilinear form
sum_ab rho_ab <psi_b(y)|psi_a(y)> at each site y.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .arithmetic import SqrtTwo, SqrtTwoComplex
from .core import (
    CoinParams,
    Distribution,
    MixedLocalizedState,
    PureState,
    coin_matrix,
    coin_matrix_exact,
    validate_state,
)

__all__ = ["step", "evolve_pure", "distribution_of", "evolve_mixed"]


def _walk(state: PureState, params: CoinParams, t: int) -> dict:
    """The amplitudes after t steps, as a plain {x: (alpha, beta)} dict.

    The keys are the sites x + t - 2k for each source x and 0 <= k <= t,
    interference zeros included. Each output component has exactly one
    source site: alpha at x comes from x-1 and beta at x from x+1, so no
    sums are accumulated. The dict is left unvalidated; callers wrap it in
    one PureState at the end.
    """
    if state.exact and params.exact_capable:
        return _ring_walk(state.amplitudes, coin_matrix_exact(params), t)
    return _float_walk(state.to_float().amplitudes, coin_matrix(params).tolist(), t)


def _ring_walk(amps: dict, coin, t: int) -> dict:
    """Exact stepping, one dict of ring elements per step."""
    (c00, c01), (c10, c11) = coin
    zero = SqrtTwoComplex.zero()
    for _ in range(t):
        up = {x + 1: c00 * a + c01 * b for x, (a, b) in amps.items()}
        down = {x - 1: c10 * a + c11 * b for x, (a, b) in amps.items()}
        amps = {
            x: (up.get(x, zero), down.get(x, zero)) for x in up.keys() | down.keys()
        }
    return amps


def _float_walk(amps: dict, coin, t: int) -> dict:
    """Float stepping on two complex128 arrays over [lo - t, hi + t].

    Cell i holds site lo - t + i. After s steps every nonzero amplitude lies
    in [lo - s, hi + s], so step s + 1 reads only that stretch, writes alpha
    one cell right and beta one cell left, and zeroes the cell each one
    leaves behind. Cells off the output sites (wrong parity, or between
    cones that have not met) hold zeros and are not returned.
    """
    (c00, c01), (c10, c11) = coin
    lo, hi = min(amps), max(amps)
    base = lo - t
    alpha = np.zeros(hi - lo + 2 * t + 1, dtype=complex)
    beta = np.zeros_like(alpha)
    for x, (a, b) in amps.items():
        alpha[x - base], beta[x - base] = a, b
    for s in range(t):
        i, j = t - s, hi - lo + t + s + 1
        a, b = alpha[i:j], beta[i:j]
        up = c00 * a + c01 * b
        beta[i - 1 : j - 1] = c10 * a + c11 * b
        alpha[i + 1 : j + 1] = up
        alpha[i] = beta[j - 1] = 0
    alpha, beta = alpha.tolist(), beta.tolist()
    sites = set().union(*(range(x - t, x + t + 1, 2) for x in amps))
    return {x: (alpha[x - base], beta[x - base]) for x in sites}


def step(state: PureState, params: CoinParams) -> PureState:
    """One walk step U = S C."""
    return PureState(_walk(state, params, 1))


def evolve_pure(init: PureState, params: CoinParams, t: int) -> PureState:
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return init
    return PureState(_walk(init, params, t))


def distribution_of(state: PureState, t: int = 0, method: str = "direct") -> Distribution:
    """Position distribution of a state, on the full integer span.

    Sites inside the span that the state never reaches (wrong parity, or
    interference zeros) appear explicitly with probability 0.
    """
    lo, hi = state.span
    if state.exact:
        exact: dict[int, SqrtTwo] = {x: SqrtTwo() for x in range(lo, hi + 1)}
        for x, (a, b) in state.amplitudes.items():
            exact[x] = a.abs_sq() + b.abs_sq()
        probs = {x: float(v) for x, v in exact.items()}
        return Distribution(probs, t=t, method=method, mode="exact", exact=exact)
    probs = {x: 0.0 for x in range(lo, hi + 1)}
    for x, (a, b) in state.amplitudes.items():
        probs[x] = abs(a) ** 2 + abs(b) ** 2
    return Distribution(probs, t=t, method=method, mode="double")


def evolve_mixed(
    state: MixedLocalizedState, params: CoinParams, t: int
) -> Distribution:
    """Distribution at time t for a walker started at the origin with a
    mixed coin state, by the definition P_y = Tr(Pi_y U^t rho U^t+).

    With psi_a the walk from |0, a>, that trace is the bilinear form
    P_y = rho_00 |psi_0(y)|^2 + rho_11 |psi_1(y)|^2
    + 2 Re(rho_10 <psi_0(y)|psi_1(y)>), where rho_10 = r1 + i r2. So two
    walks by ``evolve_pure`` give every rho. A diagonal rho on an
    eighth-turn coin stays exact, with the weights r0 +- r3 lifted by
    Fraction; otherwise the walks and the form are in floats.
    """
    diag = validate_state(state)
    if not diag.valid:
        raise ValueError(f"invalid mixed state: {diag.violations}")
    if t < 0:
        raise ValueError("t must be non-negative")
    r0, r1, r2, r3 = state.pauli
    exact = r1 == 0.0 and r2 == 0.0 and params.exact_capable
    if exact:
        one, zero, lift = SqrtTwoComplex.one(), SqrtTwoComplex.zero(), Fraction
    else:
        one, zero, lift = 1.0, 0.0, float
    psi0 = evolve_pure(PureState.localized(0, one, zero), params, t)
    psi1 = evolve_pure(PureState.localized(0, zero, one), params, t)
    d0, d1 = distribution_of(psi0, t), distribution_of(psi1, t)
    w0, w1 = lift(r0 + r3), lift(r0 - r3)
    if exact:
        acc = {x: w0 * p + w1 * d1.exact[x] for x, p in d0.exact.items()}
        probs = {x: float(v) for x, v in acc.items()}
        return Distribution(probs, t=t, method="mixed-direct", mode="exact", exact=acc)
    rho10 = complex(r1, r2)
    probs = {}
    for x, p in d0.probs.items():
        (a0, b0), (a1, b1) = psi0.amplitude(x), psi1.amplitude(x)
        cross = rho10 * (a0.conjugate() * a1 + b0.conjugate() * b1)
        probs[x] = w0 * p + w1 * d1.probs[x] + 2.0 * cross.real
    return Distribution(probs, t=t, method="mixed-direct", mode="double")
