"""Direct position-space evolution. This is the reference implementation
(oracle) that every other evaluation path is checked against.

A step applies the coin at every occupied site, then routes the coin-0
result to x+1 and the coin-1 result to x-1. Evolution is exact in
Q[sqrt(2)][i] when both the state and the coin live on the eighth-turn grid,
and steps site by site on that ring. Otherwise it is float stepping as array
code: alpha and beta are two complex128 arrays over the light-cone window,
and a step is two slice expressions, alpha'[x] = c00 alpha[x-1] +
c01 beta[x-1] and beta'[x] = c10 alpha[x+1] + c11 beta[x+1].
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .arithmetic import SqrtTwo, SqrtTwoComplex
from .core import (
    PSD_ATOL,
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


def _exact_basis_branches(r: tuple[float, float, float, float]):
    """Eigen-branches of a diagonal coin density matrix, kept exact.

    Diagonal rho (r1 = r2 = 0) has eigenpairs (r0 + r3, |0>) and
    (r0 - r3, |1>); the basis choice is pinned here so degenerate spectra
    stay deterministic.
    """
    r0, _, _, r3 = r
    one = SqrtTwoComplex.one()
    zero = SqrtTwoComplex.zero()
    return [
        (r0 + r3, PureState.localized(0, one, zero)),
        (r0 - r3, PureState.localized(0, zero, one)),
    ]


def _numeric_branches(rho: np.ndarray):
    evals, evecs = np.linalg.eigh(rho)
    branches = []
    for i in range(2):
        w = float(evals[i])
        v = evecs[:, i]
        branches.append((w, PureState.localized(0, complex(v[0]), complex(v[1]))))
    return branches


def evolve_mixed(
    state: MixedLocalizedState, params: CoinParams, t: int
) -> Distribution:
    """Distribution at time t for a walker started at the origin with a
    mixed coin state, by evolving the (at most two) eigen-branches of the
    coin density matrix as pure states and mixing their distributions.
    """
    diag = validate_state(state)
    if not diag.valid:
        raise ValueError(f"invalid mixed state: {diag.violations}")
    if t < 0:
        raise ValueError("t must be non-negative")
    r = state.pauli
    exact = r[1] == 0.0 and r[2] == 0.0 and params.exact_capable
    if exact:
        branches, zero, lift = _exact_basis_branches(r), SqrtTwo(), Fraction
    else:
        branches, zero, lift = _numeric_branches(state.rho), 0.0, float
    acc = {x: zero for x in range(-t, t + 1)}
    for weight, branch in branches:
        # validate_state admits a Bloch norm up to PSD_ATOL past r0, so an
        # eigenvalue down to -PSD_ATOL is rounding of a zero weight
        if weight <= 0.0:
            if weight < -PSD_ATOL:
                raise ValueError(f"negative branch weight {weight!r}")
            continue
        # Branch vectors are unit; no renormalization needed.
        d = distribution_of(evolve_pure(branch, params, t), t)
        w = lift(weight)
        for x, p in (d.exact if exact else d.probs).items():
            acc[x] += w * p
    if exact:
        probs = {x: float(v) for x, v in acc.items()}
        return Distribution(probs, t=t, method="mixed-direct", mode="exact", exact=acc)
    return Distribution(acc, t=t, method="mixed-direct", mode="double")
