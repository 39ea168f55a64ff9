"""Direct position-space evolution. This is the reference implementation
(oracle) that every other evaluation path is checked against.

A step applies the coin at every occupied site, then routes the coin-0
result to x+1 and the coin-1 result to x-1. Both scalar kinds step the
same way, as array code (``_stepped``) with each coin component in its
own rest frame: alpha, which moves right, at z = x - s after s steps, and
beta at y = x + s. So a step moves no cell: it applies the coin in place
to one stretch of the alpha arrays and one of the beta arrays. A walk
keeps the parity of x + s, so when every source has one parity a cell
holds every other site.

* Float stepping, when the state or the coin is off the eighth-turn grid:
  one complex128 row per component.
* Exact stepping, when both are on it: every coin entry has a
  denominator dividing 2, so the coin is an integer matrix over a scale
  of 1 or 2 (2 unless every entry is integral). Each component is the four
  integer numerators p, q, r, s of p + q sqrt2 + i(r + s sqrt2), in
  Python-int object arrays, over one denominator for the whole walk: the
  initial state's common denominator D times scale^t. A step multiplies
  by the integer matrix alone, so no loop takes a gcd; each site is
  reduced to a ``SqrtTwoComplex`` once, at the output.

A mixed coin state rho is not stepped as a matrix. By linearity the walk
from rho is known from the two basis walks psi_0 and psi_1, from |0, 0>
and |0, 1>, and the distribution is the bilinear form
sum_ab rho_ab <psi_b(y)|psi_a(y)> at each site y.
"""

from __future__ import annotations

import math
import operator
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

# 1, sqrt2, i and i sqrt2: the ring element c times each of them gives one
# column of c's integer matrix on the numerators (p, q, r, s)
_BASIS = [
    SqrtTwoComplex.from_numerators(*unit, 1)
    for unit in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
]


def _walk(state: PureState, params: CoinParams, t: int) -> dict:
    """The amplitudes after t steps, as a plain {x: (alpha, beta)} dict.

    The keys are the sites x + t - 2k for each source x and 0 <= k <= t,
    interference zeros included. Each output component has exactly one
    source site: alpha at x comes from x-1 and beta at x from x+1, so no
    sums are accumulated. The dict is left unvalidated; callers wrap it in
    one PureState at the end.
    """
    if state.exact and params.exact_capable:
        return _exact_walk(state.amplitudes, params, t)
    (c00, c01), (c10, c11) = coin_matrix(params).tolist()

    def advance(rows, a_at, b_at):
        # the new beta goes straight back in place, so only up is held
        (alpha, beta), a, b = rows, rows[0][a_at], rows[1][b_at]
        up = c00 * a + c01 * b
        beta[b_at] = c10 * a + c11 * b
        alpha[a_at] = up

    return _stepped(state.to_float().amplitudes, t, complex, advance)


def _exact_walk(amps: dict, params: CoinParams, t: int) -> dict:
    """Exact stepping on integer numerators over one denominator."""
    denominator = math.lcm(*(z.denominator for pair in amps.values() for z in pair))
    scale, coin = _integer_coin(params)
    cells = {x: a.numerators(denominator) + b.numerators(denominator)
             for x, (a, b) in amps.items()}

    def advance(rows, a_at, b_at):
        # every new row is made before the first is written, as each
        # reads all eight
        stretches = (a_at,) * 4 + (b_at,) * 4
        w = [row[at] for row, at in zip(rows, stretches)]
        new = [_combination(row, w) for row in coin]
        for row, at, value in zip(rows, stretches, new):
            row[at] = value

    denominator *= scale**t
    ring = SqrtTwoComplex.from_numerators
    return {
        x: (ring(*c[:4], denominator), ring(*c[4:], denominator))
        for x, c in _stepped(cells, t, object, advance).items()
    }


def _integer_coin(params: CoinParams) -> tuple[int, list]:
    """The coin as (scale, rows): scale times the coin is an integer 8x8
    matrix on the numerator rows (alpha's p, q, r, s, then beta's). Each
    of its rows is kept as (g, entries): g the gcd of its nonzero entries,
    and each of them divided by g, with its column, as (m, column).

    Column 4b + j of the rows for output component a holds the numerators
    of C[a][b] times the j-th of 1, sqrt2, i, i sqrt2, over the scale: the
    lcm of the entries' denominators, 1 or 2.
    """
    blocks = [[c * e for c in row for e in _BASIS] for row in coin_matrix_exact(params)]
    scale = math.lcm(*(z.denominator for block in blocks for z in block))
    rows = []
    for block in blocks:
        numerators = [z.numerators(scale) for z in block]
        for r in range(4):
            entries = [(n[r], i) for i, n in enumerate(numerators) if n[r]]
            # a unitary coin leaves no row empty
            g = math.gcd(*(m for m, _ in entries))
            rows.append((g, [(m // g, i) for m, i in entries]))
    return scale, rows


def _combination(row: tuple, w: list) -> np.ndarray:
    """One row (g, entries) of the integer coin applied to the stretches w:
    g times the sum of m w[i] over its entries, those with m = +-1 as a
    plain sum or difference. Always a new array, never a view of w."""
    g, ((m, i), *rest) = row
    if not rest:
        return g * m * w[i]
    out = w[i] if m == 1 else m * w[i]
    for m, i in rest:
        if m == 1:
            out = out + w[i]
        elif m == -1:
            out = out - w[i]
        else:
            out = out + m * w[i]
    return out if g == 1 else g * out


def _stepped(cells: dict, t: int, dtype, advance) -> dict:
    """The rest-frame stepping of both scalar kinds: {x: column} after t steps.

    A column holds 2k components, the first k riding coin component 0
    (alpha) and the last k component 1 (beta). Each is one row, alpha's in
    the frame z = x - s and beta's in y = x + s, so a step moves no cell.
    Cell m of every row holds site lo - t + g m after t steps: stride g = 2
    when every source has lo's parity (the walk keeps the parity of x + s,
    so no other site is reached) and 1 otherwise. The sites [lo - s, hi + s]
    after s steps are alpha's cells from lag = 2(t - s)/g on and beta's
    short of n - lag, so step s + 1 is advance(rows, a_at, b_at), the coin
    in place on those two stretches. Only light-cone sites are returned.
    """
    lo, hi = min(cells), max(cells)
    g = 1 if any((x - lo) % 2 for x in cells) else 2
    n = (hi - lo + 2 * t) // g + 1
    rows = [np.zeros(n, dtype=dtype) for _ in next(iter(cells.values()))]
    k = len(rows) // 2
    for x, column in cells.items():
        for i, (row, value) in enumerate(zip(rows, column)):
            row[(x - lo + (2 * t if i < k else 0)) // g] = value
    for s in range(t):
        lag = 2 * (t - s) // g
        advance(rows, slice(lag, n), slice(0, n - lag))
    columns = list(zip(*(row.tolist() for row in rows)))
    sites = set().union(*(range(x - t, x + t + 1, 2) for x in cells))
    return {x: columns[(x - lo + t) // g] for x in sites}


def step(state: PureState, params: CoinParams) -> PureState:
    """One walk step U = S C."""
    return PureState(_walk(state, params, 1))


def evolve_pure(init: PureState, params: CoinParams, t: int) -> PureState:
    """The state after t steps; ``t`` is an integer (numpy integers
    included), anything else raises TypeError."""
    t = operator.index(t)
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
    t = operator.index(t)
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
