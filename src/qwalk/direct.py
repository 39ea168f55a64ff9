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
and |0, 1>: the two columns of U^t. They are stepped in one pass, each
array cell holding the pair (psi_0, psi_1), and the distribution is the
bilinear form sum_ab rho_ab <psi_b(y)|psi_a(y)>. Only its weights depend
on rho: the pair's site sums |psi_0(y)|^2, |psi_1(y)|^2 and
<psi_0(y)|psi_1(y)> depend on (coin, t) alone. They are read once off the
pairs, and those of the last (coin, t) are kept, so a sweep of rho on one
walk steps it once and weights the kept sums by one array expression.
"""

from __future__ import annotations

import functools
import math
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
    step_count,
    valid_mixed_state,
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
    if not (state.exact and params.exact_capable):
        return _float_walk(state.to_float().amplitudes, params, t)
    amps = state.amplitudes
    denominator = math.lcm(*(z.denominator for pair in amps.values() for z in pair))
    cells = {x: a.numerators(denominator) + b.numerators(denominator)
             for x, (a, b) in amps.items()}
    scale_t, walked = _numerator_walk(cells, params, t)
    denominator *= scale_t
    ring = SqrtTwoComplex.from_numerators
    return {
        x: (ring(*c[:4], denominator), ring(*c[4:], denominator))
        for x, c in walked.items()
    }


def _float_walk(cells: dict, params: CoinParams, t: int) -> dict:
    """Float stepping of {x: (alpha, beta)}: complex amplitudes, or pairs
    of them for two walks at once."""
    (c00, c01), (c10, c11) = coin_matrix(params).tolist()

    def advance(rows, a_at, b_at):
        # the new beta goes straight back in place, so only up is held
        (alpha, beta), a, b = rows, rows[0][a_at], rows[1][b_at]
        up = c00 * a + c01 * b
        beta[b_at] = c10 * a + c11 * b
        alpha[a_at] = up

    return _stepped(cells, t, complex, advance)


def _numerator_walk(cells: dict, params: CoinParams, t: int) -> tuple[int, dict]:
    """Exact stepping of integer numerator columns (p, q, r, s of alpha,
    then of beta), each an integer or a pair of them for two walks at
    once: (scale**t, {x: column}), the numerators after t steps being over
    scale**t times the starting denominator."""
    scale, coin = _integer_coin(params)

    def advance(rows, a_at, b_at):
        # every new row is made before the first is written, as each
        # reads all eight
        stretches = (a_at,) * 4 + (b_at,) * 4
        w = [row[at] for row, at in zip(rows, stretches)]
        new = [_combination(row, w) for row in coin]
        for row, at, value in zip(rows, stretches, new):
            row[at] = value

    return scale**t, _stepped(cells, t, object, advance)


def _basis_walks(params: CoinParams, t: int, exact: bool) -> tuple[int, dict]:
    """psi_0 and psi_1, the walks from |0, 0> and |0, 1>, in one pass: the
    two columns of U^t, stepped together on a trailing walk axis. Returns
    (d, {x: column}), each component of a column a pair (psi_0, psi_1):
    complex amplitudes with d = 1, or, ``exact``, the integer numerators
    p, q, r, s of alpha, then of beta, over d."""
    if exact:
        start = ((1, 0),) + ((0, 0),) * 3 + ((0, 1),) + ((0, 0),) * 3
        return _numerator_walk({0: start}, params, t)
    return 1, _float_walk({0: ((1, 0), (0, 1))}, params, t)


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
    A row is (n,) for one walk, or (n, 2) when each component is a pair:
    two walks stepped together, the walk axis last, so a stretch of cells
    is row[at] either way. Cell m of every row holds site lo - t + g m
    after t steps: stride g = 2 when every source has lo's parity (the
    walk keeps the parity of x + s, so no other site is reached) and 1
    otherwise. The sites [lo - s, hi + s] after s steps are alpha's cells
    from lag = 2(t - s)/g on and beta's short of n - lag, so step s + 1 is
    advance(rows, a_at, b_at), the coin in place on those two stretches.
    Only light-cone sites are returned.
    """
    lo, hi = min(cells), max(cells)
    g = 1 if any((x - lo) % 2 for x in cells) else 2
    n = (hi - lo + 2 * t) // g + 1
    column = cells[lo]
    walks = (len(column[0]),) if isinstance(column[0], tuple) else ()
    rows = [np.zeros((n, *walks), dtype=dtype) for _ in column]
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
    t = step_count(t)
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
    + 2 Re(rho_10 <psi_0(y)|psi_1(y)>), where rho_10 = r1 + i r2. So the
    two columns of U^t give every rho: their site sums (``_pair_sums``,
    kept for the last walk) are weighted by rho. A diagonal rho on an
    eighth-turn coin stays exact: the weights r0 +- r3, lifted by
    Fraction, go over one common denominator with the integer numerators,
    and each site is reduced once. Otherwise the walks and the form are in
    floats, weighted by one array expression whose every operation rounds
    once, in the order of the per-site form w0 N0 + w1 N1 + 2 Re(rho_10 X)
    with CPython's complex product, so each site is that form's float.
    """
    r0, r1, r2, r3 = valid_mixed_state(state).pauli
    t = step_count(t)
    exact = r1 == 0.0 and r2 == 0.0 and params.exact_capable
    sums = _pair_sums(params, t, exact)
    sites = range(-t, t + 1)
    if exact:
        denominator, norms = sums
        w0, w1 = Fraction(r0 + r3), Fraction(r0 - r3)
        common = math.lcm(w0.denominator, w1.denominator)
        m0 = w0.numerator * (common // w0.denominator)
        m1 = w1.numerator * (common // w1.denominator)
        common *= denominator * denominator
        acc = {x: SqrtTwo() for x in sites}
        for x, u0, v0, u1, v1 in norms:
            acc[x] = SqrtTwo.from_numerators(m0 * u0 + m1 * u1, m0 * v0 + m1 * v1, common)
        probs = {x: float(v) for x, v in acc.items()}
        return Distribution(probs, t=t, method="mixed-direct", mode="exact", exact=acc)
    w0, w1 = r0 + r3, r0 - r3
    n0, n1, xr, xi = sums
    probs = w0 * n0 + w1 * n1 + 2.0 * (r1 * xr - r2 * xi)
    return Distribution(dict(zip(sites, probs.tolist())), t=t, method="mixed-direct",
                        mode="double")


@functools.lru_cache(maxsize=1)
def _pair_sums(params: CoinParams, t: int, exact: bool):
    """The part of evolve_mixed that rho does not enter: the site sums of
    the basis pair psi_0, psi_1 (``_basis_walks``) after t steps. One
    entry is kept, the last (params, t, exact), so a sweep of rho on one
    walk steps it once; a race of threads can only build it twice.

    Floats: a read-only (4, 2t+1) float64 array, whose rows over
    y = -t..t are N0 = |psi_0(y)|^2, N1 = |psi_1(y)|^2 and the real and
    imaginary parts of X = <psi_0(y)|psi_1(y)>, each made by the per-site
    Python expression (abs(a) ** 2 + abs(b) ** 2, conj(a0) a1 + conj(b0) b1)
    and 0.0 off the walk's sites. That keeps 32 bytes a site: 0.64 MB at
    t = 10^4. Exact: (d, ((x, u0, v0, u1, v1), ...)) over the walk's sites,
    |psi_a(x)|^2 being (u_a + v_a sqrt2) / d^2.
    """
    denominator, walked = _basis_walks(params, t, exact)
    if exact:
        norms = []
        for x, column in walked.items():
            walk0, walk1 = zip(*column)
            norms.append((x, *_norm_numerators(*walk0), *_norm_numerators(*walk1)))
        return denominator, tuple(norms)
    n0, n1, xr, xi = ([0.0] * (2 * t + 1) for _ in range(4))
    for x, ((a0, a1), (b0, b1)) in walked.items():
        cross = a0.conjugate() * a1 + b0.conjugate() * b1
        n0[x + t] = abs(a0) ** 2 + abs(b0) ** 2
        n1[x + t] = abs(a1) ** 2 + abs(b1) ** 2
        xr[x + t], xi[x + t] = cross.real, cross.imag
    sums = np.array((n0, n1, xr, xi))
    sums.flags.writeable = False
    return sums


def _norm_numerators(p, q, r, s, u, v, w, z) -> tuple[int, int]:
    """|alpha|^2 + |beta|^2 from the numerators of alpha = p + q sqrt2 +
    i(r + s sqrt2) and beta = u + v sqrt2 + i(w + z sqrt2): the integers
    (A, B) of A + B sqrt2, over the square of their denominator."""
    return (p * p + r * r + u * u + w * w + 2 * (q * q + s * s + v * v + z * z),
            2 * (p * q + r * s + u * v + w * z))
