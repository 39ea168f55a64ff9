"""Momentum-space evolution on an odd ring large enough that the walk never
wraps, giving an independent second evaluation path.

Forward transform: alpha~_j = sum_x e^{+i k_j x} alpha_x with k_j = 2 pi j / n.
Inverse: alpha_x = (1/n) sum_j e^{-i k_j x} alpha~_j.

With this sign convention the coefficient pair at mode j evolves under the
one-step matrix taken at -k_j: the matrix u_k acts on the momentum ket
|k> = sum_x e^{ikx} |x>, whose expansion coefficients carry the opposite
phase. Propagating with u(-k_j) is what reproduces the position-space walk
(coin component 0 moving right); tests pin this against the direct oracle.

One pass does it all: site x goes to ring index (x - c) mod n, the forward
sum is n * ifft, every mode advances t steps, and the inverse sum, fft / n, is
read back at (x - c) mod n on the window lo - t .. hi + t. The centre
c = min(max(0, lo), hi) sizes the ring by the support's extent, not by its
distance from 0: shifting by c multiplies mode j by e^{-i k_j c} going in and
undoes it coming out, so only rounding moves. A support that spans the origin
has c = 0 and runs the operations of x mod n bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CoinParams, Distribution, PureState, step_count
from .horner import u_k, u_k_power

__all__ = ["ring_size", "evolve_spectral", "simulate"]


def ring_size(t: int, support_radius: int) -> int:
    """Smallest odd ring that keeps a walk of t steps from a support of the
    given radius strictly away from wrap-around: 2(t + r) + 3 sites."""
    return 2 * (t + support_radius) + 3


def _window(
    init: PureState, params: CoinParams, t: int, n: int | None, power: str
) -> tuple[int, range, np.ndarray, np.ndarray]:
    """The checked step count, the window lo - t .. hi + t and its two coin
    amplitudes after t steps.

    power="horner" uses the Fibonacci-Horner identity at order two,
    u^t = f_t I + f_{t-1} (u - c0 I); "repeated" multiplies the one-step
    matrix t times and is kept as the reference the tests hold it to.
    The ring is indexed by offsets from c in Python ints, so a site past
    the int64 range reaches numpy only as its small offset.
    """
    t = step_count(t)
    if power not in ("repeated", "horner"):
        raise ValueError(f"unknown power method {power!r}")
    state = init.to_float()
    lo, hi = state.span
    c = min(max(0, lo), hi)
    if n is None:
        n = ring_size(t, max(abs(lo - c), abs(hi - c)))
    elif n < hi - lo + 2 * t + 1:
        raise ValueError(
            f"ring size {n} too small for {t} steps from sites {lo}..{hi}: "
            f"the walk needs {hi - lo + 2 * t + 1} sites"
        )
    elif n % 2 == 0:
        raise ValueError("ring size must be odd")
    ring = np.zeros((2, n), dtype=complex)
    sites = [(x - c) % n for x in state.support]
    ring[:, sites] = np.array(list(state.amplitudes.values())).T
    vecs = np.stack(n * np.fft.ifft(ring), axis=-1)[..., None]
    ks = 2.0 * math.pi * np.arange(n) / n
    if power == "horner":
        vecs = u_k_power(params, -ks, t) @ vecs
    else:
        m = u_k(params, -ks)
        for _ in range(t):
            vecs = m @ vecs
    window = np.arange(lo - c - t, hi - c + t + 1) % n
    alpha, beta = np.fft.fft(vecs[..., 0].T)[:, window] / n
    return t, range(lo - t, hi + t + 1), alpha, beta


def evolve_spectral(
    init: PureState, params: CoinParams, t: int, n: int | None = None,
    power: str = "horner",
) -> PureState:
    """Amplitudes on the window lo - t .. hi + t. An explicit ring n must be
    odd and hold the whole window, or the walk would wrap onto itself. ``t``
    is an integer (numpy integers included); anything else raises TypeError."""
    _, xs, alpha, beta = _window(init, params, t, n, power)
    return PureState(dict(zip(xs, zip(alpha.tolist(), beta.tolist()))))


def simulate(
    init: PureState, params: CoinParams, t: int, n: int | None = None,
    power: str = "horner",
) -> Distribution:
    t, xs, alpha, beta = _window(init, params, t, n, power)
    probs = (np.abs(alpha) ** 2 + np.abs(beta) ** 2).tolist()
    return Distribution(dict(zip(xs, probs)), t=t, method="spectral", mode="double")
