"""Momentum-space evolution on an odd ring large enough that the walk never
wraps, giving an independent second evaluation path.

Forward transform: alpha~_j = sum_x e^{+i k_j x} alpha_x with k_j = 2 pi j / n.
Inverse: alpha_x = (1/n) sum_j e^{-i k_j x} alpha~_j.

With this sign convention the coefficient pair at mode j evolves under the
one-step matrix taken at -k_j: the matrix u_k acts on the momentum ket
|k> = sum_x e^{ikx} |x>, whose expansion coefficients carry the opposite
phase. Propagating with u(-k_j) is what reproduces the position-space walk
(coin component 0 moving right); tests pin this against the direct oracle.

Both transforms are FFTs over the ring, with site x at index x mod n:
the forward sum is n * ifft and the inverse is fft / n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CoinParams, Distribution, PureState
from .horner import u_k, u_k_power

__all__ = [
    "MomentumField",
    "ring_size",
    "forward",
    "propagate",
    "inverse",
    "evolve_spectral",
    "simulate",
]


@dataclass(frozen=True)
class MomentumField:
    """Coin-resolved momentum amplitudes on the n ring modes."""

    n: int
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        if self.n % 2 == 0 or self.n < 1:
            raise ValueError("ring size must be odd and positive")
        if self.alpha.shape != (self.n,) or self.beta.shape != (self.n,):
            raise ValueError("mode arrays must have shape (n,)")

    @property
    def ks(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n) / self.n

    def mode_norms(self) -> np.ndarray:
        return np.abs(self.alpha) ** 2 + np.abs(self.beta) ** 2


def ring_size(t: int, support_radius: int) -> int:
    """Smallest odd ring that keeps a walk of t steps from a support of the
    given radius strictly away from wrap-around."""
    n = 2 * (t + support_radius) + 3
    return n if n % 2 == 1 else n + 1


def forward(state: PureState, n: int) -> MomentumField:
    """Embed a line state on the ring and transform to momentum space."""
    state = state.to_float()
    lo, hi = state.span
    radius = max(abs(lo), abs(hi))
    if n % 2 == 0:
        raise ValueError("ring size must be odd")
    if n < 2 * radius + 1:
        raise ValueError(
            f"ring size {n} too small for support radius {radius}"
        )
    ring = np.zeros((2, n), dtype=complex)
    ring[:, np.array(state.support) % n] = np.array(list(state.amplitudes.values())).T
    alpha, beta = n * np.fft.ifft(ring)
    return MomentumField(n, alpha, beta)


def propagate(
    field: MomentumField, params: CoinParams, t: int, power: str = "horner"
) -> MomentumField:
    """Advance every mode by t steps.

    power="horner" uses the quadratic characteristic identity
    u^t = f_t I + f_{t-1} (u - c0 I); "repeated" multiplies the one-step
    matrix t times and is kept as the reference the tests hold it to.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if power not in ("repeated", "horner"):
        raise ValueError(f"unknown power method {power!r}")
    vecs = np.stack([field.alpha, field.beta], axis=-1)[..., None]
    if power == "horner":
        vecs = u_k_power(params, -field.ks, t) @ vecs
    else:
        m = u_k(params, -field.ks)
        for _ in range(t):
            vecs = m @ vecs
    alpha, beta = vecs[..., 0].T
    return MomentumField(field.n, alpha, beta)


def inverse(field: MomentumField, lo: int | None = None, hi: int | None = None) -> PureState:
    """Transform back to positions lo..hi (default: the centered window
    covering the whole ring). The result is periodic in x with period n,
    so a window wider than the ring repeats it."""
    half = (field.n - 1) // 2
    if lo is None:
        lo = -half
    if hi is None:
        hi = half
    xs = np.arange(lo, hi + 1)
    alpha, beta = np.fft.fft([field.alpha, field.beta])[:, xs % field.n] / field.n
    return PureState(dict(zip(xs.tolist(), zip(alpha.tolist(), beta.tolist()))))


def evolve_spectral(
    init: PureState, params: CoinParams, t: int, n: int | None = None,
    power: str = "horner",
) -> PureState:
    """Full pipeline, returning amplitudes on the light-cone window.

    An explicit ring must hold the whole window lo - t .. hi + t, or the
    walk would wrap onto itself.
    """
    lo, hi = init.span
    if n is None:
        n = ring_size(t, max(abs(lo), abs(hi)))
    elif n < hi - lo + 2 * t + 1:
        raise ValueError(
            f"ring size {n} too small for {t} steps from sites {lo}..{hi}: "
            f"the walk needs {hi - lo + 2 * t + 1} sites"
        )
    field = propagate(forward(init, n), params, t, power=power)
    return inverse(field, lo - t, hi + t)


def simulate(
    init: PureState, params: CoinParams, t: int, n: int | None = None,
    power: str = "horner",
) -> Distribution:
    state = evolve_spectral(init, params, t, n=n, power=power)
    amps = np.abs(np.array(list(state.amplitudes.values()))) ** 2
    probs = dict(zip(state.support, (amps[:, 0] + amps[:, 1]).tolist()))
    return Distribution(probs, t=t, method="spectral", mode="double")
