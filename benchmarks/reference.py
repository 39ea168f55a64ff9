"""Independent reference distributions for the benchmark's correctness checks.

Written from the walk's definition alone and sharing no code with ``qwalk``.
One step is U = S C: the coin

    C = [[cos t,            e^{i p1} sin t],
         [e^{i p2} sin t,  -e^{i(p1+p2)} cos t]]

acts at every site, then S moves coin component 0 from x to x+1 and
component 1 from x to x-1. The stepper keeps the whole light cone in two
numpy arrays, so nothing falls off the edge.

A mixed coin state rho = r0 I + r1 X + r2 Y + r3 Z at the origin is handled
by linearity rather than by splitting rho into eigen-branches:

    P_rho(y) = sum_ij rho_ij <psi_j(t)| Pi_y |psi_i(t)>,

with psi_0 and psi_1 evolved from the coin basis states |0, 0> and |0, 1>.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Walk:
    """Amplitudes on sites lo .. lo + len(alpha) - 1."""

    lo: int
    alpha: np.ndarray
    beta: np.ndarray

    def amplitude(self, x: int) -> tuple[complex, complex]:
        i = x - self.lo
        if 0 <= i < len(self.alpha):
            return complex(self.alpha[i]), complex(self.beta[i])
        return 0j, 0j

    def probabilities(self) -> dict[int, float]:
        p = np.abs(self.alpha) ** 2 + np.abs(self.beta) ** 2
        return {self.lo + i: float(v) for i, v in enumerate(p)}


def coin(theta: float, phi1: float, phi2: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    e1, e2 = cmath.exp(1j * phi1), cmath.exp(1j * phi2)
    return np.array([[c, e1 * s], [e2 * s, -e1 * e2 * c]], dtype=complex)


def evolve(sites: dict[int, tuple[complex, complex]], c: np.ndarray, t: int) -> Walk:
    """Walk ``t`` steps from ``sites`` (x -> (alpha_x, beta_x)) under coin ``c``."""
    lo, hi = min(sites) - t, max(sites) + t
    alpha = np.zeros(hi - lo + 1, dtype=complex)
    beta = np.zeros(hi - lo + 1, dtype=complex)
    for x, (a, b) in sites.items():
        alpha[x - lo], beta[x - lo] = a, b
    for _ in range(t):
        up = c[0, 0] * alpha + c[0, 1] * beta
        down = c[1, 0] * alpha + c[1, 1] * beta
        alpha = np.concatenate(([0j], up[:-1]))
        beta = np.concatenate((down[1:], [0j]))
    return Walk(lo, alpha, beta)


def pure_distribution(sites, c: np.ndarray, t: int) -> dict[int, float]:
    return evolve(sites, c, t).probabilities()


def mixed_distribution(pauli, c: np.ndarray, t: int) -> dict[int, float]:
    """Distribution from the origin with coin density matrix given by its
    Pauli components (r0, r1, r2, r3)."""
    r0, r1, r2, r3 = pauli
    rho = ((r0 + r3, r1 - 1j * r2), (r1 + 1j * r2, r0 - r3))
    psi = [evolve({0: (1, 0)}, c, t), evolve({0: (0, 1)}, c, t)]
    p = np.zeros(2 * t + 1)
    for i in range(2):
        for j in range(2):
            overlap = np.conj(psi[j].alpha) * psi[i].alpha
            overlap += np.conj(psi[j].beta) * psi[i].beta
            p += (rho[i][j] * overlap).real
    return {y: float(p[y + t]) for y in range(-t, t + 1)}
