"""Matrix powers through characteristic polynomials.

A 2x2 matrix M with characteristic relation M^2 = c0 M + c1 I satisfies

    M^t = f_t I + f_{t-1} (M - c0 I),

where the generalized Fibonacci sequence f_t obeys f_t = c0 f_{t-1} +
c1 f_{t-2} with f_0 = 1 and f_j = 0 for j < 0, and has the explicit
Horner-style expansion

    f_t = sum_{h0 + 2 h1 = t} ((h0 + h1)! / (h0! h1!)) c0^{h0} c1^{h1}.

The same construction at quartic order powers the 4x4 momentum-pair
superoperator of the Hadamard walk:

    L^t = f_t L0 + f_{t-1} L1 + f_{t-2} L2 + f_{t-3} L3,

with L0 = I, L1 = L - c0 I, L2 = L^2 - c0 L - c1 I,
L3 = L^3 - c0 L^2 - c1 L - c2 I, and f_t now driven by the quartic
coefficients. Everything here is generic over the scalar type (complex,
Fraction, ring elements, mpmath, numpy arrays), so the same code serves
float and exact modes, and one call can run the recurrence for a whole
array of momenta at once.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import CoinParams, coin_matrix

__all__ = [
    "CharPolyQuad",
    "CharPolyQuartic",
    "u_k",
    "quad_coeffs",
    "f_quad",
    "f_quad_sequence",
    "u_k_power",
    "superop",
    "quartic_coeffs",
    "quartic_partitions",
    "f_quartic",
    "f_quartic_sequence",
    "horner_basis",
    "superop_power",
]


def u_k(params: CoinParams, k) -> np.ndarray:
    """One-step evolution matrix in the momentum-ket basis:
    u_k = diag(e^{-ik}, e^{ik}) C. An array of momenta gives the stack of
    matrices, of shape k.shape + (2, 2)."""
    phases = np.stack([np.exp(-1j * k), np.exp(1j * k)], axis=-1)
    return phases[..., :, None] * coin_matrix(params)


@dataclass(frozen=True)
class CharPolyQuad:
    """Coefficients of lambda^2 = c0 lambda + c1 for a 2x2 matrix:
    c0 = trace, c1 = -determinant."""

    c0: complex
    c1: complex


@dataclass(frozen=True)
class CharPolyQuartic:
    """Coefficients of lambda^4 = c0 l^3 + c1 l^2 + c2 l + c3."""

    c0: complex
    c1: complex
    c2: complex
    c3: complex


def quad_coeffs(params: CoinParams, k) -> CharPolyQuad:
    """Characteristic coefficients of u_k.

    c0 = tr(u_k) = cos(theta) (e^{-ik} - e^{i(k+phi1+phi2)}) and
    c1 = -det(u_k) = e^{i(phi1+phi2)}. Note |c1| = 1 always. An array of
    momenta gives c0 of the same shape; c1 does not depend on k.
    """
    c = math.cos(params.theta.radians)
    chi = params.chi
    c0 = c * (np.exp(-1j * k) - chi * np.exp(1j * k))
    return CharPolyQuad(c0, chi)


def _quad_partitions(t: int) -> Iterator[tuple[int, int]]:
    # h0 + 2 h1 = t, descending in h0.
    for h1 in range(0, t // 2 + 1):
        yield t - 2 * h1, h1


def f_quad(coeffs: CharPolyQuad, t: int):
    """f_t by the explicit combinatorial sum. Scalar-generic."""
    if t < 0:
        return 0
    if t == 0:
        return 1
    c0, c1 = coeffs.c0, coeffs.c1
    pow0 = _powers(c0, t)
    pow1 = _powers(c1, t // 2)
    total = 0
    for h0, h1 in _quad_partitions(t):
        total = total + math.comb(h0 + h1, h1) * (pow0[h0] * pow1[h1])
    return total


def _powers(c, n: int) -> list:
    out = [1]
    for _ in range(n):
        out.append(out[-1] * c)
    return out


def _f_quad_terms(coeffs: CharPolyQuad, t_max: int) -> Iterator:
    """f_0, ..., f_{t_max} by the two-term recurrence, one at a time, so a
    caller that needs only the last two need not hold the rest."""
    if t_max < 0:
        return
    prev2, prev1 = 0, 1  # f_{-1}, f_0
    yield 1
    for _ in range(t_max):
        prev2, prev1 = prev1, coeffs.c0 * prev1 + coeffs.c1 * prev2
        yield prev1


def f_quad_sequence(coeffs: CharPolyQuad, t_max: int) -> list:
    """[f_0, ..., f_{t_max}] by the two-term recurrence. Scalar-generic."""
    return list(_f_quad_terms(coeffs, t_max))


def _f_pair(seq: Sequence, t: int) -> tuple:
    # (f_t, f_{t-1}) with the f_{-1} = 0 boundary, where seq[t] is f_t.
    return seq[t], (seq[t - 1] if t >= 1 else 0)


def u_k_power(params: CoinParams, k, t: int) -> np.ndarray:
    """u_k^t = f_t I + f_{t-1} (u_k - c0 I) by the quadratic Horner
    identity (no matrix-matrix products). An array of momenta gives the
    stack of powers, of shape k.shape + (2, 2)."""
    if t < 0:
        raise ValueError("t must be non-negative")
    coeffs = quad_coeffs(params, k)
    last = deque(_f_quad_terms(coeffs, t), maxlen=2)
    ft, ftm1 = _f_pair(last, min(t, 1))
    ft, ftm1, c0 = (np.asarray(v)[..., None, None] for v in (ft, ftm1, coeffs.c0))
    eye = np.eye(2)
    return ft * eye + ftm1 * (u_k(params, k) - c0 * eye)


def superop(k: float, kp: float) -> np.ndarray:
    """The momentum-pair conjugation map O -> u_k O u_{k'}^dagger of the
    Hadamard walk, written in the Pauli basis (I, X, Y, Z)/ordered rows.

    Depends on the momenta only through delta = k - k' and sigma = k + k'.
    """
    delta = k - kp
    sigma = k + kp
    cd, sd = math.cos(delta), math.sin(delta)
    cs, ss = math.cos(sigma), math.sin(sigma)
    return np.array(
        [
            [cd, -1j * sd, 0, 0],
            [0, 0, ss, cs],
            [0, 0, -cs, ss],
            [-1j * sd, cd, 0, 0],
        ],
        dtype=complex,
    )


def quartic_coeffs(k: float, kp: float) -> CharPolyQuartic:
    """Characteristic coefficients of the Hadamard pair superoperator:
    c0 = c2 = cos(k-k') - cos(k+k'), c1 = 2 cos(k-k') cos(k+k'), c3 = -1.
    """
    cd = math.cos(k - kp)
    cs = math.cos(k + kp)
    c02 = cd - cs
    return CharPolyQuartic(c02, 2.0 * cd * cs, c02, -1.0)


def quartic_partitions(m: int) -> list[tuple[int, int, int, int]]:
    """All (h0, h1, h2, h3) >= 0 with h0 + 2 h1 + 3 h2 + 4 h3 = m,
    in descending lexicographic order."""
    out = []
    for h0 in range(m, -1, -1):
        rem0 = m - h0
        for h1 in range(rem0 // 2, -1, -1):
            rem1 = rem0 - 2 * h1
            for h2 in range(rem1 // 3, -1, -1):
                rem2 = rem1 - 3 * h2
                if rem2 % 4 == 0:
                    out.append((h0, h1, h2, rem2 // 4))
    return out


def _multinomial(parts: tuple[int, ...]) -> int:
    total = 0
    result = 1
    for p in parts:
        total += p
        result *= math.comb(total, p)
    return result


def f_quartic(coeffs: CharPolyQuartic, t: int):
    """Quartic f_t by the explicit partition sum. Scalar-generic."""
    if t < 0:
        return 0
    if t == 0:
        return 1
    cs = (coeffs.c0, coeffs.c1, coeffs.c2, coeffs.c3)
    pows = [
        _powers(cs[0], t),
        _powers(cs[1], t // 2),
        _powers(cs[2], t // 3),
        _powers(cs[3], t // 4),
    ]
    total = 0
    for h in quartic_partitions(t):
        term = _multinomial(h)
        for i in range(4):
            term = term * pows[i][h[i]]
        total = total + term
    return total


def _f_quartic_terms(coeffs: CharPolyQuartic, t_max: int) -> Iterator:
    """f_0, ..., f_{t_max} by the four-term recurrence, one at a time, so a
    caller that needs only the last few need not hold the rest."""
    if t_max < 0:
        return
    hist = [0, 0, 0, 1]  # f_{-3}, f_{-2}, f_{-1}, f_0
    yield 1
    for _ in range(t_max):
        nxt = (
            coeffs.c0 * hist[3]
            + coeffs.c1 * hist[2]
            + coeffs.c2 * hist[1]
            + coeffs.c3 * hist[0]
        )
        hist = [hist[1], hist[2], hist[3], nxt]
        yield nxt


def f_quartic_sequence(coeffs: CharPolyQuartic, t_max: int) -> list:
    """[f_0, ..., f_{t_max}] by the four-term recurrence. Scalar-generic."""
    return list(_f_quartic_terms(coeffs, t_max))


def horner_basis(k: float, kp: float) -> tuple[np.ndarray, ...]:
    """(L0, L1, L2, L3), the four matrices multiplying f_t, f_{t-1},
    f_{t-2}, f_{t-3} in the quartic power identity."""
    ell = superop(k, kp)
    c = quartic_coeffs(k, kp)
    eye = np.eye(4, dtype=complex)
    l2_raw = ell @ ell
    l3_raw = l2_raw @ ell
    l1 = ell - c.c0 * eye
    l2 = l2_raw - c.c0 * ell - c.c1 * eye
    l3 = l3_raw - c.c0 * l2_raw - c.c1 * ell - c.c2 * eye
    return eye, l1, l2, l3


def superop_power(k: float, kp: float, t: int) -> np.ndarray:
    """L^t via the quartic Horner identity."""
    if t < 0:
        raise ValueError("t must be non-negative")
    coeffs = quartic_coeffs(k, kp)
    seq = f_quartic_sequence(coeffs, t)
    basis = horner_basis(k, kp)
    out = np.zeros((4, 4), dtype=complex)
    for j in range(4):
        if t - j < 0:
            break
        out += complex(seq[t - j]) * basis[j]
    return out
