"""Matrix powers through characteristic polynomials.

An r x r matrix M whose characteristic relation is

    M^r = c_0 M^{r-1} + c_1 M^{r-2} + ... + c_{r-1} I

has, for every t >= 0, the Fibonacci-Horner decomposition

    M^t = f_t M_0 + f_{t-1} M_1 + ... + f_{t-r+1} M_{r-1},

with the Horner basis M_0 = I, M_j = M M_{j-1} - c_{j-1} I, and the
r-generalized Fibonacci sequence f_t = c_0 f_{t-1} + ... + c_{r-1} f_{t-r},
f_0 = 1 and f_j = 0 for j < 0. The sequence has the explicit expansion

    f_t = sum over h_1 + 2 h_2 + ... + r h_r = t of
          ((h_1 + ... + h_r)! / (h_1! ... h_r!)) c_0^{h_1} ... c_{r-1}^{h_r}.

Coefficients are plain tuples (c_0, ..., c_{r-1}), so r = len(coeffs). The
walk uses two orders: r = 2 for the one-step matrix u_k of the spectral
path, and r = 4 for the momentum-pair superoperator of the Hadamard walk.
The sequences are generic over the scalar type (complex, Fraction, ring
elements, polynomials, numpy arrays), so the same code serves float and
exact modes, and one call can run the recurrence for a whole array of
momenta at once.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterator, Sequence

import numpy as np

from .core import CoinParams, coin_matrix, step_count

__all__ = [
    "partitions",
    "f_explicit",
    "f_sequence",
    "horner_basis",
    "matrix_power",
    "u_k",
    "quad_coeffs",
    "u_k_power",
    "superop",
    "quartic_coeffs",
    "superop_power",
]


def partitions(t: int, r: int) -> list[tuple[int, ...]]:
    """All (h_1, ..., h_r) >= 0 with h_1 + 2 h_2 + ... + r h_r = t, in
    descending lexicographic order; none for t < 0."""

    def fill(rem: int, w: int) -> Iterator[tuple[int, ...]]:
        if w == r:
            if rem % r == 0:
                yield (rem // r,)
            return
        for h in range(rem // w, -1, -1):
            for rest in fill(rem - w * h, w + 1):
                yield (h, *rest)

    return list(fill(t, 1)) if t >= 0 else []


def _powers(c, n: int) -> list:
    out = [1]
    for _ in range(n):
        out.append(out[-1] * c)
    return out


def f_explicit(coeffs: Sequence, t: int):
    """f_t by the explicit multinomial sum (0 for t < 0). Scalar-generic."""
    pows = [_powers(c, t // (i + 1)) for i, c in enumerate(coeffs)]
    total = 0
    for h in partitions(t, len(coeffs)):
        term = math.factorial(sum(h)) // math.prod(map(math.factorial, h))
        for p, hi in zip(pows, h):
            term = term * p[hi]
        total = total + term
    return total


def _f_terms(coeffs: Sequence, t_max: int) -> Iterator:
    """f_0, ..., f_{t_max} by the r-term recurrence, one at a time, so a
    caller that needs only the last few need not hold the rest."""
    if t_max < 0:
        return
    head, tail = coeffs[0], coeffs[1:]
    past = [1] + [0] * len(tail)  # f_0, f_{-1}, ..., f_{1-r}, newest first
    yield 1
    for _ in range(t_max):
        nxt = head * past[0]
        for c, f in zip(tail, past[1:]):
            nxt = nxt + c * f
        past = [nxt] + past[:-1]
        yield nxt


def f_sequence(coeffs: Sequence, t_max: int) -> list:
    """[f_0, ..., f_{t_max}] by the r-term recurrence. Scalar-generic."""
    return list(_f_terms(coeffs, t_max))


def _stacked(c) -> np.ndarray:
    # a scalar, or one value per matrix of a stack, against (..., r, r)
    return np.asarray(c)[..., None, None]


def horner_basis(m: np.ndarray, coeffs: Sequence) -> tuple[np.ndarray, ...]:
    """(M_0, ..., M_{r-1}) with M_0 = I and M_j = M M_{j-1} - c_{j-1} I.

    ``m`` is one r x r matrix or a stack of shape (..., r, r), and each
    coefficient a scalar or an array of the stack's shape."""
    m = np.asarray(m)
    eye = np.eye(m.shape[-1], dtype=m.dtype)
    basis = [np.broadcast_to(eye, m.shape)]
    for j, c in enumerate(coeffs[:-1]):
        raised = m @ basis[-1] if j else m  # M M_0 = M needs no product
        basis.append(raised - _stacked(c) * eye)
    return tuple(basis)


def matrix_power(m: np.ndarray, coeffs: Sequence, t: int) -> np.ndarray:
    """M^t = sum_{j<r} f_{t-j} M_j, for one matrix or a stack, from its
    characteristic coefficients. Holds only the last r values of f; the
    terms with t - j < 0 are zero and left out."""
    window = deque(_f_terms(coeffs, step_count(t)), maxlen=len(coeffs))
    terms = [
        _stacked(f) * mj for f, mj in zip(reversed(window), horner_basis(m, coeffs))
    ]
    return sum(terms[1:], terms[0])


def u_k(params: CoinParams, k) -> np.ndarray:
    """One-step evolution matrix in the momentum-ket basis:
    u_k = diag(e^{-ik}, e^{ik}) C. An array of momenta gives the stack of
    matrices, of shape k.shape + (2, 2)."""
    phases = np.stack([np.exp(-1j * k), np.exp(1j * k)], axis=-1)
    return phases[..., :, None] * coin_matrix(params)


def quad_coeffs(params: CoinParams, k) -> tuple:
    """Characteristic coefficients (c0, c1) of u_k.

    c0 = tr(u_k) = cos(theta) (e^{-ik} - e^{i(k+phi1+phi2)}) and
    c1 = -det(u_k) = e^{i(phi1+phi2)}. Note |c1| = 1 always. An array of
    momenta gives c0 of the same shape; c1 does not depend on k.
    """
    c = math.cos(params.theta.radians)
    chi = params.chi
    return c * (np.exp(-1j * k) - chi * np.exp(1j * k)), chi


def u_k_power(params: CoinParams, k, t: int) -> np.ndarray:
    """u_k^t = f_t I + f_{t-1} (u_k - c0 I) (no matrix-matrix products).
    An array of momenta gives the stack of powers, of shape
    k.shape + (2, 2)."""
    return matrix_power(u_k(params, k), quad_coeffs(params, k), t)


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


def quartic_coeffs(k: float, kp: float) -> tuple[float, float, float, float]:
    """Characteristic coefficients (c0, c1, c2, c3) of the Hadamard pair
    superoperator: c0 = c2 = cos(k-k') - cos(k+k'),
    c1 = 2 cos(k-k') cos(k+k'), c3 = -1.
    """
    cd = math.cos(k - kp)
    cs = math.cos(k + kp)
    c02 = cd - cs
    return c02, 2.0 * cd * cs, c02, -1.0


def superop_power(k: float, kp: float, t: int) -> np.ndarray:
    """L^t via the quartic Horner identity."""
    return matrix_power(superop(k, kp), quartic_coeffs(k, kp), t)
