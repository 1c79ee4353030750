"""Cyclotomic polynomials and reduction modulo them.

The exact lane writes values of Z[zeta_N] as coefficient vectors in the
basis 1, zeta, ..., zeta^(N-1) (so multiplication by a root of unity is a
cyclic shift).  Reduced modulo the N-th cyclotomic polynomial the
representation is canonical, so equality and rationality are read off the
remainder; reduction_matrix(N) is that reduction as an integer matrix.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np


@lru_cache(maxsize=None)
def cyclotomic_poly(N: int) -> tuple[int, ...]:
    """Coefficients of the N-th cyclotomic polynomial, ascending, monic."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if N == 1:
        return (-1, 1)
    # Phi_N = (x^N - 1) / prod_{d | N, d < N} Phi_d, exact division over Z.
    num = [0] * (N + 1)
    num[0] = -1
    num[N] = 1
    for d in range(1, N):
        if N % d == 0:
            num = _poly_divide_exact(num, list(cyclotomic_poly(d)))
    return tuple(num)


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    out = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    for i in range(len(out) - 1, -1, -1):
        c = rem[i + len(den) - 1] // den[-1]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                rem[i + j] -= c * dj
    if any(rem):
        raise ArithmeticError("non-exact polynomial division")
    return out


def reduce_mod_cyclotomic(coeffs: Sequence, N: int) -> tuple:
    """Remainder of sum_j coeffs[j] x^j modulo Phi_N, coefficients ascending.

    Works over any exact coefficient type supporting * and - with ints.
    """
    phi = cyclotomic_poly(N)
    deg = len(phi) - 1
    rem = list(coeffs)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j in range(deg + 1):
                rem[i - deg + j] -= c * phi[j]
    return tuple(rem[:deg])


@lru_cache(maxsize=None)
def reduction_matrix(N: int) -> np.ndarray:
    """Read-only (N, phi(N)) int64 matrix; row j is zeta**j modulo the monic Phi_N."""
    R = np.array([reduce_mod_cyclotomic(e, N) for e in np.eye(N, dtype=int).tolist()], dtype=np.int64)
    R.setflags(write=False)
    return R
