"""Exact arithmetic with roots of unity.

Values live in Q(zeta_N) represented as coefficient vectors in the basis
1, zeta, ..., zeta^(N-1) (so multiplication by a root of unity is a cyclic
shift).  Equality and rationality tests reduce modulo the N-th cyclotomic
polynomial, where the representation is canonical; reduction_matrix(N)
is that reduction as an integer matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class Cyclotomic:
    """An element of Q(zeta_N) with exact Fraction coefficients."""

    order: int
    coeffs: tuple[Fraction, ...]

    @classmethod
    def zero(cls, order: int) -> "Cyclotomic":
        return cls(order, tuple(Fraction(0) for _ in range(order)))

    @classmethod
    def from_rational(cls, order: int, value) -> "Cyclotomic":
        c = [Fraction(0)] * order
        c[0] = Fraction(value)
        return cls(order, tuple(c))

    @classmethod
    def root(cls, order: int, power: int, weight=1) -> "Cyclotomic":
        """weight * zeta_order**power."""
        c = [Fraction(0)] * order
        c[power % order] = Fraction(weight)
        return cls(order, tuple(c))

    def _check(self, other: "Cyclotomic") -> None:
        if self.order != other.order:
            raise ValueError("mixed cyclotomic orders")

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, Cyclotomic):
            self._check(other)
            N = self.order
            out = [Fraction(0)] * N
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        if b:
                            out[(i + j) % N] += a * b
            return Cyclotomic(N, tuple(out))
        return Cyclotomic(self.order, tuple(a * Fraction(other) for a in self.coeffs))

    __rmul__ = __mul__

    def shift(self, power: int) -> "Cyclotomic":
        """Multiply by zeta**power (a cyclic shift of the coefficients)."""
        N = self.order
        power %= N
        return Cyclotomic(N, self.coeffs[N - power:] + self.coeffs[:N - power])

    def conjugate(self) -> "Cyclotomic":
        N = self.order
        return Cyclotomic(N, tuple(self.coeffs[(N - j) % N] for j in range(N)))

    def norm_squared(self) -> "Cyclotomic":
        return self * self.conjugate()

    def reduced(self) -> tuple[Fraction, ...]:
        return reduce_mod_cyclotomic(self.coeffs, self.order)

    def is_zero(self) -> bool:
        return not any(self.reduced())

    def is_rational(self) -> bool:
        r = self.reduced()
        return not any(r[1:])

    def rational_value(self) -> Fraction:
        r = self.reduced()
        if any(r[1:]):
            raise ValueError("value is not rational")
        return r[0] if r else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclotomic):
            if self.order != other.order:
                return NotImplemented
            return (self - other).is_zero()
        try:
            q = Fraction(other)
        except (TypeError, ValueError):
            return NotImplemented
        return (self - Cyclotomic.from_rational(self.order, q)).is_zero()

    def __hash__(self):
        return hash((self.order, self.reduced()))
