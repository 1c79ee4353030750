"""Exact arithmetic and structural bookkeeping for the ring (Z/NZ)^n.

Everything downstream (projective geometry, Fourier analysis, maximal
operators) runs over a finite truncation of either the p-adic integers
(N = p**ell) or the profinite integers (N = (L+1)!).  At that truncation
a ball of radius 1/N collapses to a single point of (Z/NZ)^n, so all
measure theory becomes exact counting.  A plain "generic" modulus is
also supported for the scale-free parts of the toolkit (a generic N
need not be a prime power or a factorial, e.g. N = 12).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from typing import Iterator, Sequence, Union


class ScaleOverflowError(Exception):
    """Scale index runs past the chosen truncation."""


class ScaleUndefinedError(Exception):
    """The ring mode carries no scale sequence."""


class ScaleSemantics(Enum):
    """How dual valuations are grouped into scale bands.

    NUMERIC groups by the interval M_i <= v < M_{i+1}; DIVISIBILITY groups
    by v | M_i and v not | M_{i-1}.  The two agree whenever the scale
    sequence consists of prime powers (the p-adic case).
    """

    NUMERIC = "numeric"
    DIVISIBILITY = "divisibility"


@dataclass(frozen=True)
class PAdic:
    """Truncation of Z_p at depth ell: N = p**ell, scales M_i = p**i."""

    p: int
    ell: int

    @property
    def modulus(self) -> int:
        return self.p**self.ell

    def describe(self) -> str:
        return f"padic(p={self.p}, ell={self.ell})"


@dataclass(frozen=True)
class Profinite:
    """Truncation of the profinite integers: N = (L+1)!, scales M_i = (i+1)!."""

    L: int

    @property
    def modulus(self) -> int:
        return math.factorial(self.L + 1)

    def describe(self) -> str:
        return f"profinite(L={self.L})"


@dataclass(frozen=True)
class Generic:
    """Plain Z/NZ with no scale sequence attached (no band machinery)."""

    N: int

    @property
    def modulus(self) -> int:
        return self.N

    def describe(self) -> str:
        return f"generic(N={self.N})"


Mode = Union[PAdic, Profinite, Generic]


def factorize(N: int) -> list[tuple[int, int]]:
    """Prime factorization of N >= 1 by trial division, primes ascending.

    N = 1 yields the empty list.  Moduli here stay at desk scale (a few
    thousand at most), so trial division is the right tool.
    """
    if N < 1:
        raise ValueError(f"modulus must be positive, got {N}")
    factors: list[tuple[int, int]] = []
    rest = N
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return factors


@dataclass(frozen=True)
class RingContext:
    """The working ring (Z/NZ)^n: a truncation mode, a dimension and a scale
    semantics.  The mode fixes N and its factorization, which are set from
    it and take no part in equality; a p-adic mode needs a prime p.  Immutable; safe to share across
    workers and to use as a cache key.  It sets no resource limit: what
    is built over it is checked against memory by tables.check_memory.
    """

    mode: Mode
    dimension: int
    scale_semantics: ScaleSemantics
    modulus: int = field(init=False, compare=False)
    factorization: tuple[tuple[int, int], ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if isinstance(self.mode, PAdic) and (self.mode.p < 2 or factorize(self.mode.p) != [(self.mode.p, 1)]):
            raise ValueError(f"p must be prime, got {self.mode.p}")
        object.__setattr__(self, "modulus", self.mode.modulus)
        object.__setattr__(self, "factorization", tuple(factorize(self.modulus)))

    # -- constructors -------------------------------------------------

    @classmethod
    def padic(cls, p: int, ell: int, n: int,
              semantics: ScaleSemantics = ScaleSemantics.NUMERIC) -> "RingContext":
        if ell < 1:
            raise ValueError("ell must be >= 1")
        return cls(PAdic(p, ell), n, semantics)

    @classmethod
    def profinite(cls, L: int, n: int,
                  semantics: ScaleSemantics = ScaleSemantics.DIVISIBILITY) -> "RingContext":
        if L < 1:
            raise ValueError("L must be >= 1")
        return cls(Profinite(L), n, semantics)

    @classmethod
    def generic(cls, N: int, n: int) -> "RingContext":
        return cls(Generic(N), n, ScaleSemantics.NUMERIC)

    # -- basic structure ----------------------------------------------

    @property
    def size(self) -> int:
        """Number of points of (Z/NZ)^n."""
        return self.modulus**self.dimension

    def describe(self) -> str:
        return f"{self.mode.describe()} n={self.dimension}"

    def rank(self, x: Sequence[int]) -> int:
        """Flat index of a point; x[0] is the most significant digit.

        Numeric order of ranks equals lexicographic order of tuples.
        """
        i = 0
        for c in x:
            i = i * self.modulus + (c % self.modulus)
        return i

    def unrank(self, i: int) -> tuple[int, ...]:
        N = self.modulus
        out = [0] * self.dimension
        for j in range(self.dimension - 1, -1, -1):
            out[j] = i % N
            i //= N
        return tuple(out)

    def points(self) -> Iterator[tuple[int, ...]]:
        for i in range(self.size):
            yield self.unrank(i)

    def divisors(self) -> tuple[int, ...]:
        divs = [1]
        for p, r in self.factorization:
            divs = [d * p**e for d in divs for e in range(r + 1)]
        return tuple(sorted(divs))

    def quotient(self) -> "RingContext":
        """Context for Q_u = (Z/NZ)^(n-1), same modulus and mode."""
        if self.dimension < 2:
            raise ValueError("quotient requires dimension >= 2")
        return replace(self, dimension=self.dimension - 1)

    # -- scales --------------------------------------------------------

    @property
    def num_bands(self) -> int:
        """Number of dual-valuation bands within truncation (M_i <= N)."""
        if isinstance(self.mode, PAdic):
            return self.mode.ell + 1
        if isinstance(self.mode, Profinite):
            return self.mode.L + 1
        raise ScaleUndefinedError("generic rings carry no scale sequence")

    def scale(self, i: int, beyond_truncation: bool = False) -> int:
        return scale(i, self, beyond_truncation=beyond_truncation)


def scale(i: int, ctx: RingContext, beyond_truncation: bool = False) -> int:
    """The scale M_i: p**i in p-adic mode, (i+1)! in profinite mode.

    M_0 = 1 in both modes and M_i | M_{i+1}.  Indices whose scale exceeds
    the truncation raise ScaleOverflowError unless beyond_truncation is
    set (constants tabulation legitimately looks past the truncation).
    """
    if i < 0:
        raise ValueError("scale index must be >= 0")
    if isinstance(ctx.mode, PAdic):
        m = ctx.mode.p**i
    elif isinstance(ctx.mode, Profinite):
        m = math.factorial(i + 1)
    else:
        raise ScaleUndefinedError("generic rings carry no scale sequence")
    if m > ctx.modulus and not beyond_truncation:
        raise ScaleOverflowError(f"M_{i} = {m} exceeds truncation N = {ctx.modulus}")
    return m


@lru_cache(maxsize=None)
def _crt_basis(N: int) -> tuple[tuple[int, int], ...]:
    """Pairs (q_j, e_j) with e_j = 1 mod q_j and e_j = 0 mod N/q_j."""
    out = []
    for p, r in factorize(N):
        q = p**r
        m = N // q
        e = (m * pow(m, -1, q)) % N if m > 1 else 1 % N
        out.append((q, e))
    return tuple(out)
