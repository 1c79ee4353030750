"""Projective directions, Grassmannians and flats over Z/NZ.

A direction is a point of P (Z/NZ)^(n-1) = Gr((Z/NZ)^n, 1); a k-flat is a
rank-k free direct summand given by a k x n generator matrix whose k x k
minors include a unit modulo every prime dividing N.  Canonical forms are
chosen per prime-power CRT component and recombined, which keeps every
object unique, cheap to compare and stable under enumeration order.

Nothing here works object by object on quotients: the quotient chart
along a direction is read off tables.coset_rows, the CRT split of a line
off the coset table (maximal.mweight), and the lift of a quotient
direction to a 2-flat is solved from that chart (tables.lift_map).
The enumerators set no limit: their callers tables.directions and
tables.flats refuse a count past memory before anything is enumerated.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .ring import RingContext, _crt_basis, factorize


class EnumerationCapError(Exception):
    """A resource refused before it is built (CLI exit 3): tables.TableMemoryError."""


@dataclass(frozen=True)
class ProjDirection:
    """Canonical representative of a point of P (Z/NZ)^(n-1).

    Per prime-power CRT component the first coordinate that is a unit is
    scaled to 1, so two vectors differing by a unit scalar canonicalize
    identically.
    """

    modulus: int
    rep: tuple[int, ...]


@dataclass(frozen=True)
class Flat:
    """Canonical k-flat: generator matrix in per-component reduced echelon
    form with unit pivots scaled to 1, plus a basepoint (zero for the
    subspaces that enumerate_grassmannian lists)."""

    modulus: int
    k: int
    generators: tuple[tuple[int, ...], ...]
    basepoint: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.basepoint)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def proj_size(N: int, m: int) -> int:
    """|P (Z/NZ)^(m-1)|, the number of projective classes of (Z/NZ)^m.

    Closed form: prod over prime powers p**r of
    (p**(r*m) - p**((r-1)*m)) / (p**r - p**(r-1)).
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if N == 1:
        return 1
    if m == 0:
        return 0
    total = 1
    for p, r in factorize(N):
        num = p**(r * m) - p**((r - 1) * m)
        den = p**r - p**(r - 1)
        total *= num // den
    return total


@lru_cache(maxsize=None)
def gr_size(N: int, n: int, k: int) -> int:
    """|Gr((Z/NZ)^n, k)| by counting per-component echelon forms."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if N == 1:
        return 1
    total = 1
    for p, r in factorize(N):
        q = p**r
        comp = 0
        for pivots in itertools.combinations(range(n), k):
            count = 1
            for i, piv in enumerate(pivots):
                before = sum(1 for j in range(piv) if j not in pivots)
                after = sum(1 for j in range(piv + 1, n) if j not in pivots)
                count *= (q // p) ** before * q**after
            comp += count
        total *= comp
    return total


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


def canonical_direction(u: Sequence[int], ctx: RingContext) -> ProjDirection:
    """Canonicalize a vector to its projective representative.

    Raises ValueError if u has not n coordinates, or if some prime dividing
    N divides every coordinate (then u generates no direction).
    """
    if len(u) != ctx.dimension:
        raise ValueError(f"direction {tuple(u)} has {len(u)} coordinates, need {ctx.dimension}")
    N = ctx.modulus
    if N == 1:
        return ProjDirection(1, tuple(0 for _ in u))
    comps = []
    for p, r in ctx.factorization:
        q = p**r
        uc = [c % q for c in u]
        pivot = _first_unit(uc, p)
        if pivot is None:
            raise ValueError(f"{tuple(u)} has no unit coordinate mod {p}: not a projective direction")
        inv = pow(uc[pivot], -1, q)
        comps.append(tuple(c * inv % q for c in uc))
    return ProjDirection(N, tuple(_combine_components([[c] for c in comps], N)[0]))


def _first_unit(vec: Sequence[int], p: int) -> int | None:
    for j, c in enumerate(vec):
        if c % p:
            return j
    return None


def _combine_components(per_component: Sequence[list], N: int) -> list:
    """sum_c e_c x_c mod N over every tuple (x_1, ..., x_m) of component
    vectors (or generator matrices) in itertools.product order, as nested
    lists: one array product with the CRT idempotents e_c.  On one
    component the combination is the identity."""
    if len(per_component) == 1:
        return per_component[0]
    m = len(per_component)
    total = 0
    for c, (comp, (_, e)) in enumerate(zip(per_component, _crt_basis(N))):
        a = np.array(comp, dtype=np.int64)
        total = total + e * a.reshape((1,) * c + (len(a),) + (1,) * (m - 1 - c) + a.shape[1:])
    return (total % N).reshape((-1,) + total.shape[m:]).tolist()


def enumerate_proj(ctx: RingContext) -> list[ProjDirection]:
    """All canonical projective directions of (Z/NZ)^n, one per class."""
    N, n = ctx.modulus, ctx.dimension
    if N == 1:
        return [ProjDirection(1, (0,) * n)]
    per_component = [[g[0] for g in _component_flats(p**r, p, n, 1)] for p, r in ctx.factorization]
    return [ProjDirection(N, tuple(rep)) for rep in _combine_components(per_component, N)]


def _component_flats(q: int, p: int, n: int, k: int) -> Iterable[tuple[tuple[int, ...], ...]]:
    """Canonical rank-k echelon matrices over Z/qZ, one per submodule, in
    row-major lex order per pivot set: each row is 1 on its pivot, 0 on the
    other pivots, a non-unit before its pivot and free after it."""
    nonunits = range(0, q, p)
    for pivots in itertools.combinations(range(n), k):
        rows = [list(itertools.product(*[(1,) if col == piv else (0,) if col in pivots
                                          else nonunits if col < piv else range(q)
                                          for col in range(n)]))
                for piv in pivots]
        yield from itertools.product(*rows)


def enumerate_grassmannian(ctx: RingContext, k: int) -> list[Flat]:
    """All canonical k-flats through the origin, one per submodule."""
    N, n = ctx.modulus, ctx.dimension
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if N == 1:
        return [Flat(1, k, tuple((0,) * n for _ in range(k)), (0,) * n)]
    per_component = [list(_component_flats(p**r, p, n, k)) for p, r in ctx.factorization]
    zero = (0,) * n
    return [Flat(N, k, tuple(map(tuple, gens)), zero)
            for gens in _combine_components(per_component, N)]

