"""Precomputed index tables shared by the transform and maximal-operator code.

Everything here is keyed by an immutable RingContext and cached, so each
table is built once per ring.  coset_rows is the one quotient chart: per
k-flat U through the origin it lists each coset a + U of (Z/NZ)^n once,
as a row of point ranks, row y over the quotient point y; coset_table
holds every flat's rows sorted by least rank, plus that rank.  The X-ray
(k = 1) sums rows in place of fibers, and the maximal operators sum rows
in place of shifts, so no coset is summed more than once.  Ranks are
uint16 on rings of at most 65,535 points and int32 above, so readers
index with them and never compute in their dtype.  Arrays are returned
non-writeable; treat them as shared read-only state.

One kernel, gather_sums, adds a stack over the slabs of an index table:
every tower level below, the exact transform's radix levels and the
u^perp masses (harmonic._group_sums).  Stacks of exact rows (the X-rays
and coset maxima of the checks) go through coset_sums over coset_plan,
one CRT component q_c = p**ell of N at a time, each a p-adic tower of
ell levels: the sums over the cosets of p**j U are read off the p**k
sums over cosets of p**(j+1) U one level below.  The whole table is
read only by coset_argmax, the one whole-row scan, one row with its
lex-least witnesses (the maximal profiles, mweight, certify), and by the
search; perp_index and lift_map solve u^perp and the lift of (u, w) from
the chart.  Allocations that scale with the ring, the enumerations of
directions and flats included, are first checked by check_memory, the one
resource guard; every block and chunk of work in the package is sized by
blocks, the one block planner.
"""
from __future__ import annotations

import os
import resource
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .geometry import (EnumerationCapError, Flat, ProjDirection, enumerate_grassmannian,
                       enumerate_proj, gr_size, proj_size)
from .ring import RingContext, _crt_basis, factorize


class TableMemoryError(EnumerationCapError):
    """A table refused because its bytes exceed the memory it may take."""

    def __init__(self, nbytes: int, memory: int, bound: str = "physical memory"):
        super().__init__(f"table of {nbytes} bytes exceeds {bound} of {memory} bytes")
        self.estimate = nbytes
        self.memory = memory


def _physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(nbytes: int) -> None:
    """Refuse (TableMemoryError) nbytes past the machine's physical memory,
    or past the soft RLIMIT_AS (ulimit -v) where that is set and lower."""
    memory, limit = _physical_memory(), resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit != resource.RLIM_INFINITY and limit < memory and nbytes > limit:
        raise TableMemoryError(nbytes, limit, "the address-space limit (RLIMIT_AS)")
    if nbytes > memory:
        raise TableMemoryError(nbytes, memory)


def blocks(count: int, item_bytes: int, budget: int, held: int = 0) -> list[slice]:
    """range(count) as slices of max(1, budget // item_bytes) items, the
    last ragged: the one block planner.  With held, the bytes a block holds
    per item, the first block (the largest) is checked by check_memory."""
    step = max(1, budget // item_bytes)
    if held:
        check_memory(held * min(step, count))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def coord_grid(ctx: RingContext) -> np.ndarray:
    """(size, n) coordinates of every point, in rank order."""
    N, n = ctx.modulus, ctx.dimension
    return _freeze(np.arange(ctx.size)[:, None] // N ** np.arange(n - 1, -1, -1) % N)


def rank_points(coords: np.ndarray, ctx: RingContext) -> np.ndarray:
    """Ranks of an (..., n) array of coordinates (already reduced mod N):
    coordinate j weighs N**(n-1-j)."""
    return coords @ ctx.modulus ** np.arange(ctx.dimension - 1, -1, -1)


@lru_cache(maxsize=None)
def valuations(ctx: RingContext) -> np.ndarray:
    """Dual valuation of every frequency, indexed by rank: v(a) =
    N / gcd(a_1, ..., a_n, N), the least v >= 1 with v a = 0 (so v(0) = 1)."""
    N = ctx.modulus
    return _freeze(N // np.gcd.reduce(coord_grid(ctx), axis=1, initial=N))


# Peak bytes of an enumeration per generator (one per direction, k per
# k-flat): tracemalloc read 64-308 (k = 1-6, n = 3-7, N up to 1,000,
# prime powers and composites); this is about 1.7x the largest.
_GENERATOR_BYTES = 512


@lru_cache(maxsize=None)
def directions(ctx: RingContext) -> tuple[ProjDirection, ...]:
    """enumerate_proj(ctx), refused by check_memory before any is built."""
    check_memory(_GENERATOR_BYTES * proj_size(ctx.modulus, ctx.dimension))
    return tuple(enumerate_proj(ctx))


@lru_cache(maxsize=None)
def direction_matrix(ctx: RingContext) -> np.ndarray:
    return _freeze(np.array([d.rep for d in directions(ctx)], dtype=np.int64))


@lru_cache(maxsize=None)
def flats(ctx: RingContext, k: int) -> tuple[Flat, ...]:
    """enumerate_grassmannian(ctx, k), refused by check_memory before any is built."""
    check_memory(_GENERATOR_BYTES * k * gr_size(ctx.modulus, ctx.dimension, k))
    return tuple(enumerate_grassmannian(ctx, k))


def _lex_grid(N: int, m: int) -> np.ndarray:
    """(N**m, m) every vector of (Z/NZ)^m in lex order; one empty row at m = 0."""
    if m == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return coord_grid(RingContext.generic(N, m))


def _rank_dtype(ctx: RingContext) -> np.dtype:
    """The rank dtype of coset_rows and coset_table: uint16 to 65,535 points, int32 above."""
    return np.dtype(np.uint16 if ctx.size <= np.iinfo(np.uint16).max else np.int32)


def _generators(ctx: RingContext, k: int) -> np.ndarray:
    """(F, k, n) int64: the canonical generators of the k-flats of ctx, in
    directions(ctx) order for k = 1 and flats(ctx, k) order above."""
    if k == 1:
        return direction_matrix(ctx)[:, None, :]
    return np.array([f.generators for f in flats(ctx, k)], dtype=np.int64)


@lru_cache(maxsize=None)
def _placements(ctx: RingContext, k: int) -> tuple[tuple[int, np.ndarray], ...]:
    """Per CRT component p**e of N, (p, placed): row m of placed is the
    coordinate m of every quotient point of (Z/NZ)^(n-k), placed by the
    component's idempotent, and its last row, zero, is read on pivots."""
    N, n = ctx.modulus, ctx.dimension
    quotient = _lex_grid(N, n - k)
    zero = np.zeros((1, len(quotient)), dtype=np.int64)
    return tuple((p, _freeze(np.vstack([(e * (quotient % q) % N).T, zero])))
                 for (p, _), (q, e) in zip(ctx.factorization, _crt_basis(N)))


def _sections(ctx: RingContext, gens: np.ndarray, points=slice(None)) -> np.ndarray:
    """(B, n, Q) int64: column y of flat b is section(y) mod N, the chart
    of coset_rows at the quotient point of rank points[y], for the flats
    with canonical generators gens (B, k, n)."""
    N, n = ctx.modulus, ctx.dimension
    k = gens.shape[1]
    sections = 0
    # column j of a flat reads row j - #(pivots before j) of each placed,
    # and its last row on the pivots
    for p, placed in _placements(ctx, k):
        pivot = ((gens % p != 0).argmax(axis=2)[:, :, None] == np.arange(n)).any(axis=1)
        rows = np.where(pivot, n - k, np.arange(n) - pivot.cumsum(axis=1))
        sections = sections + placed[:, points][rows]
    return sections % N


def coset_rows(ctx: RingContext, gens: np.ndarray) -> np.ndarray:
    """(B, size // N**k, N**k) ranks in _rank_dtype(ctx), the quotient
    chart of the k-flats with canonical generators gens (B, k, n): row y of
    flat b lists the ranks of section(y) + sum_j t_j g_j over t in
    (Z/NZ)^k in lex order, where g_j are the generators and section(y)
    places the quotient point y in (Z/NZ)^(n-k) on the non-pivot columns of
    each CRT component (zeros on the pivots).  The pivot of a generator is
    its first unit coordinate mod p, per CRT component p**e of N: for
    canonical generators, its echelon pivots.  So row y of a line is the
    fiber over y of Q_u = (Z/NZ)^n / <u>, which the X-ray reads.

    Coordinate by coordinate: section plus offset, reduced mod N by one
    conditional subtract, folded into the rank by Horner's rule in the
    table's own dtype.
    """
    N, n = ctx.modulus, ctx.dimension
    k = gens.shape[1]
    dtype = _rank_dtype(ctx)
    offsets = (_lex_grid(N, k) @ gens % N).astype(dtype)  # (B, N**k, n): the points of U
    sections = _sections(ctx, gens).astype(dtype)  # (B, n, size // N**k)
    out = np.zeros((len(gens), sections.shape[2], N**k), dtype=dtype)
    for j in range(n):
        c = sections[:, j, :, None] + offsets[:, None, :, j]
        c -= (c >= N) * dtype.type(N)
        out *= N
        out += c
    return out


@lru_cache(maxsize=None)
def coset_table(ctx: RingContext, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every coset a + U of every k-flat U through the origin, once.

    Returns (table, least).  table is (F, size // N**k, N**k): the rows of
    coset_rows, each flat's sorted by least rank (the order of lex-least
    shift), so row 0 is U itself.  least is (F, size // N**k), the
    smallest rank in each row, ascending along each flat.  Flats follow
    directions(ctx) for k = 1 and flats(ctx, k) above.

    The rows are built a block of flats (blocks: their ranks, in
    _BLOCK_BYTES) at a time by coset_rows.  A table of more bytes
    (itemsize * F * size) than check_memory allows raises TableMemoryError
    before anything is enumerated.
    """
    N, n = ctx.modulus, ctx.dimension
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    dtype = _rank_dtype(ctx)
    F = gr_size(N, n, k)
    check_memory(dtype.itemsize * F * ctx.size)
    gens = _generators(ctx, k)
    table = np.empty((F, ctx.size // N**k, N**k), dtype=dtype)
    least = np.empty(table.shape[:2], dtype=dtype)
    for block in blocks(F, dtype.itemsize * ctx.size, _BLOCK_BYTES):
        rows = coset_rows(ctx, gens[block])
        low = rows.min(axis=2)
        order = low.argsort(axis=1) + np.arange(len(low))[:, None] * low.shape[1]  # into low.flat
        np.take(rows.reshape(-1, N**k), order, axis=0, out=table[block])
        np.take(low, order, out=least[block])
    return _freeze(table), _freeze(least)


# Bytes that one block of work holds: a block of harmonic.power_sum's
# Python ints, of the whole rows that coset_argmax gathers, and of what a
# block of coset_table, a tower level, perp_index or lift_map builds.  Not
# _GATHER_BYTES: at 512 KB the cold coset_plan of generic(12,3) lines took
# 0.89-0.96 ms against 0.47 ms, and its coset_table 8.2-10.0 against 6.5-6.7.
_BLOCK_BYTES = 1 << 18


# Bytes that one chunk of rows holds: the rows of maximal.coset_maxima and
# harmonic.xray_all, in the dtype of their sums, times the widest level of
# their coset plan (CosetPlan.width, at least the row itself), and the
# widest stack of a chunk of trials of a check in verify.  A tall stack
# gathered at once could take tens of GiB (the induced X-rays of
# profinite(3,3) band 3 would take about 45 GiB).
_CHUNK_BYTES = 1 << 24


# Bytes of the values that one block of gather_sums gathers from a slab.
# On one core, against 1 MB, 512 KB blocks ran the exact inverse of
# generic(30,3), padic(2,5,3) and padic(7,2,3) 1.1-1.2x faster, the forward
# within 4%, and the benchmark's maximal work 4% faster; 256 KB ran the
# forward of generic(12,3) and padic(7,2,2) 5-18% slower.
_GATHER_BYTES = 1 << 19


def gather_sums(values: np.ndarray, slabs: np.ndarray, out: np.ndarray) -> None:
    """out[r] = sum_j values[slabs[j, r]]: the one gather-add kernel.

    values is a (size, ...) stack, slabs an (m, R) integer index table,
    one slab per term, and out (R, ...) in values' dtype.  A block of
    output rows (blocks: its values, not its index, as the u^perp masses
    take N**(n-1) slabs of a few columns) at a time, each slab is
    gathered by np.take, the first into out (with mode="clip", which numpy
    does not buffer), so every gathered point copies its contiguous
    values.  Each level of the exact transform (harmonic._radix_levels)
    and of a coset tower (_tower) is one call.
    """
    for block in blocks(len(out), 8 * out[0].size, _GATHER_BYTES):
        t = slabs[:, block]
        sums = out[block]
        np.take(values, t[0], axis=0, out=sums, mode="clip")
        for rows in t[1:]:
            sums += np.take(values, rows, axis=0)


def coset_argmax(values: np.ndarray, ctx: RingContext, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(best, row), each (F,): per flat f of coset_table(ctx, k), the
    largest coset sum of one row of values (size,) and the first table
    row that reaches it, so least[f, row[f]] is the lex-least achieving
    shift.  The one whole-table row scan, a block of flats (blocks: intp
    index) at a time, in values' dtype, which the caller picks
    wide enough: einsum for integers, .sum for floats, so float sums are
    bit for bit those of one whole gather."""
    table, _ = coset_table(ctx, k)
    add_up = partial(np.einsum, "...j->...") if values.dtype.kind == "i" else partial(np.sum, axis=-1)
    best = np.empty(len(table), dtype=values.dtype)
    row = np.empty(len(table), dtype=np.intp)
    for block in blocks(len(table), 8 * table[0].size, _BLOCK_BYTES):
        sums = add_up(values[table[block].astype(np.intp)])
        best[block] = sums.max(axis=1)
        row[block] = sums.argmax(axis=1)
    return best, row


def _tower_shape(q: int, n: int, k: int) -> list[tuple[int, int, np.dtype]]:
    """(F_j, C_j, dtype) of the levels j = ell - 1, ..., 0 of the tower of
    the k-flats of (Z/qZ)^n, q = p**ell: F_j = |Gr((Z/p**(ell-j))^n, k)|
    flats of C_j = q**n / p**(k (ell-j)) cosets, indexed in the smallest
    dtype that holds the F_(j+1) * C_(j+1) sums of the level below (the q**n
    points below level ell - 1)."""
    ((p, ell),) = factorize(q)
    below, shape = q**n, []
    for m in range(1, ell + 1):
        F, C = gr_size(p**m, n, k), q**n // p**(k * m)
        shape.append((F, C, np.min_scalar_type(below - 1)))
        below = F * C
    return shape


def _place_values(radix: np.ndarray) -> np.ndarray:
    """(F, n) place values of F mixed radices (F, n), the last digit least."""
    place = np.ones_like(radix)
    place[:, :-1] = np.cumprod(radix[:, :0:-1], axis=1)[:, ::-1]
    return place


def _tower(gens: np.ndarray, q: int) -> tuple[np.ndarray, ...]:
    """The levels, from the points up, of coset_sums over the k-flats of
    (Z/qZ)^n, q = p**ell, whose canonical generators are gens (F, k, n).

    Level j = ell - 1, ..., 0 is (p**k, F_j, C_j) (see _tower_shape), one
    slab per term, as gather_sums reads it.  Its flats are the reductions V
    of the flats U mod p**(ell-j), and the sum over a coset c of p**j V is
    the sum of the p**k sums over the cosets c + p**j s g_V + p**(j+1) V,
    s in (Z/p)^k, of the level below, whose flat is V mod p**(ell-j-1).
    A coset of p**j V is indexed by its canonical representative read in
    mixed radix: pivot coordinates in [0, p**j), the others in Z/q.  Since
    c + p**j s g_V has pivot coordinates c_i + p**j s_i < p**(j+1), it is
    already the representative of its coset below; the entry is that
    coset's index plus C_(j+1) times its flat's.  Level 0 is U itself in
    gens order, its cosets the quotient points y, section(y) in coset_rows'
    chart; level ell is the points.  Level j > 0 keeps its flats in the
    order np.unique sorts the bytes of their reduced generators, and is
    built a block of flats (blocks: int64 entries, in _BLOCK_BYTES) at once.
    """
    F, k, n = gens.shape
    ((p, ell),) = factorize(q)
    pivots = (gens % p != 0).argmax(axis=2)  # (F, k), ascending
    steps = _lex_grid(p, k)  # s in (Z/p)^k
    # per m, the level-m flat of each flat of gens and one flat of gens per level-m flat
    member, first = [np.zeros(F, dtype=np.intp)], [np.zeros(1, dtype=np.intp)]
    for m in range(1, ell):
        reduced = gens.reshape(F, -1) % p**m
        keys = reduced.view(np.dtype((np.void, reduced.itemsize * k * n))).ravel()  # a row's bytes
        _, rep, inverse = np.unique(keys, return_index=True, return_inverse=True)
        member.append(inverse)
        first.append(rep)
    member.append(np.arange(F))
    first.append(np.arange(F))
    levels = []
    for m, (Fm, C, dtype) in enumerate(_tower_shape(q, n, k), start=1):
        j = ell - m
        rep = first[m]
        below = q**n // p**(k * (m - 1))  # cosets per flat below
        # per pivot pattern: the digits of every representative here (pivot
        # digits in [0, p**j)) and the place values of the digits below
        codes = (1 << pivots[rep]).sum(axis=1)  # each flat's pivot columns as a bit mask
        patterns = np.flatnonzero(np.bincount(codes))  # np.unique would import numpy.ma
        pivot = (patterns[:, None] >> np.arange(n)) & 1 == 1
        radix = np.where(pivot, p**j, q)
        digits = np.arange(C) // _place_values(radix)[:, :, None] % radix[:, :, None]
        weights = _place_values(np.where(pivot, p**(j + 1), q))
        base = (digits * weights[:, :, None]).sum(axis=1)  # the index below of c itself
        which = np.searchsorted(patterns, codes)
        level = np.empty((p**k, Fm, C), dtype=dtype)
        for block in blocks(Fm, 8 * C * p**k, _BLOCK_BYTES):
            flats, pat = rep[block], which[block]
            offsets = p**j * (steps @ gens[flats]) % q  # (B, p**k, n)
            w = weights[pat]
            # linear in the digits of c + p**j s g but for each coordinate
            # that wraps past q, which no pivot does; (B, p**k, C)
            ids = ((member[m - 1][flats] * below)[:, None] + base[pat])[:, None, :]
            ids = ids + (offsets * w[:, None, :]).sum(axis=2)[:, :, None]
            for col in np.flatnonzero(~pivot[pat].all(axis=0)):
                ids -= (digits[pat, col][:, None, :] >= q - offsets[:, :, col, None]) * (
                    q * w[:, col, None, None])
            level[:, block] = ids.transpose(1, 0, 2)
        levels.append(_freeze(level))
    return tuple(levels)


class CosetPlan(NamedTuple):
    """How coset_sums reads the cosets of a ring's k-flats: one p-adic
    tower per CRT component q_c = p**ell of N, m towers in all.
    towers[c] holds the ell levels of component c, from the points up
    (see _tower): level ell - 1 reads the q_c**n points, each level above
    reads the sums of the level below, and level 0, (p**k, F_c, Q_c), gives
    the sums over the cosets of component c's flats in chart order.  width
    is the most sums per row that coset_sums holds at once: a level can
    hold more than the ring has points.  points[i] is the rank of the point
    whose component ranks, in product order over (q_1**n, ..., q_m**n),
    make up i; quotient[c][y] is the rank in (Z/q_c)^(n-k) of component c
    of the quotient point of rank y.  Both are None for one component."""

    towers: tuple[tuple[np.ndarray, ...], ...]
    width: int
    points: np.ndarray | None = None
    quotient: tuple[np.ndarray, ...] | None = None

    @property
    def flat_shape(self) -> tuple[int, ...]:
        return tuple(t[-1].shape[1] for t in self.towers)

    def in_rank_order(self, sums: np.ndarray) -> np.ndarray:
        """Coset sums (..., Q_1, ..., Q_m), as coset_sums yields them, as
        (..., Q) with the cosets in rank order of the quotient points."""
        return sums if self.quotient is None else sums[(Ellipsis, *self.quotient)]


@lru_cache(maxsize=None)
def coset_plan(ctx: RingContext, k: int) -> CosetPlan:
    """The plan of coset_sums for the k-flats of ctx: one tower per CRT
    component q_c of N, in ctx.factorization order, over the flats of
    RingContext.generic(q_c, n) (of ctx itself on a prime-power ring).  No
    coset_table is built.  Towers of more bytes in all than the machine's
    physical memory raise TableMemoryError before any level is allocated.

    Flat f of the plan is flat f of coset_table: a flat is one flat per
    component, and enumerate_proj and enumerate_grassmannian list them in
    product order.  Its coset y, row y of coset_rows, is the product of the
    component cosets of the components of y, the quotient point of rank y:
    a row's section places each component of y on its non-pivots.
    """
    N, n = ctx.modulus, ctx.dimension
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    basis = _crt_basis(N)
    shapes = [_tower_shape(q, n, k) for q, _ in basis]
    check_memory(sum(dtype.itemsize * F * C * p**k for (p, _), shape in zip(ctx.factorization, shapes)
                     for F, C, dtype in shape))
    towers = tuple(_tower(_generators(RingContext.generic(q, n) if len(basis) > 1 else ctx, k), q)
                   for q, _ in basis)
    held, sizes = ctx.size, []
    for tower in towers:  # each level reads what the levels before it left
        below = len(tower[0]) * tower[0].shape[2]
        for level in tower:
            held = held // below * level[0].size
            below = level[0].size
            sizes.append(held)
    width = max([ctx.size] + sizes[:-1])  # the last level is read a block of flats at a time
    if len(basis) == 1:
        return CosetPlan(towers, width)
    m = len(basis)
    coords = sum(e * _lex_grid(q, n).reshape((1,) * c + (-1,) + (1,) * (m - 1 - c) + (n,))
                 for c, (q, e) in enumerate(basis))  # the point sum_c e_c x_c
    points = _freeze(rank_points(coords.reshape(-1, n) % N, ctx))
    quotient = tuple(_freeze((_lex_grid(N, n - k) % q) @ q ** np.arange(n - k - 1, -1, -1))
                     for q, _ in basis)
    return CosetPlan(towers, width, points, quotient)


def _level_sums(data: np.ndarray, slabs: np.ndarray) -> np.ndarray:
    """(F * C, r) sums of slabs (m, F, C) of a tower level over a (below, r) stack."""
    out = np.empty((slabs[0].size, data.shape[1]), dtype=data.dtype)
    gather_sums(data, slabs.reshape(len(slabs), -1), out)
    return out


def coset_sums(rows: np.ndarray, plan: CosetPlan, index: np.ndarray | None = None):
    """Yield (lo, sums) per block of flats lo, lo + 1, ... of the last
    component of plan: sums is a view (R, F_1, ..., F_(m-1), block, Q_1,
    ..., Q_m) of the coset sums of each row of rows (R, size), in rows'
    dtype.  With an index, row r is read as rows[r, index], a pull-back.

    The rows are read point-major, in CRT order, as (q_1**n, ..., q_m**n,
    R).  Each level of component c's tower is one gather_sums over the
    leading axis, so every later component and the rows are its columns,
    one copy of each gathered point; after its level 0, (F_c, Q_c) move
    behind them, for component c + 1.  Every level but the last is summed
    whole; the last is summed and yielded a block of flats (blocks: their
    sums, in _GATHER_BYTES, as gather_sums) at a time, one flat at least.
    """
    *lead, last = plan.towers
    points = index if plan.points is None else plan.points if index is None else index[plan.points]
    data = np.ascontiguousarray((rows if points is None else rows[:, points]).T)
    for tower in lead:
        data = data.reshape(len(tower[0]) * tower[0].shape[2], -1)
        for level in tower:
            data = _level_sums(data, level)
        data = data.T
    data = data.reshape(len(last[0]) * last[0].shape[2], -1)
    for level in last[:-1]:
        data = _level_sums(data, level)
    top = last[-1]
    m = len(plan.towers)
    raw = (-1, top.shape[2], len(rows)) + tuple(s for t in lead for s in t[-1].shape[1:])
    axes = (2, *range(3, 2 * m + 1, 2), 0, *range(4, 2 * m + 1, 2), 1)
    for block in blocks(top.shape[1], 8 * data.shape[1] * top.shape[2], _GATHER_BYTES):
        yield block.start, _level_sums(data, top[:, block]).reshape(raw).transpose(axes)


@lru_cache(maxsize=None)
def perp_index(ctx: RingContext) -> np.ndarray:
    """(P, N**(n-1)) int32: row u lists, ascending, the ranks of the
    frequencies a with <u, a> = 0 mod N, directions in directions(ctx) order.

    u^perp is solved, not searched for: a runs over the sections of u's
    quotient chart (coset_rows'), and per CRT component q = p**e its
    pivot coordinate, where u is 1 and the section 0, is -<u, section> mod
    q.  A block of directions (blocks: its coordinates, in _BLOCK_BYTES)
    at a time, so no (P, size) dot product is built; an index past physical
    memory raises TableMemoryError first.
    """
    N, n = ctx.modulus, ctx.dimension
    check_memory(4 * proj_size(N, n) * N**(n - 1))
    dirs = direction_matrix(ctx)
    out = np.empty((len(dirs), N**(n - 1)), dtype=np.int32)
    for block in blocks(len(dirs), 8 * n * N**(n - 1), _BLOCK_BYTES):
        u = dirs[block]
        a = _sections(ctx, u[:, None, :])  # (B, n, N**(n-1))
        dots = np.einsum("bj,bjy->by", u, a)
        for (p, _), (q, e) in zip(ctx.factorization, _crt_basis(N)):
            a[np.arange(len(u)), (u % p != 0).argmax(axis=1)] += e * (-dots % q)
        out[block] = np.sort(rank_points((a % N).transpose(0, 2, 1), ctx), axis=1)
    return _freeze(out)


@lru_cache(maxsize=None)
def lift_map(ctx: RingContext) -> np.ndarray:
    """(P, Pq) int64: entry [u, w] is the index in flats(ctx, 2) of the lift
    of (u, w), u and w indexed as in directions(ctx) and
    directions(ctx.quotient()).

    The lift of (u, w), the 2-flat whose image in u's quotient chart is
    the line <w>, is span(u, s), s = section(w) in coset_rows' chart.
    Per CRT component s is 0 on u's pivot i and 1 on its own pivot j, so
    {u - u_j s, s} in pivot order is enumerate_grassmannian's echelon
    form.  The components are combined by the idempotents and each lift
    is found among the flats by its generators read in base N, a block of
    directions (blocks) at a time.  No coset table is read.  Before any
    flat is enumerated, a ring whose codes pass intp raises OverflowError,
    and a map of more bytes than physical memory TableMemoryError.
    """
    N, n = ctx.modulus, ctx.dimension
    if N**(2 * n) > np.iinfo(np.intp).max:
        raise OverflowError(f"the 2-flat codes of {ctx.describe()} exceed intp")
    check_memory(8 * proj_size(N, n) * proj_size(N, n - 1))
    qctx = ctx.quotient()
    dims = (N,) * (2 * n)
    codes = np.ravel_multi_index(tuple(_generators(ctx, 2).reshape(-1, 2 * n).T), dims)
    order = np.argsort(codes)
    dirs = direction_matrix(ctx)[:, None, :]  # (P, 1, n)
    w = rank_points(direction_matrix(qctx), qctx)  # each w as a quotient point
    out = np.empty((len(dirs), len(w)), dtype=np.int64)
    for block in blocks(len(dirs), 16 * n * len(w), _BLOCK_BYTES):
        u = dirs[block]
        s = _sections(ctx, u, w).transpose(0, 2, 1)  # (B, Pq, n)
        gens = 0
        for (p, _), (q, e) in zip(ctx.factorization, _crt_basis(N)):
            uq, sq = u % q, s % q
            j = (sq % p != 0).argmax(axis=2)[:, :, None]
            r = (uq - np.take_along_axis(uq, j, axis=2) * sq) % q
            first = ((uq % p != 0).argmax(axis=2)[:, :, None] < j)[..., None]  # i < j
            gens = gens + e * np.where(first, np.stack([r, sq], axis=2), np.stack([sq, r], axis=2))
        lifts = np.ravel_multi_index(tuple((gens % N).reshape(-1, 2 * n).T), dims)
        at = order[np.minimum(np.searchsorted(codes, lifts, sorter=order), len(codes) - 1)]
        if not (codes[at] == lifts).all():
            raise LookupError(f"a lift of directions {block.start} on is not a canonical 2-flat")
        out[block] = at.reshape(-1, len(w))
    return _freeze(out)
