"""Search for small sets containing a k-flat translate in every direction.

The translates of each flat are its cosets, the rows of
tables.coset_table, and a search choice is a (flat, coset) pair: a flat
index and a row of its table.  The greedy pass and certify work on
coverage counts over that table.  Covering a point x lowers the count of
uncovered points of exactly one coset per flat, the one holding x, so the
greedy keeps those counts in an (F, C) array and updates them through the
inverse index coset_of (the coset of each flat that holds each point).
The exact branch and bound keeps each translate as a Python int bitmask,
built once per (ring, k) by translate_options, and a node's costs are
ANDs and popcounts.

Both searches are deterministic: ties break on enumeration order, flats
in table order and translates in the order of their lex-least shift.  The
exact search branches on one translate per translation orbit.  Let S_i
be the intersection of the flats U_0, ..., U_{i-1} through the origin
(S_0 the whole group).  The union at a node of depth d <= i is made of
cosets of U_0, ..., U_{d-1}, so translation by any s in S_i fixes it:
the cosets of U_i in one S_i-orbit (the cosets of U_i inside one coset
of S_i + U_i) add the same number of points to it, and at depth i they
have translated, equally small, best completions.  Only the orbit's
least-shift coset is branched on, which at the root is the translate
through the origin.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import tables
from .geometry import Flat
from .ring import RingContext


class BudgetExceeded(Exception):
    """Branch-and-bound node budget ran out; carries the best certificate found."""

    def __init__(self, certificate: "KakeyaCertificate"):
        super().__init__("search budget exhausted before optimality was proven")
        self.certificate = certificate


@dataclass(frozen=True)
class KakeyaCertificate:
    """A set S plus, per direction, a shift whose translate lies inside S."""

    k: int
    ctx: RingContext
    points: tuple[tuple[int, ...], ...]
    witnesses: tuple[tuple[Flat, tuple[int, ...]], ...]
    optimal: bool = False

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def measure(self) -> Fraction:
        return Fraction(self.size, self.ctx.size)

    def point_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.points)


@lru_cache(maxsize=None)
def translate_options(ctx: RingContext, k: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """Per flat of tables.flats(ctx, k), its distinct translates as
    (bitmask, lex-least shift) pairs ordered by that shift.

    The translates of a flat U are its cosets a + U, which are the rows of
    tables.coset_table(ctx, k); a row's lex-least shift is its lex-least
    point, the row's least rank.  For k = 1 the table follows
    tables.directions(ctx), which is the order of tables.flats(ctx, 1).

    Bitmasks of more bytes (F * C * ceil(size / 8), for F flats of C
    cosets each) than the machine's physical memory raise
    tables.TableMemoryError before any is built, as an oversized table does.
    """
    table, least = tables.coset_table(ctx, k)  # refuses oversized rings first
    F, C, _ = table.shape
    tables.check_memory(F * C * -(-ctx.size // 8))
    grid = tables.coord_grid(ctx)
    out = []
    for rows, lows in zip(table, least):
        order = np.argsort(lows)
        onehot = np.zeros((len(rows), ctx.size), dtype=bool)
        onehot[np.arange(len(rows))[:, None], rows[order]] = True
        packed = np.packbits(onehot, axis=1, bitorder="little")
        masks = [int.from_bytes(row.tobytes(), "little") for row in packed]
        shifts = [tuple(pt) for pt in grid[lows[order]].tolist()]
        out.append(tuple(zip(masks, shifts)))
    return tuple(out)


Choice = tuple[int, int]  # (flat index, row of the flat's coset table)


def _certificate(ctx: RingContext, k: int, chosen: Sequence[Choice],
                 optimal: bool) -> KakeyaCertificate:
    """The union of the chosen cosets, one per flat, with each coset's
    lex-least point as its flat's witness shift."""
    table, least = tables.coset_table(ctx, k)
    fs, rows = np.array(sorted(chosen), dtype=np.intp).reshape(-1, 2).T
    covered = np.zeros(ctx.size, dtype=bool)
    covered[table[fs, rows]] = True
    grid = tables.coord_grid(ctx)
    flats = tables.flats(ctx, k)
    shifts = grid[least[fs, rows]].tolist()
    witnesses = tuple((flats[f], tuple(s)) for f, s in zip(fs.tolist(), shifts))
    points = tuple(map(tuple, grid[covered].tolist()))
    return KakeyaCertificate(k, ctx, points, witnesses, optimal)


def _coset_of(table: np.ndarray, order: np.ndarray, size: int) -> np.ndarray:
    """(F, size): entry [f, x] is the position j of the coset of flat f
    that holds point x, where order[f, j] is its row of table; in the
    smallest unsigned dtype that holds C - 1.

    One scatter of the table rows, a block of flats (about
    tables._BLOCK_BYTES of intp index) at a time.  More bytes than the
    machine's physical memory raise tables.TableMemoryError before any is
    allocated.
    """
    F, C, M = table.shape
    dtype = np.min_scalar_type(C - 1)
    tables.check_memory(dtype.itemsize * F * size)
    position = np.empty((F, C), dtype=dtype)
    np.put_along_axis(position, order, np.arange(C, dtype=dtype)[None, :], axis=1)
    out = np.empty((F, size), dtype=dtype)
    flat_out = out.reshape(-1)
    step = max(1, tables._BLOCK_BYTES // (8 * size))
    for lo in range(0, F, step):
        block = table[lo:lo + step]
        index = block + (np.arange(lo, lo + len(block), dtype=np.intp) * size)[:, None, None]
        flat_out[index] = position[lo:lo + step, :, None]
    return out


def _orbit_representatives(ctx: RingContext, k: int) -> list[list[int]]:
    """Per flat i of tables.flats(ctx, k), the positions in lex-least-shift
    order of the least-shift coset of each S_i-orbit of its cosets, in
    increasing order; S_i is the intersection of the flats before i
    through the origin, S_0 the whole group.

    The orbit of the coset at position j holds the cosets of the points
    low_j + s, s in S_i, where low_j is its lex-least point; it keeps j
    when none of them comes earlier.  The coordinates and ranks of every
    low_j + s of a flat are held at once, C * size * (n + 1) int64 at S_0
    for C cosets per flat; more bytes than the machine's physical memory
    raise tables.TableMemoryError before any is built.
    """
    table, least = tables.coset_table(ctx, k)
    tables.check_memory(8 * least.shape[1] * ctx.size * (ctx.dimension + 1))
    order = np.argsort(least, axis=1)
    coset_of = _coset_of(table, order, ctx.size)
    grid = tables.coord_grid(ctx)
    inside = np.ones(ctx.size, dtype=bool)  # S_i, by rank
    out = []
    for i, lows in enumerate(np.take_along_axis(least, order, axis=1)):
        moved = (grid[lows][:, None] + grid[inside][None]) % ctx.modulus
        orbit = coset_of[i, tables.rank_points(moved, ctx)].min(axis=1)
        out.append(np.flatnonzero(orbit == np.arange(len(lows))).tolist())
        inside &= coset_of[i] == 0  # position 0 is the coset through the origin
    return out


def _greedy(ctx: RingContext, k: int) -> tuple[list[Choice], int]:
    """The choices of greedy_kakeya, in the order they were committed, and
    the size of their union.

    cost[f, j] counts the uncovered points of the j-th coset of flat f in
    lex-least-shift order, and low[f] is the least cost of flat f.  A step
    commits the first minimum in (flat, shift) order, then lowers, by one
    bincount of the newly covered points, the one count per flat and
    point of the coset holding it.  A committed flat's costs are set to
    size + 1: it loses at most size - N**k points after that, so its
    counts stay above any coset's size and it is never the minimum again.
    """
    table, least = tables.coset_table(ctx, k)  # refuses oversized rings first
    F, C, M = table.shape
    order = np.argsort(least, axis=1)
    coset_of = _coset_of(table, order, ctx.size)
    cost = np.full((F, C), M, dtype=np.int64)
    low = np.full(F, M, dtype=np.int64)
    keys = np.arange(F)[:, None] * C  # cost.flat index of (f, 0)
    covered = np.zeros(ctx.size, dtype=bool)
    chosen: list[Choice] = []
    for _ in range(F):
        f = int(low.argmin())
        row = int(order[f, cost[f].argmin()])
        chosen.append((f, row))
        cost[f] = low[f] = ctx.size + 1
        points = table[f, row]
        new = points[~covered[points]]
        if len(new):
            covered[new] = True
            cost -= np.bincount((keys + coset_of[:, new]).ravel(), minlength=F * C).reshape(F, C)
            cost.min(axis=1, out=low)
    return chosen, int(covered.sum())


def greedy_kakeya(ctx: RingContext, k: int) -> KakeyaCertificate:
    """Greedy cover: repeatedly commit the direction whose cheapest translate
    adds the fewest new points (ties on enumeration order), choosing the
    lex-least minimizing shift."""
    if not 1 <= k <= ctx.dimension:
        raise ValueError("need 1 <= k <= n")
    return _certificate(ctx, k, _greedy(ctx, k)[0], optimal=False)


def exact_min_kakeya(ctx: RingContext, k: int, budget: int = 5_000_000) -> KakeyaCertificate:
    """Minimum-cardinality certificate by depth-first branch and bound.

    Nodes assign one translate per direction, in flat order, cheapest
    increments first; a direction already covered by the current union is
    claimed at zero cost without branching (a dominant choice).  A node is
    pruned when some remaining direction's minimum increment alone brings
    the union to the incumbent's size, a bound that never overestimates
    the cost of a completion.  Budget counts expanded nodes (at least 1);
    exhaustion raises BudgetExceeded carrying the best certificate found
    so far.  The greedy cover is the first incumbent.

    Flat i branches only on the least-shift coset of each orbit of its
    cosets under S_i, the intersection of the flats before it through the
    origin (_orbit_representatives).  Translation by s in S_i fixes every
    union of cosets of earlier flats, so the members of an orbit have
    equal increments, and translating a completion of a member's node by
    s gives a completion, of the same size, of the node of the orbit's
    least-shift member, which the stable sort ranks first among them.
    Later members could never strictly improve the incumbent, so the
    certificate is the one the search over every coset finds.  At the
    root S_0 is the whole group and the one branch is the translate
    through the origin.  The least increment of a later flat is the same
    over its representatives, as S_i lies in the S_d of every node depth
    d < i, so the bound prunes the same nodes.
    """
    if not 1 <= k <= ctx.dimension:
        raise ValueError("need 1 <= k <= n")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if k == ctx.dimension:
        return _certificate(ctx, k, [(0, 0)], optimal=True)

    options = translate_options(ctx, k)  # refuses oversized bitmasks first
    reps = _orbit_representatives(ctx, k)
    masks = [[opts[j][0] for j in js] for opts, js in zip(options, reps)]
    F = len(masks)
    best_chosen, best_size = _greedy(ctx, k)
    picks = [0] * F  # per flat, the position of its translate in shift order
    best_picks = None
    hint = [0] * F  # per flat, the representative of least increment when last scanned
    nodes = 0
    bit_count = int.bit_count

    def dfs(pos: int, union: int, have: int):
        # have is the size of union
        nonlocal nodes, best_size, best_picks
        if nodes >= budget:
            raise _Exhausted()
        nodes += 1
        if pos == F:
            if have < best_size:
                best_size = have
                best_picks = list(picks)
            return
        # prune when some remaining flat's least increment is >= need: the
        # node's own flat first, as its increments also rank the children,
        # then each later flat, skipped when its hint translate is cheaper
        free = ~union
        need = best_size - have
        incs = list(map(bit_count, map(free.__and__, masks[pos])))
        least = min(incs)
        if least >= need:
            return
        for fi in range(pos + 1, F):
            ms = masks[fi]
            if bit_count(ms[hint[fi]] & free) < need:
                continue
            incs_fi = list(map(bit_count, map(free.__and__, ms)))
            low = min(incs_fi)
            if low >= need:
                return
            hint[fi] = incs_fi.index(low)
        if least == 0:
            # a translate already inside the union dominates every other
            # choice (swapping it in can only shrink the final union); the
            # first such is its orbit's representative
            ranked = [incs.index(0)]
        else:
            # a stable sort, so ties on cost stay in shift order
            ranked = sorted(range(len(incs)), key=incs.__getitem__)
        row_masks = masks[pos]
        shifts = reps[pos]
        for i, j in enumerate(ranked):
            size = have + incs[j]
            if size >= best_size:
                # this child and every later one, none cheaper, are nodes
                # that their own size prunes: count them without a visit
                rest = len(ranked) - i
                if nodes + rest > budget:
                    raise _Exhausted()
                nodes += rest
                return
            picks[pos] = shifts[j]
            dfs(pos + 1, union | row_masks[j], size)

    try:
        dfs(0, 0, 0)
        optimal = True
    except _Exhausted:
        optimal = False
    if best_picks is not None:
        order = np.argsort(tables.coset_table(ctx, k)[1], axis=1)
        best_chosen = [(f, int(order[f, j])) for f, j in enumerate(best_picks)]
    cert = _certificate(ctx, k, best_chosen, optimal=optimal)
    if not optimal:
        raise BudgetExceeded(cert)
    return cert


class _Exhausted(Exception):
    pass


def certify(points: Sequence[Sequence[int]], ctx: RingContext, k: int) -> KakeyaCertificate:
    """Check that a point set contains a translate of every k-flat.

    Raises ValueError naming the first uncovered direction otherwise, and
    on a point with the wrong number of coordinates.  The witness of each
    flat is the lex-least shift of its translates inside the set.
    """
    ranked: dict[int, tuple[int, ...]] = {}
    for p in points:
        if len(p) != ctx.dimension:
            raise ValueError(f"point {tuple(p)} has {len(p)} coordinates, need {ctx.dimension}")
        reduced = tuple(c % ctx.modulus for c in p)
        ranked.setdefault(ctx.rank(reduced), reduced)
    covered = np.zeros(ctx.size, dtype=np.int64)
    covered[list(ranked)] = 1
    # a coset lies inside the set when all its N**k points are covered
    counts, row = tables.coset_argmax(covered, ctx, k)
    flats = tables.flats(ctx, k)
    missing = np.flatnonzero(counts < ctx.modulus**k)
    if len(missing):
        raise ValueError(f"no translate of {flats[missing[0]].generators} lies inside the set")
    least = tables.coset_table(ctx, k)[1]
    shifts = tables.coord_grid(ctx)[least[np.arange(len(least)), row]]
    witnesses = tuple(zip(flats, map(tuple, shifts.tolist())))
    return KakeyaCertificate(k, ctx, tuple(sorted(ranked.values())), witnesses, optimal=False)
