"""Search for small sets containing a k-flat translate in every direction.

The translates of each flat are its cosets, the rows of
tables.coset_table in the order of their lex-least shift (not the
quotient chart of tables.coset_rows), and a search choice is a (flat,
row) pair.  The greedy pass and certify work on coverage counts over
that table.  Covering a point x lowers the count of uncovered points of
exactly one coset per flat, the one holding x, so the greedy keeps those
counts in an (F, C) array and updates them through the inverse index
coset_of (the row of each flat that holds each point).
The exact branch and bound keeps each translate as a Python int bitmask,
built once per (ring, k) by translate_options, and a node's costs are
ANDs and popcounts.

Both searches are deterministic: ties break on enumeration order, flats
in table order and translates in the order of their lex-least shift.  The
exact search branches on one translate per orbit of a group that fixes
the node's union.  Let S_i be the intersection of the flats U_0, ...,
U_{i-1} through the origin (S_0 the whole group).  The union at a node
of depth d <= i is made of cosets of U_0, ..., U_{d-1}, so translation by
any s in S_i fixes it.  A flat through the origin is a submodule, so a
unit dilation x -> lam x maps each coset a + U_j to the coset lam a + U_j,
and it fixes the union when it fixes each chosen coset that added points
((lam - 1) a_j in U_j); the others lie in the union of those.  These
units form a group Lambda, every unit of Z/N at the root.  So the maps
x -> lam x + s, s in S_i and lam in Lambda, fix the union: the cosets of
U_i in one orbit of them add the same number of points to it, and their
best completions are images of each other, equally small.  Only the
orbit's least-shift coset is branched on (at the root, the translate
through the origin); one pass per distinct S_i but S_0 and {0} sets them up.
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


@lru_cache(maxsize=None)
def translate_options(ctx: RingContext, k: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """Per flat of tables.flats(ctx, k), its distinct translates as
    (bitmask, lex-least shift) pairs ordered by that shift.

    The translates of a flat U are its cosets a + U, which are the rows of
    tables.coset_table(ctx, k), in this order; a row's lex-least shift is
    its lex-least point, the row's least rank.  For k = 1 the table follows
    tables.directions(ctx), which is the order of tables.flats(ctx, 1).

    Bitmasks of more bytes (F * C * ceil(size / 8), for F flats of C
    cosets each) than the machine's physical memory raise
    tables.TableMemoryError before any is built, as an oversized table does.
    They are packed a block of flats (tables.blocks: one-hot) at a time.
    """
    table, least = tables.coset_table(ctx, k)  # refuses oversized rings first
    F, C, _ = table.shape
    width = -(-ctx.size // 8)  # bytes per bitmask
    tables.check_memory(F * C * width)
    shifts = tables.coord_grid(ctx)[least].tolist()
    masks = []
    for block in tables.blocks(F, C * ctx.size, tables._BLOCK_BYTES):
        onehot = np.zeros((block.stop - block.start, C, ctx.size), dtype=bool)
        np.put_along_axis(onehot, table[block], True, axis=2)
        data = np.packbits(onehot, axis=2, bitorder="little").tobytes()
        masks += [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]
    return tuple(tuple(zip(masks[f * C:(f + 1) * C], map(tuple, pts))) for f, pts in enumerate(shifts))


Choice = tuple[int, int]  # (flat index, row of the flat's coset table)


def _certificate(ctx: RingContext, k: int, chosen: Sequence[Choice], optimal: bool,
                 covered: np.ndarray | None = None) -> KakeyaCertificate:
    """The covered points (by default the union of the chosen cosets, one
    for every flat), each flat's witness the lex-least point of its coset."""
    table, least = tables.coset_table(ctx, k)
    fs, rows = np.array(sorted(chosen), dtype=np.intp).reshape(-1, 2).T
    if covered is None:
        covered = np.zeros(ctx.size, dtype=bool)
        covered[table[fs, rows]] = True
    grid = tables.coord_grid(ctx)
    shifts = grid[least[fs, rows]].tolist()
    witnesses = tuple(zip(tables.flats(ctx, k), map(tuple, shifts)))
    points = tuple(map(tuple, grid[covered].tolist()))
    return KakeyaCertificate(k, ctx, points, witnesses, optimal)


def _coset_of(table: np.ndarray, size: int) -> np.ndarray:
    """(F, size): entry [f, x] is the row of table of the coset of flat f
    that holds point x, in the smallest unsigned dtype that holds C - 1.

    One scatter of the table rows, a block of flats (tables.blocks: its
    intp index, in tables._BLOCK_BYTES) at a time.  More bytes than the
    machine's physical memory raise tables.TableMemoryError before any is
    allocated.
    """
    F, C, M = table.shape
    dtype = np.min_scalar_type(C - 1)
    tables.check_memory(dtype.itemsize * F * size)
    out = np.empty((F, size), dtype=dtype)
    flat_out = out.reshape(-1)
    for block in tables.blocks(F, 8 * size, tables._BLOCK_BYTES):
        index = table[block] + (np.arange(block.start, block.stop, dtype=np.intp) * size)[:, None, None]
        flat_out[index] = np.arange(C, dtype=dtype)[:, None]
    return out


def _orbit_representatives(ctx: RingContext, least: np.ndarray,
                            coset_of: np.ndarray) -> tuple[list, list, list]:
    """(reps, orbit_min, dilate), per flat i of tables.flats(ctx, k), over
    the rows of its coset table (least as from tables.coset_table, coset_of
    from _coset_of).  reps[i] lists in increasing order the least-shift
    coset of each S_i-orbit, S_i the intersection of the flats before i
    through the origin (S_0 the whole group); orbit_min[i][j] is the least
    row in the S_i-orbit of row j; dilate[i][u][j] is the row of
    lam (a + U_i), for a + U_i the coset of row j and lam the u-th unit of
    Z/N other than 1.

    The S_i-orbit of row j holds the cosets of low_j + s, s in S_i, low_j
    its lex-least point, and lam maps it to the coset of lam low_j.  S_0
    makes one orbit of flat 0's cosets.  The S_i are a chain of subgroups,
    a strict step at least halving one: one pass per run of equal S_i
    other than S_0 and {0} (singleton orbits), at most log2(size), in
    blocks of flats (tables.blocks) of C * |S_i| * (n + 1) int64 a flat;
    a block past physical memory raises tables.TableMemoryError before its
    pass is built.
    """
    N, n = ctx.modulus, ctx.dimension
    F, C = least.shape
    grid = tables.coord_grid(ctx)
    orbit = np.repeat(np.arange(C, dtype=coset_of.dtype)[None], F, axis=0)
    orbit[0] = 0
    a, inside = 1, np.flatnonzero(coset_of[0] == 0)  # S_1 = U_0 by rank; row 0 holds the origin
    while a < F and len(inside) > 1:
        outside = np.append((coset_of[a:F - 1, inside] != 0).any(axis=1), True)
        b = a + 1 + int(outside.argmax())  # U_a, ..., U_(b-2) hold S_a
        s = grid[inside]
        item = 8 * (n + 1) * C * len(s)
        for block in tables.blocks(b - a, item, tables._BLOCK_BYTES, held=item):
            lo, hi = a + block.start, a + block.stop
            points, index = grid[least[lo:hi]], np.arange(lo, hi)[:, None, None]
            for d in range(n):  # not @, a slow int matmul
                index = index * N + (points[:, :, None, d] + s[:, d]) % N
            orbit[lo:hi] = coset_of.take(index).min(axis=2)
        a, inside = b, inside[coset_of[b - 1, inside] == 0]
    units = np.flatnonzero(np.gcd(np.arange(N), N) == 1)[1:]
    scaled = tables.rank_points(units[:, None, None] * grid % N, ctx)  # the rank of lam x
    dilate = coset_of[np.arange(F)[:, None, None], scaled.T[least].transpose(0, 2, 1)]
    is_rep = orbit == np.arange(C)
    cols = np.nonzero(is_rep)[1].tolist()
    ends = np.cumsum(is_rep.sum(axis=1)).tolist()
    return [cols[lo:hi] for lo, hi in zip([0] + ends, ends)], orbit.tolist(), dilate.tolist()


def _greedy(ctx: RingContext, table: np.ndarray, coset_of: np.ndarray) -> tuple[list[Choice], int]:
    """The choices of greedy_kakeya, in the order they were committed, and
    the size of their union.

    cost[f, r] counts the uncovered points of row r of flat f, and low[f]
    is the least cost of flat f.  A step commits the first minimum in
    (flat, shift) order, then lowers, by one bincount of the newly covered
    points, the one count per flat and point of the coset holding it.  A committed flat's costs are set to
    size + 1: it loses at most size - N**k points after that, so its
    counts stay above any coset's size and it is never the minimum again.
    """
    F, C, M = table.shape
    cost = np.full((F, C), M, dtype=np.int64)
    low = np.full(F, M, dtype=np.int64)
    keys = np.arange(F)[:, None] * C  # cost.flat index of (f, 0)
    covered = np.zeros(ctx.size, dtype=bool)
    chosen: list[Choice] = []
    for _ in range(F):
        f = int(low.argmin())
        row = int(cost[f].argmin())
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
    table, _ = tables.coset_table(ctx, k)
    return _certificate(ctx, k, _greedy(ctx, table, _coset_of(table, ctx.size))[0], optimal=False)


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

    Flat i branches only on the least-shift member of each orbit of its
    cosets under the maps x -> lam x + s of the module docstring (see
    _orbit_representatives), which the stable sort ranks first among
    them, so the certificate is the one the search over every coset finds.
    The bound prunes the same nodes: a later flat's least increment is the
    same over its S_i-representatives, as S_i lies in each S_d, d < i.
    """
    if not 1 <= k <= ctx.dimension:
        raise ValueError("need 1 <= k <= n")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if k == ctx.dimension:
        return _certificate(ctx, k, [(0, 0)], optimal=True)

    options = translate_options(ctx, k)  # refuses oversized bitmasks first
    table, least = tables.coset_table(ctx, k)
    coset_of = _coset_of(table, ctx.size)
    reps, orbit_min, dilate = _orbit_representatives(ctx, least, coset_of)
    masks = [[opts[j][0] for j in js] for opts, js in zip(options, reps)]
    F = len(masks)
    best_chosen, best_size = _greedy(ctx, table, coset_of)
    picks = [0] * F  # per flat, the row of its translate
    best_picks = None
    hint = [0] * F  # per flat, the representative of least increment when last scanned
    nodes = 0
    bit_count = int.bit_count

    def dfs(pos: int, union: int, have: int, units: tuple[int, ...]):
        # have is the size of union; units indexes the units lam != 1 of
        # Lambda, whose dilations fix every coset chosen so far that added
        # points, and so fix union
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
        shifts = reps[pos]
        dil = dilate[pos]
        if least == 0:
            # a translate already inside the union dominates every other
            # choice (swapping it in can only shrink the final union); the
            # first such is its orbit's representative
            ranked = [incs.index(0)]
        else:
            kept = range(len(incs))
            if units:
                # the representatives that no unit of Lambda maps into an
                # S_pos-orbit of a lesser least shift
                mins = orbit_min[pos]
                kept = [t for t, j in enumerate(shifts)
                        if all(mins[dil[u][j]] >= j for u in units)]
            # a stable sort, so ties on cost stay in shift order
            ranked = sorted(kept, key=incs.__getitem__)
        row_masks = masks[pos]
        for i, t in enumerate(ranked):
            size = have + incs[t]
            if size >= best_size:
                # this child and every later one, none cheaper, are nodes
                # that their own size prunes: count them without a visit
                rest = len(ranked) - i
                if nodes + rest > budget:
                    raise _Exhausted()
                nodes += rest
                return
            j = picks[pos] = shifts[t]
            fixing = units
            if units and size > have:
                fixing = tuple(u for u in units if dil[u][j] == j)
            dfs(pos + 1, union | row_masks[t], size, fixing)

    try:
        dfs(0, 0, 0, tuple(range(len(dilate[0]))))
        optimal = True
    except _Exhausted:
        optimal = False
    # dfs reaches itself through its closure; dropping the name frees the
    # search state now, not at the next cyclic garbage collection
    del dfs
    if best_picks is not None:
        best_chosen = list(enumerate(best_picks))
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
    for p in points:
        if len(p) != ctx.dimension:
            raise ValueError(f"point {tuple(p)} has {len(p)} coordinates, need {ctx.dimension}")
    # Python ints: any sign and size reduce as c % N
    reduced = np.array(points, dtype=object).reshape(-1, ctx.dimension) % ctx.modulus
    covered = np.zeros(ctx.size, dtype=np.int64)
    covered[tables.rank_points(reduced.astype(np.int64), ctx)] = 1
    # a coset lies inside the set when all its N**k points are covered
    counts, row = tables.coset_argmax(covered, ctx, k)
    missing = np.flatnonzero(counts < ctx.modulus**k)
    if len(missing):
        flat = tables.flats(ctx, k)[missing[0]]
        raise ValueError(f"no translate of {flat.generators} lies inside the set")
    return _certificate(ctx, k, list(enumerate(row.tolist())), False, covered > 0)
