"""Search for small sets containing a k-flat translate in every direction.

Point sets are bitmasks over the ranked points of (Z/NZ)^n, so unions,
containment tests and cardinalities are single integer operations.  The
translates of each flat are the rows of tables.coset_table, turned into
bitmasks once per (ring, k) by translate_options.  The greedy pass and the
branch-and-bound minimizer are both deterministic: ties break on
enumeration (lexicographic) order everywhere.  The exact search fixes the
first direction's translate to the one through the origin, since any
translate of a Kakeya set is a Kakeya set of the same size.
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
    nbytes, memory = F * C * -(-ctx.size // 8), tables._physical_memory()
    if nbytes > memory:
        raise tables.TableMemoryError(nbytes, memory)
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


Choice = tuple[int, int, tuple[int, ...]]  # (flat index, translate mask, shift)


def _certificate(ctx: RingContext, k: int, chosen: Sequence[Choice],
                 optimal: bool) -> KakeyaCertificate:
    flats = tables.flats(ctx, k)
    union = 0
    witnesses = []
    for fi, mask, shift in sorted(chosen):
        union |= mask
        witnesses.append((flats[fi], shift))
    pts = tuple(ctx.unrank(i) for i in range(ctx.size) if union >> i & 1)
    return KakeyaCertificate(k, ctx, pts, tuple(witnesses), optimal)


def _greedy(options) -> list[Choice]:
    """The choices of greedy_kakeya, in the order they were committed."""
    remaining = list(range(len(options)))
    union = 0
    chosen: list[Choice] = []
    while remaining:
        free = ~union
        best = None
        for fi in remaining:
            # candidates come in (direction, shift) order, so only a
            # strictly cheaper one replaces the best so far
            for mask, shift in options[fi]:
                cost = (mask & free).bit_count()
                if best is None or cost < best[0]:
                    best = (cost, fi, mask, shift)
            if best[0] == 0:
                break
        _, fi, mask, shift = best
        chosen.append((fi, mask, shift))
        union |= mask
        remaining.remove(fi)
    return chosen


def greedy_kakeya(ctx: RingContext, k: int) -> KakeyaCertificate:
    """Greedy cover: repeatedly commit the direction whose cheapest translate
    adds the fewest new points (ties on enumeration order), choosing the
    lex-least minimizing shift."""
    if not 1 <= k <= ctx.dimension:
        raise ValueError("need 1 <= k <= n")
    return _certificate(ctx, k, _greedy(translate_options(ctx, k)), optimal=False)


def exact_min_kakeya(ctx: RingContext, k: int, budget: int = 5_000_000) -> KakeyaCertificate:
    """Minimum-cardinality certificate by depth-first branch and bound.

    Nodes assign one translate per direction, cheapest increments first;
    a direction already covered by the current union is claimed at zero
    cost without branching (a dominant choice).  The pruning bound is
    |union| plus the largest single-direction minimum increment over the
    remaining directions, which never overestimates the cost of a
    completion.  Budget counts expanded nodes; exhaustion raises
    BudgetExceeded carrying the best certificate found so far.

    The root keeps only its first branch, the first direction's translate
    through the origin.  A translate of a Kakeya set is a Kakeya set of
    the same size, so translating an optimum until that translate passes
    through the origin gives an optimum inside the first branch; later
    root branches could never strictly improve the incumbent.  The nodes
    visited are therefore a prefix of those of the unrestricted search,
    with the same result, and a budget runs out at the same node or not
    at all.
    """
    if not 1 <= k <= ctx.dimension:
        raise ValueError("need 1 <= k <= n")
    if k == ctx.dimension:
        return _certificate(ctx, k, [(0, (1 << ctx.size) - 1, (0,) * ctx.dimension)], optimal=True)

    options = translate_options(ctx, k)
    masks = [[m for m, _ in opts] for opts in options]
    best_chosen = _greedy(options)
    union = 0
    for _, mask, _ in best_chosen:
        union |= mask
    best_size = union.bit_count()
    nodes = 0
    order = sorted(range(len(options)), key=lambda fi: -min(m.bit_count() for m in masks[fi]))

    def lower_bound(union: int, pos: int) -> int:
        have = union.bit_count()
        free = ~union
        worst = 0
        for fi in order[pos:]:
            inc = min((m & free).bit_count() for m in masks[fi])
            worst = max(worst, inc)
            if have + worst >= best_size:
                break
        return have + worst

    def dfs(pos: int, union: int, chosen: list[Choice]):
        nonlocal nodes, best_size, best_chosen
        if nodes >= budget:
            raise _Exhausted()
        nodes += 1
        if pos == len(order):
            size = union.bit_count()
            if size < best_size:
                best_size = size
                best_chosen = list(chosen)
            return
        if lower_bound(union, pos) >= best_size:
            return
        fi = order[pos]
        free = ~union
        # options are in shift order and the sort is stable, so ties on
        # cost stay in shift order
        ranked = sorted(options[fi], key=lambda ms: (ms[0] & free).bit_count())
        if pos == 0 or ranked[0][0] & free == 0:
            # at the root: the translate through the origin (see above);
            # elsewhere a translate already inside the union dominates every
            # other choice (swapping it in can only shrink the final union)
            ranked = ranked[:1]
        for mask, shift in ranked:
            chosen.append((fi, mask, shift))
            dfs(pos + 1, union | mask, chosen)
            chosen.pop()

    try:
        dfs(0, 0, [])
    except _Exhausted:
        raise BudgetExceeded(_certificate(ctx, k, best_chosen, optimal=False)) from None
    return _certificate(ctx, k, best_chosen, optimal=True)


class _Exhausted(Exception):
    pass


def certify(points: Sequence[Sequence[int]], ctx: RingContext, k: int) -> KakeyaCertificate:
    """Check that a point set contains a translate of every k-flat.

    Raises ValueError naming the first uncovered direction otherwise, and
    on a point with the wrong number of coordinates.
    """
    mask = 0
    pts = []
    for p in points:
        if len(p) != ctx.dimension:
            raise ValueError(f"point {tuple(p)} has {len(p)} coordinates, need {ctx.dimension}")
        reduced = tuple(c % ctx.modulus for c in p)
        r = ctx.rank(reduced)
        if not mask >> r & 1:
            pts.append(reduced)
        mask |= 1 << r
    options = translate_options(ctx, k)
    witnesses = []
    for flat, opts in zip(tables.flats(ctx, k), options):
        hit = next((shift for tmask, shift in opts if tmask & ~mask == 0), None)
        if hit is None:
            raise ValueError(f"no translate of {flat.generators} lies inside the set")
        witnesses.append((flat, hit))
    return KakeyaCertificate(k, ctx, tuple(sorted(pts)), tuple(witnesses), optimal=False)
