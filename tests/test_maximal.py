import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeyalab import harmonic, tables
from kakeyalab.geometry import canonical_direction
from kakeyalab.harmonic import Density, induce_rows, xray_all
from kakeyalab.maximal import (appendix_constant, chain_constant, coset_maxima,
                               f_star, flat_maximal, line_maximal, maxN_constant,
                               mweight, rounding_g)
from kakeyalab.cli import main
from kakeyalab.geometry import gr_size
from kakeyalab.ring import RingContext
from kakeyalab.verify import DISTRIBUTIONS, corpus_rings, random_density
from oracles import (chart_rows, coset_table_per_flat, flat_points, mweight_lines,
                     projmax_identity_check)


def brute_line_max(f, u, ctx):
    """Oracle: scan every shift directly."""
    N = ctx.modulus
    best = Fraction(-1)
    for a in ctx.points():
        total = sum(abs(f.value(tuple((ai + t * ui) % N for ai, ui in zip(a, u.rep))))
                    for t in range(N))
        best = max(best, Fraction(total, N))
    return best


def brute_flat_max(f, F, ctx):
    N = ctx.modulus
    pts = flat_points(F)
    best = Fraction(-1)
    for a in ctx.points():
        total = sum(abs(f.value(tuple((ai + pi) % N for ai, pi in zip(a, p)))) for p in pts)
        best = max(best, Fraction(total, N**F.k))
    return best


class TestLineMaximal:
    def test_line_indicator_example(self):
        ctx = RingContext.padic(3, 1, 2)
        u0 = canonical_direction((1, 0), ctx)
        f = Density.indicator(ctx, [(0, 0), (1, 0), (2, 0)])
        prof = line_maximal(f)
        for u in prof.keys:
            expected = Fraction(1) if u == u0 else Fraction(1, 3)
            assert prof.value(u) == expected == brute_line_max(f, u, ctx)

    def test_constant(self):
        ctx = RingContext.generic(6, 2)
        prof = line_maximal(Density.constant(ctx, Fraction(3, 7)))
        assert set(prof.values) == {Fraction(3, 7)}

    def test_point_indicator(self):
        for N in (3, 5):
            ctx = RingContext.generic(N, 2)
            prof = line_maximal(Density.indicator(ctx, [(0, 0)]))
            assert set(prof.values) == {Fraction(1, N)}

    def test_against_brute_oracle(self):
        ctx = RingContext.generic(6, 2)
        for t in range(4):
            f = random_density(ctx, seed=200 + t, dist="sparse")
            prof = line_maximal(f)
            for u in prof.keys:
                assert prof.value(u) == brute_line_max(f, u, ctx)

    def test_witness_is_lex_least_and_achieves(self):
        ctx = RingContext.padic(2, 2, 2)
        f = random_density(ctx, seed=7, dist="uniform-rational")
        prof = line_maximal(f)
        for u, value, wit in zip(prof.keys, prof.values, prof.witnesses):
            achieved = sum(abs(f.value(tuple((w + t * c) % 4 for w, c in zip(wit, u.rep))))
                           for t in range(4))
            assert Fraction(achieved, 4 * 1) == value * 1
            for a in ctx.points():
                if a == wit:
                    break
                total = sum(abs(f.value(tuple((ai + t * c) % 4 for ai, c in zip(a, u.rep))))
                            for t in range(4))
                assert Fraction(total, 4) < value


class TestFlatMaximal:
    def test_plane_indicator_example(self):
        ctx = RingContext.padic(2, 1, 3)
        U0 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        f = Density.indicator(ctx, U0)
        prof = flat_maximal(f, 2)
        values = sorted(prof.values)
        assert values == [Fraction(1, 2)] * 6 + [Fraction(1)]
        for F in prof.keys:
            assert prof.value(F) == brute_flat_max(f, F, ctx)

    def test_constant(self):
        ctx = RingContext.padic(3, 1, 3)
        prof = flat_maximal(Density.constant(ctx, 2), 2)
        assert set(prof.values) == {Fraction(2)}

    def test_monotone_in_f(self):
        ctx = RingContext.padic(2, 2, 2)
        for t in range(10):
            f = random_density(ctx, seed=300 + t, dist="uniform-rational")
            bump = random_density(ctx, seed=400 + t, dist="sparse")
            g = f + bump
            pf, pg = flat_maximal(f, 2), flat_maximal(g, 2)
            assert all(a <= b for a, b in zip(pf.values, pg.values))

    def test_sublinear(self):
        ctx = RingContext.padic(2, 1, 3)
        for t in range(6):
            f = random_density(ctx, seed=500 + t, dist="uniform-rational")
            g = random_density(ctx, seed=600 + t, dist="sparse")
            ps, pf, pg = flat_maximal(f + g, 2), flat_maximal(f, 2), flat_maximal(g, 2)
            assert all(s <= a + b for s, a, b in zip(ps.values, pf.values, pg.values))

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_scale_equivariant(self, c):
        ctx = RingContext.padic(2, 1, 3)
        f = random_density(ctx, seed=11, dist="uniform-rational")
        scaled = Density.from_numden(ctx, f.num * c, f.den)
        pc, p1 = flat_maximal(scaled, 2), flat_maximal(f, 2)
        assert all(v == c * w for v, w in zip(pc.values, p1.values))

    def test_k1_matches_line_maximal(self):
        ctx = RingContext.generic(6, 2)
        f = random_density(ctx, seed=13, dist="uniform-rational")
        p_line = line_maximal(f)
        p_flat = flat_maximal(f, 1)
        assert sorted(p_line.values) == sorted(p_flat.values)


def brute_profile(f, point_sets, k):
    """Oracle: sum |f| over a + U at every shift a, in rank order, and keep
    the first (lex-least) shift reaching the maximum."""
    ctx = f.ctx
    N = ctx.modulus
    vals = np.abs(f.num).astype(object) if f.lane == "exact" else np.abs(f.data)
    grid = np.array(list(ctx.points()), dtype=np.int64)
    place = np.array([N ** (ctx.dimension - 1 - i) for i in range(ctx.dimension)])
    values, witnesses = [], []
    for pts in point_sets:
        pts = np.array(sorted(pts), dtype=np.int64)
        sums = vals[(grid[:, None, :] + pts[None]) % N @ place].sum(axis=1)
        a = max(range(ctx.size), key=lambda i: (sums[i], -i))
        values.append(Fraction(int(sums[a]), f.den * N**k) if f.lane == "exact"
                      else float(sums[a]) / N**k)
        witnesses.append(ctx.unrank(a))
    return values, witnesses


def line_point_sets(ctx):
    N = ctx.modulus
    return [{tuple(t * c % N for c in u.rep) for t in range(N)} for u in tables.directions(ctx)]


class TestCosetOracle:
    """Both operators against shift-by-shift sums over flat_points."""

    RINGS = [RingContext.padic(2, 2, 3), RingContext.generic(6, 3),
             RingContext.generic(12, 2), RingContext.generic(12, 1)]

    @pytest.mark.parametrize("ctx", RINGS, ids=lambda c: c.describe())
    def test_exact_values_and_witnesses(self, ctx):
        for t in range(4):
            f = random_density(ctx, seed=1000 + t, dist=DISTRIBUTIONS[t], trial=t)
            prof = line_maximal(f)
            assert (list(prof.values), list(prof.witnesses)) == brute_profile(f, line_point_sets(ctx), 1)
            for k in range(1, ctx.dimension + 1):
                prof = flat_maximal(f, k)
                sets = [flat_points(F) for F in tables.flats(ctx, k)]
                assert (list(prof.values), list(prof.witnesses)) == brute_profile(f, sets, k)

    @pytest.mark.parametrize("ctx", RINGS, ids=lambda c: c.describe())
    def test_float_values_and_witnesses(self, ctx):
        N = ctx.modulus
        for t in range(4):
            f = random_density(ctx, seed=1100 + t, dist=DISTRIBUTIONS[t], trial=t).to_float()
            cases = [(line_maximal(f), line_point_sets(ctx), 1)]
            for k in range(1, ctx.dimension + 1):
                cases.append((flat_maximal(f, k),
                              [flat_points(F) for F in tables.flats(ctx, k)], k))
            for prof, sets, k in cases:
                values, _ = brute_profile(f, sets, k)
                assert np.allclose(prof.values, values, rtol=0, atol=1e-12)
                for value, wit, pts in zip(prof.values, prof.witnesses, sets):
                    reached = sum(abs(f.value(tuple((a + x) % N for a, x in zip(wit, p))))
                                  for p in pts) / N**k
                    assert abs(reached - value) <= 1e-12

    def test_sums_are_exact_past_float_precision(self):
        # entries near 2**55 / N**k pass the headroom check, but their coset
        # sums exceed 2**53, where float64 accumulation rounds
        ctx = RingContext.padic(2, 2, 3)
        rng = np.random.default_rng(3)
        rounded = False
        for k in range(1, ctx.dimension + 1):
            base = 2**55 // ctx.modulus**k
            num = base + rng.integers(0, 2**20, ctx.size)
            f = Density.from_numden(ctx, num, 1)
            sets = [flat_points(F) for F in tables.flats(ctx, k)]
            prof = flat_maximal(f, k)
            assert (list(prof.values), list(prof.witnesses)) == brute_profile(f, sets, k)
            table, _ = tables.coset_table(ctx, k)
            exact = num[table].sum(axis=2)
            rounded |= bool((num.astype(np.float64)[table].sum(axis=2) != exact).any())
        assert rounded

    def test_larger_ring_table_size(self):
        # by arithmetic a (F, size, N**2) shift table would take about 1.9 GB
        ctx = RingContext.padic(2, 4, 3)
        table, least = tables.coset_table(ctx, 2)
        F = len(tables.flats(ctx, 2))
        assert table.shape == (F, ctx.size // 16**2, 16**2)
        assert table.dtype == np.uint16 and table.nbytes == 2 * F * ctx.size
        plane = tables.flats(ctx, 2)[5]
        shifted = [tuple((a + 1) % 16 for a in p) for p in flat_points(plane)]
        prof = flat_maximal(Density.indicator(ctx, shifted), 2)
        assert prof.value(plane) == 1 and prof.witness(plane) == min(shifted)
        assert sum(v == 1 for v in prof.values) == 1


class TestCosetArgmax:
    """The one-row scan of the whole coset table behind the profiles."""

    @pytest.mark.parametrize("block_bytes", [1, 3000])
    @pytest.mark.parametrize("ctx", [RingContext.generic(6, 2), RingContext.generic(12, 2),
                                     RingContext.padic(2, 2, 2)], ids=lambda c: c.describe())
    def test_profiles_match_brute_sums(self, monkeypatch, ctx, block_bytes):
        # values and lex-least witnesses, k = 1 and 2, across blocks of one
        # flat and of a few; the float rows are the exact ones over 8, so
        # every float sum is exact and ties break as in the exact lane
        monkeypatch.setattr(tables, "_BLOCK_BYTES", block_bytes)
        for t, dist in enumerate(DISTRIBUTIONS):
            f = random_density(ctx, seed=90 + t, dist=dist, trial=t)
            for g in (f, Density.from_float(ctx, f.num / 8)):
                prof = line_maximal(g)
                assert (list(prof.values), list(prof.witnesses)) == brute_profile(
                    g, line_point_sets(ctx), 1)
                prof = flat_maximal(g, 2)
                assert (list(prof.values), list(prof.witnesses)) == brute_profile(
                    g, [flat_points(F) for F in tables.flats(ctx, 2)], 2)

    @pytest.mark.parametrize("blocks", ["one flat", "two flats", "ragged"])
    def test_blocks_match_one_whole_gather(self, monkeypatch, blocks):
        # coset_argmax itself, a block of one, two and a ragged number of
        # flats at a time, against the max and argmax of one whole gather
        # values[table].sum(-1): int64 and int32 rows, and float rows whose
        # sums round, bit for bit
        for ctx, k in [(RingContext.padic(2, 2, 3), 1), (RingContext.padic(2, 2, 3), 2),
                       (RingContext.generic(12, 2), 1)]:
            table, _ = tables.coset_table(ctx, k)
            F = len(table)
            step = {"one flat": 1, "two flats": 2}.get(blocks) or next(b for b in range(3, F) if F % b)
            monkeypatch.setattr(tables, "_BLOCK_BYTES", 8 * ctx.size * step)
            num = np.abs(random_density(ctx, seed=95, dist="uniform-rational").num)
            floats = np.random.default_rng(95).random(ctx.size) / 3
            for values in (num, num.astype(np.int32), floats):
                best, row = tables.coset_argmax(values, ctx, k)
                whole = values[table].sum(axis=-1)
                assert best.dtype == values.dtype and row.shape == (F,)
                assert best.tobytes() == whole.max(axis=1).astype(values.dtype).tobytes()
                assert np.array_equal(row, whole.argmax(axis=1))


class TestCosetTableBuild:
    """The blocked build against the flat-by-flat chart oracle, its rows
    sorted by least rank, its rank dtype and its memory."""

    RINGS = corpus_rings() + [RingContext.padic(2, 1, 1), RingContext.generic(6, 1),
                              RingContext.padic(2, 1, 4), RingContext.padic(2, 2, 4),
                              RingContext.padic(2, 17, 1)]  # 131,072 points: int32 ranks

    @pytest.mark.parametrize("blocks", ["default", "one flat", "ragged"])
    @pytest.mark.parametrize("ctx", RINGS, ids=lambda c: c.describe())
    def test_equals_per_flat_oracle(self, monkeypatch, ctx, blocks):
        itemsize = tables._rank_dtype(ctx).itemsize
        for k in range(1, ctx.dimension + 1):
            want, want_least = coset_table_per_flat(ctx, k)
            F = len(want)
            if blocks == "one flat":
                monkeypatch.setattr(tables, "_BLOCK_BYTES", itemsize * ctx.size)
            elif blocks == "ragged":  # the fewest flats per block that leave a short last one
                step = next((b for b in range(2, F) if F % b), 1)
                monkeypatch.setattr(tables, "_BLOCK_BYTES", step * itemsize * ctx.size)
            rows = tables.coset_rows(ctx, tables._generators(ctx, k))
            assert rows.dtype == tables._rank_dtype(ctx)
            assert np.array_equal(rows.astype(np.int64), want)
            table, least = tables.coset_table.__wrapped__(ctx, k)
            assert table.dtype == least.dtype == tables._rank_dtype(ctx)
            # the chart's rows, each flat's sorted by least rank: U itself first
            flat, order = np.arange(F)[:, None], np.argsort(want_least, axis=1)
            assert np.array_equal(table.astype(np.int64), want[flat, order])
            assert np.array_equal(least.astype(np.int64), want_least[flat, order])
            assert (least[:, 0] == 0).all() and (np.diff(least.astype(np.int64), axis=1) > 0).all()

    def test_rank_dtype_holds_every_rank_and_the_sentinel(self):
        assert tables._rank_dtype(RingContext.generic(255, 2)) == np.uint16  # 65,025 points
        assert tables._rank_dtype(RingContext.generic(256, 2)) == np.int32  # 65,536 points

    def test_memory_guard_counts_the_rank_dtype(self, monkeypatch):
        # memory between the uint16 and the int32 bytes of a table: a
        # uint16 ring builds, a ring past 65,535 points is refused
        small, large = RingContext.padic(2, 2, 3), RingContext.generic(256, 2)
        F, P = len(tables.direction_matrix(small)), len(tables.direction_matrix(large))
        monkeypatch.setattr(tables, "_physical_memory", lambda: 3 * F * small.size)
        assert tables.coset_table.__wrapped__(small, 1)[0].nbytes == 2 * F * small.size
        monkeypatch.setattr(tables, "_physical_memory", lambda: 3 * P * large.size)
        with pytest.raises(tables.TableMemoryError) as err:
            tables.coset_table.__wrapped__(large, 1)
        assert err.value.estimate == 4 * P * large.size

    def test_peak_memory_is_a_few_blocks_past_the_table(self, monkeypatch):
        ctx = RingContext.generic(12, 3)
        monkeypatch.setattr(tables, "_BLOCK_BYTES", 1 << 14)
        tables.coset_table.__wrapped__(ctx, 1)  # warm the cached grids and directions
        tracemalloc.start()
        try:
            table, least = tables.coset_table.__wrapped__(ctx, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= table.nbytes + least.nbytes + 8 * (1 << 14)
        assert 8 * len(table) * ctx.size * ctx.dimension > 8 * peak  # the (F, Q, N, n) int64 stack


class TestCosetMaxima:
    """The coset sums of coset_plan, read point-major through gather_sums,
    against Python-int coset sums and each other."""

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7, 8, 100])
    def test_chunk_boundaries(self, monkeypatch, chunk_rows):
        # 7 rows split into chunks of every size, including ragged last
        # chunks of one row and wider ones, each level read point-major
        # (every coset's slabs added one at a time, every row of the chunk a
        # column), on the one-component plan of padic(2,2,2) and the two
        # of generic(6,2); the flats go one per block, in ragged blocks, or
        # all in one block
        for ctx in (RingContext.generic(6, 2), RingContext.padic(2, 2, 2)):
            rows = np.stack([random_density(ctx, seed=40 + r, dist=DISTRIBUTIONS[r % 4],
                                            trial=r).num * (r + 1) for r in range(7)])
            monkeypatch.setattr(tables, "_CHUNK_BYTES", 8 * ctx.size * chunk_rows)
            for block_bytes, k in itertools.product((1, 3000, 1 << 30), (1, 2)):
                monkeypatch.setattr(tables, "_GATHER_BYTES", block_bytes)
                npts = ctx.modulus**k
                sets = line_point_sets(ctx) if k == 1 else [flat_points(F) for F in tables.flats(ctx, k)]
                best = coset_maxima(rows, ctx, k)
                assert best.dtype == np.int64 and best.shape == (7, len(sets))
                with pytest.raises(TypeError):  # floats go through the profiles
                    coset_maxima(rows / 7, ctx, k)
                for r, row in enumerate(rows):
                    values, _ = brute_profile(Density.from_numden(ctx, row, 1), sets, k)
                    assert [Fraction(int(b), npts) for b in best[r]] == values

    def test_index_reads_pulled_back_rows(self, monkeypatch):
        # rows read through a pull-back index equal the built induced stack
        ctx = RingContext.padic(2, 2, 2)
        rows = np.stack([random_density(ctx, seed=60 + r, dist=DISTRIBUTIONS[r % 4], trial=r).num
                         for r in range(5)])
        mctx, index, gaps = induce_rows(rows, ctx, 8)
        assert not gaps.any() and mctx.modulus == 8
        for chunk_rows in (1, 2, 5):
            monkeypatch.setattr(tables, "_CHUNK_BYTES", 8 * mctx.size * chunk_rows)
            for k in (1, 2):
                got = coset_maxima(rows, mctx, k, index=index)
                assert np.array_equal(got, coset_maxima(rows[:, index], mctx, k))

    def test_pulled_back_chunk_refused_before_it_is_gathered(self, monkeypatch):
        # a budget that the coset plan fits but not the int32 chunk of 64
        # rows pulled back to the 64 points of Z/4: refused before
        # coset_sums gathers rows[:, index]
        base = RingContext.padic(2, 1, 3)
        rows = np.random.default_rng(9).integers(-50, 50, (64, base.size))
        ctx, index, _ = induce_rows(rows, base, 4)
        want = coset_maxima(rows, ctx, 1, index=index)
        need = 4 * len(rows) * ctx.size
        asked, sums = [], []

        def spy(nbytes, _real=tables.check_memory):
            asked.append(nbytes)
            _real(nbytes)

        monkeypatch.setattr(tables, "check_memory", spy)
        monkeypatch.setattr(tables, "coset_sums", lambda *a: sums.append(a))
        monkeypatch.setattr(tables, "_physical_memory", lambda: need - 1)
        tables.coset_plan.cache_clear()
        with pytest.raises(tables.TableMemoryError) as err:
            coset_maxima(rows, ctx, 1, index=index)
        assert err.value.estimate == asked[-1] == need and max(asked[:-1]) < need
        assert not sums
        monkeypatch.undo()
        tables.coset_plan.cache_clear()
        assert np.array_equal(coset_maxima(rows, ctx, 1, index=index), want)

    @pytest.mark.parametrize("pulled_back", [False, True], ids=["rows", "index"])
    def test_layouts_agree(self, monkeypatch, pulled_back):
        # 1, 2, 11, 12 and 13 rows, read point-major in one chunk and in
        # chunks of three, give the maxima of the whole table's Python-int
        # sums, directly or through a pull-back index
        base = RingContext.padic(2, 2, 2)
        rows = np.stack([random_density(base, seed=70 + r, dist=DISTRIBUTIONS[r % 4], trial=r).num
                         * (r + 1) for r in range(13)])
        ctx, index = induce_rows(rows, base, 8)[:2] if pulled_back else (base, None)
        pulled = rows if index is None else rows[:, index]
        for k in (1, 2):
            want = one_table_sums(np.abs(pulled), ctx, k).max(axis=-1).tolist()
            for R, chunk_rows in itertools.product((1, 2, 11, 12, 13), (3, 13)):
                monkeypatch.setattr(tables, "_CHUNK_BYTES", 8 * ctx.size * chunk_rows)
                assert coset_maxima(rows[:R], ctx, k, index=index).tolist() == want[:R]

    def test_peak_memory_is_bounded_by_the_budgets(self, monkeypatch):
        # a tall stack is summed a chunk and a block at a time: the peak
        # stays within a small multiple of the budgets plus the outputs,
        # far below the whole stack's (R, F, size // N, N) gather
        ctx = RingContext.padic(3, 3, 2)
        rows = np.random.default_rng(8).integers(-(2**20), 2**20, (117, ctx.size))
        table, _ = tables.coset_table(ctx, 1)
        monkeypatch.setattr(tables, "_CHUNK_BYTES", 1 << 16)
        monkeypatch.setattr(tables, "_GATHER_BYTES", 1 << 14)
        for stack in (rows, rows[:1]):
            coset_maxima(stack, ctx, 1)  # warm any lazy state
            tracemalloc.start()
            try:
                best = coset_maxima(stack, ctx, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * ((1 << 16) + (1 << 14)) + best.nbytes
            assert 8 * len(stack) * table.size > 2 * peak

    def test_row_maxima_above_int32_are_exact(self):
        # coset sums near 2**40 (past int32; their squares pass int64) come
        # back exactly, as Python-int brute sums say
        ctx = RingContext.padic(2, 2, 3)
        rng = np.random.default_rng(5)
        rows = 2**38 + rng.integers(0, 2**30, (5, ctx.size))
        rows[1] = -rows[1]  # absolute values are taken inside
        for k in (1, 2):
            table, _ = tables.coset_table(ctx, k)
            best = coset_maxima(rows, ctx, k)
            brute = [[max(sum(abs(int(row[i])) for i in coset) for coset in flat)
                      for flat in table] for row in rows]
            assert best.tolist() == brute
            assert best.min() > 2**31

    @given(st.lists(st.integers(-(2**62), 2**62), min_size=16, max_size=16),
           st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_exact_or_overflow(self, values, scale):
        # ROADMAP 4(a): an exact-lane maximum is either the exact integer or
        # an OverflowError, never a wrapped int64
        ctx = RingContext.padic(2, 2, 2)
        rows = np.array([values, [v // 2**scale for v in values]], dtype=np.int64)
        table, _ = tables.coset_table(ctx, 1)
        brute = [[max(sum(abs(v) for v in np.asarray(row, dtype=object)[coset]) for coset in flat)
                  for flat in table] for row in rows]
        if max(abs(v) for v in values) * ctx.modulus >= 2**61:
            with pytest.raises(OverflowError):
                coset_maxima(rows, ctx, 1)
        else:
            assert coset_maxima(rows, ctx, 1).tolist() == brute


STAGED_RINGS = [RingContext.generic(6, 2), RingContext.generic(12, 2), RingContext.generic(12, 3),
                RingContext.profinite(2, 2), RingContext.profinite(2, 3), RingContext.profinite(3, 2),
                RingContext.generic(30, 2)]


# p-adic towers of one to four levels, alone and beside other components
TOWER_RINGS = [RingContext.padic(2, 2, 2), RingContext.padic(2, 3, 3), RingContext.padic(3, 2, 3),
               RingContext.padic(3, 3, 2), RingContext.padic(2, 4, 2), RingContext.padic(2, 2, 4),
               RingContext.profinite(3, 2), RingContext.generic(12, 3)]


def tower_ks(ctx):
    """k = 1, 2 and min(n, 3)."""
    return sorted({1, 2, min(ctx.dimension, 3)})


def one_table_sums(rows, ctx, k):
    """(R, F, cosets) Python-int sums of rows over every flat's chart rows."""
    return np.asarray(rows, dtype=object)[:, chart_rows(ctx, k)].sum(axis=-1)


def staged_rows(ctx, count, seed):
    """Signed rows, each on its own scale."""
    rng = np.random.default_rng(seed)
    return rng.integers(-60, 61, (count, ctx.size)) * (1 + np.arange(count))[:, None] ** 3


def plan_sums(rows, ctx, k):
    """(R, F, cosets) coset sums of rows through coset_sums, in rank order."""
    plan = tables.coset_plan(ctx, k)
    got = np.empty((len(rows), math.prod(plan.flat_shape), ctx.size // ctx.modulus**k),
                   dtype=object)
    view = got.reshape((len(rows),) + plan.flat_shape + got.shape[-1:])
    for lo, sums in tables.coset_sums(rows, plan):
        view[..., lo:lo + sums.shape[len(plan.towers)], :] = plan.in_rank_order(sums)
    return got


class TestCosetPlan:
    """Coset sums one CRT component at a time, each a p-adic tower of
    levels, against the whole coset table."""

    @pytest.mark.parametrize("ctx", STAGED_RINGS, ids=lambda c: c.describe())
    def test_one_stage_per_component(self, ctx):
        # one tower per component p**e, its level j holding the lines of
        # (Z/p**(e-j))^n: level 0 those of the component
        plan = tables.coset_plan(ctx, 1)
        assert [[level.shape[1] for level in tower] for tower in plan.towers] == [
            [len(tables.directions(RingContext.generic(p**m, ctx.dimension))) for m in range(1, e + 1)]
            for p, e in ctx.factorization]
        assert math.prod(plan.flat_shape) == len(tables.directions(ctx))
        assert sorted(plan.points.tolist()) == list(range(ctx.size))

    @pytest.mark.parametrize("ctx", STAGED_RINGS, ids=lambda c: c.describe())
    def test_cosets_in_rank_order(self, ctx):
        # coset by coset, flat by flat, for k = 1, 2 and n
        rows = staged_rows(ctx, 3, 80)
        for k in sorted({1, 2, ctx.dimension}):
            assert plan_sums(rows, ctx, k).tolist() == one_table_sums(rows, ctx, k).tolist()

    @pytest.mark.parametrize("ctx", STAGED_RINGS, ids=lambda c: c.describe())
    def test_maxima_and_xrays(self, ctx):
        rows = staged_rows(ctx, 4, 81)
        for k in sorted({1, 2, ctx.dimension}):
            want = np.abs(one_table_sums(np.abs(rows), ctx, k)).max(axis=-1)
            best = coset_maxima(rows, ctx, k)
            assert best.dtype == np.int64 and best.tolist() == want.tolist()
        f = Density(ctx, num=rows, den=[1, 2, 3, 4])
        nums, den = xray_all(f)
        assert nums.dtype == np.int64 and nums.tolist() == one_table_sums(f.num, ctx, 1).tolist()
        assert xray_all(Density(ctx, num=f.num[1], den=5))[0].tolist() == nums[1].tolist()

    @pytest.mark.parametrize("ctx, M", [(RingContext.generic(6, 2), 12),
                                        (RingContext.profinite(2, 2), 24),
                                        (RingContext.padic(2, 1, 2), 6)],
                             ids=["6->12", "6->24", "2->6"])
    def test_index_pull_back(self, ctx, M):
        rows = staged_rows(ctx, 5, 82)
        mctx, index, gaps = induce_rows(rows, ctx, M)
        assert not gaps.any() and len(mctx.factorization) > 1
        for k in (1, 2):
            got = coset_maxima(rows, mctx, k, index=index)
            assert got.tolist() == coset_maxima(rows[:, index], mctx, k).tolist()
            assert got.tolist() == one_table_sums(np.abs(rows[:, index]), mctx, k).max(axis=-1).tolist()

    @pytest.mark.parametrize("ctx", [RingContext.generic(6, 3), RingContext.generic(12, 2)],
                             ids=lambda c: c.describe())
    def test_chunk_and_block_splits(self, monkeypatch, ctx):
        # chunks of one row and of three, blocks of one flat and of a few
        rows = staged_rows(ctx, 7, 83)
        want = {k: coset_maxima(rows, ctx, k) for k in (1, 2)}
        xrays = xray_all(Density(ctx, num=rows, den=[1] * 7))[0]
        for chunk_rows, block in itertools.product((1, 3), (1, 3000)):
            plan = tables.coset_plan(ctx, 1)
            monkeypatch.setattr(tables, "_CHUNK_BYTES", 4 * plan.width * chunk_rows)
            monkeypatch.setattr(tables, "_GATHER_BYTES", block)
            for k in (1, 2):
                assert np.array_equal(coset_maxima(rows, ctx, k), want[k])
            assert np.array_equal(xray_all(Density(ctx, num=rows, den=[1] * 7))[0], xrays)

    def test_headroom_refused_where_the_one_table_refuses(self):
        # max|row| * N**k under 2**61 sums exactly, at 2**61 or more raises,
        # on the staged path as on the whole table (the profiles)
        ctx = RingContext.generic(6, 2)
        for k in (1, 2):
            top = (2**61 - 1) // 6**k
            rows = np.zeros((2, ctx.size), dtype=np.int64)
            rows[1, 7] = -top
            want = one_table_sums(np.abs(rows), ctx, k).max(axis=-1).tolist()
            assert coset_maxima(rows, ctx, k).tolist() == want
            prof = flat_maximal(Density(ctx, num=rows[1], den=1), k)
            assert list(prof.values) == [Fraction(w, 6**k) for w in want[1]]
            if k == 1:
                f = Density(ctx, num=rows, den=[1, 1])
                assert xray_all(f)[0].tolist() == one_table_sums(rows, ctx, 1).tolist()
            rows[1, 7] = -top - 1
            with pytest.raises(OverflowError):
                coset_maxima(rows, ctx, k)
            with pytest.raises(OverflowError):
                flat_maximal(Density(ctx, num=rows[1], den=1), k)
            if k == 1:
                with pytest.raises(OverflowError):
                    xray_all(Density(ctx, num=rows, den=[1, 1]))

    @pytest.mark.parametrize("ctx", [RingContext.generic(6, 2), RingContext.padic(2, 1, 2),
                                     RingContext.padic(2, 3, 2), RingContext.profinite(3, 2)],
                             ids=lambda c: c.describe())
    def test_int32_lane_at_its_bound(self, monkeypatch, ctx):
        # max|row| * N**k just under 2**31 sums in int32, just over in int64;
        # both are the Python-int sums
        dtypes = []

        def spy(values, slabs, out, _real=tables.gather_sums):
            dtypes.append(values.dtype)
            _real(values, slabs, out)

        monkeypatch.setattr(tables, "gather_sums", spy)
        N = ctx.modulus
        for top, dtype in (((2**31 - 1) // N, np.int32), ((2**31 - 1) // N + 1, np.int64)):
            rows = np.full((2, ctx.size), top, dtype=np.int64)
            rows[1, ::2] = -top
            dtypes.clear()
            best = coset_maxima(rows, ctx, 1)
            nums = xray_all(Density(ctx, num=rows, den=[1, 1]))[0]
            assert set(dtypes) == {np.dtype(dtype)}
            assert best.dtype == nums.dtype == np.int64
            assert best.tolist() == one_table_sums(np.abs(rows), ctx, 1).max(axis=-1).tolist()
            assert nums.tolist() == one_table_sums(rows, ctx, 1).tolist()

    def test_every_level_goes_through_the_one_kernel(self, monkeypatch):
        # every level of the two-component towers of generic(12,3) (two
        # levels over 2**2, one over 3), for lines and planes, and every
        # radix level of both transforms is read by gather_sums, and every
        # call reads one of them; the towers and the forward passes in int32
        ctx = RingContext.generic(12, 3)
        calls = []

        def spy(values, slabs, out, _real=tables.gather_sums):
            calls.append((values.dtype, slabs))
            _real(values, slabs, out)

        monkeypatch.setattr(tables, "gather_sums", spy)
        rows = staged_rows(ctx, 3, 89)
        f = Density(ctx, num=rows, den=[1, 1, 1])
        for k in (1, 2):
            coset_maxima(rows, ctx, k)
        xray_all(f)
        towers = len(calls)
        harmonic.fourier_inverse(harmonic.fourier_forward(f))
        levels = [level for k in (1, 2) for tower in tables.coset_plan(ctx, k).towers
                  for level in tower] + [*harmonic._radix_levels(12, 1), *harmonic._radix_levels(12, -1)]
        assert len(levels) == 2 * 3 + 2 * 3
        for level in levels:
            assert any(np.may_share_memory(slabs, level) for _, slabs in calls)
        for _, slabs in calls:
            assert sum(np.may_share_memory(slabs, level) for level in levels) == 1
        forward = calls[towers:towers + 3 * ctx.dimension]
        assert {dtype for dtype, _ in calls[:towers] + forward} == {np.dtype(np.int32)}

    def test_composite_rings_never_build_the_whole_table(self, monkeypatch):
        ctx = RingContext.generic(12, 3)

        def refuse(c, k, _real=tables.coset_table):
            if c == ctx:
                raise AssertionError("the whole coset table was asked for")
            return _real(c, k)

        tables.coset_plan.cache_clear()
        monkeypatch.setattr(tables, "coset_table", refuse)
        rows = staged_rows(ctx, 3, 84)
        for k in (1, 2, 3):
            assert coset_maxima(rows, ctx, k).shape == (3, len(tables.flats(ctx, k)))
        assert xray_all(Density(ctx, num=rows, den=[1, 1, 1]))[0].shape == (
            3, len(tables.directions(ctx)), ctx.size // 12)
        # the profiles, one row with witnesses, read the whole table
        with pytest.raises(AssertionError):
            line_maximal(Density(ctx, num=rows[0], den=1))

    @pytest.mark.parametrize("ctx", TOWER_RINGS, ids=lambda c: c.describe())
    def test_tower_levels(self, ctx):
        # level j of component p**e holds the k-flats of (Z/p**(e-j))^n and
        # their cosets of p**j U, p**k sums below each, indexed in the
        # smallest dtype that holds the level below; a one-level tower is
        # the whole coset table of its component
        n = ctx.dimension
        for k in tower_ks(ctx):
            plan = tables.coset_plan(ctx, k)
            for tower, (p, e) in zip(plan.towers, ctx.factorization):
                below = p**(e * n)
                for m, level in enumerate(tower, start=1):
                    F, C = gr_size(p**m, n, k), p**(e * n - k * m)
                    assert level.shape == (p**k, F, C) and not level.flags.writeable
                    assert level.dtype == np.min_scalar_type(below - 1)
                    assert level.min() >= 0 and level.max() == below - 1
                    below = F * C
                if e == 1:
                    want = chart_rows(RingContext.generic(p, n), k)
                    assert np.array_equal(np.moveaxis(tower[0], 0, -1), want)
            if len(plan.towers) == 1:  # an intermediate level may hold more sums than points
                (tower,) = plan.towers
                assert plan.width == max([ctx.size] + [t[0].size for t in tower[:-1]])

    @pytest.mark.parametrize("ctx", TOWER_RINGS, ids=lambda c: c.describe())
    def test_tower_sums_in_rank_order(self, monkeypatch, ctx):
        # flat by flat and coset by coset, at 1, 2, 11, 12, 13 and 40 rows:
        # the staged sums are the whole table's Python-int sums
        rows = staged_rows(ctx, 40, 85)
        for k in tower_ks(ctx):
            want = one_table_sums(rows, ctx, k).tolist()
            for R in (1, 2, 11, 12, 13, 40):
                assert plan_sums(rows[:R], ctx, k).tolist() == want[:R]

    @pytest.mark.parametrize("ctx", TOWER_RINGS, ids=lambda c: c.describe())
    def test_tower_maxima_and_xrays_in_small_pieces(self, monkeypatch, ctx):
        # one flat per block, chunks of one row and of three
        rows = staged_rows(ctx, 13, 86)
        maxima = {k: one_table_sums(np.abs(rows), ctx, k).max(axis=-1).tolist()
                  for k in tower_ks(ctx)}
        xrays = one_table_sums(rows, ctx, 1).tolist()
        width = tables.coset_plan(ctx, 1).width
        for chunk_rows, block in itertools.product((1, 3), (1, 1 << 30)):
            monkeypatch.setattr(tables, "_CHUNK_BYTES", 4 * width * chunk_rows)
            monkeypatch.setattr(tables, "_GATHER_BYTES", block)
            for k, want in maxima.items():
                assert coset_maxima(rows, ctx, k).tolist() == want
            assert xray_all(Density(ctx, num=rows, den=[1] * 13))[0].tolist() == xrays

    @pytest.mark.parametrize("ctx", [RingContext.padic(2, 2, 2), RingContext.padic(3, 3, 2),
                                     RingContext.profinite(3, 2)], ids=lambda c: c.describe())
    def test_tower_index_pull_back(self, monkeypatch, ctx):
        # rows pulled back to M = p N through an index
        M = ctx.factorization[0][0] * ctx.modulus
        rows = staged_rows(ctx, 5, 87)
        mctx, index, gaps = induce_rows(rows, ctx, M)
        assert not gaps.any() and mctx.modulus == M
        for k in (1, 2):
            got = coset_maxima(rows, mctx, k, index=index).tolist()
            assert got == one_table_sums(np.abs(rows[:, index]), mctx, k).max(axis=-1).tolist()

    @pytest.mark.parametrize("ctx", [RingContext.padic(2, 3, 3), RingContext.padic(3, 2, 3),
                                     RingContext.padic(2, 4, 2)], ids=lambda c: c.describe())
    def test_prime_power_rings_never_build_the_whole_table(self, monkeypatch, ctx):
        # neither on the ring nor on its pull-back to p N
        N, n = ctx.modulus, ctx.dimension
        rows = staged_rows(ctx, 3, 88)
        mctx, index, _ = induce_rows(rows, ctx, ctx.factorization[0][0] * N)

        def refuse(c, k, _real=tables.coset_table):
            if c in (ctx, mctx):
                raise AssertionError("the whole coset table was asked for")
            return _real(c, k)

        tables.coset_plan.cache_clear()
        monkeypatch.setattr(tables, "coset_table", refuse)
        for k in range(1, n + 1):
            assert coset_maxima(rows, ctx, k).shape == (3, len(tables.flats(ctx, k)))
            assert coset_maxima(rows, mctx, k, index=index).shape == (3, len(tables.flats(mctx, k)))
        assert xray_all(Density(ctx, num=rows, den=[1, 1, 1]))[0].shape == (
            3, len(tables.directions(ctx)), ctx.size // N)
        with pytest.raises(AssertionError):
            line_maximal(Density(ctx, num=rows[0], den=1))

    def test_tower_memory_is_refused_before_any_level(self, monkeypatch, capsys):
        # the towers' bytes in all against physical memory: one byte short
        # raises TableMemoryError before a level is built, and the CLI exits 3
        ctx = RingContext.padic(2, 3, 3)
        tables.coset_plan.cache_clear()
        need = sum(level.nbytes for tower in tables.coset_plan(ctx, 1).towers for level in tower)
        built = []
        monkeypatch.setattr(tables, "_tower", lambda *a, _real=tables._tower: built.append(1) or _real(*a))
        monkeypatch.setattr(tables, "_physical_memory", lambda: need - 1)
        tables.coset_plan.cache_clear()
        with pytest.raises(tables.TableMemoryError) as err:
            tables.coset_plan(ctx, 1)
        assert err.value.estimate == need and not built
        argv = ["verify", "--mode", "padic", "-p", "2", "-l", "3", "-n", "3", "--trials", "1",
                "xray-l2"]
        assert main(argv) == 3
        assert "exceeds physical memory" in capsys.readouterr().err
        monkeypatch.setattr(tables, "_physical_memory", lambda: need)
        assert tables.coset_plan(ctx, 1).flat_shape == (len(tables.directions(ctx)),) and built
        tables.coset_plan.cache_clear()


class TestFStar:
    def test_scaling_identity(self):
        ctx = RingContext.generic(6, 2)
        f = random_density(ctx, seed=15, dist="uniform-rational")
        stars = f_star(f)
        lines = line_maximal(f)
        assert all(s == 6 * v for s, v in zip(stars.values, lines.values))


class TestMweight:
    def test_prime_power_is_max_fstar(self):
        ctx = RingContext.padic(3, 2, 2)
        f = random_density(ctx, seed=21, dist="sparse")
        assert mweight(f, 3) == max(f_star(f).values)

    def test_ones_mod6(self):
        ctx = RingContext.profinite(2, 2)
        assert mweight(Density.constant(ctx, 1), 2) == 2

    def test_single_point(self):
        ctx = RingContext.profinite(2, 2)
        point = Density.indicator(ctx, [(4, 1)])
        assert mweight(point, 2) == 1
        assert mweight(point, 3) == 1

    def test_partial_sums_oracle(self):
        # recompute the splitting by brute force for one composite modulus
        ctx = RingContext.generic(6, 2)
        f = random_density(ctx, seed=33, dist="sparse")
        got = mweight(f, 2)
        prof = line_maximal(f)
        best = 0
        for u, wit in zip(prof.keys, prof.witnesses):
            line = [tuple((w + t * c) % 6 for w, c in zip(wit, u.rep)) for t in range(6)]
            for z in line:
                total = sum(int(f.num[ctx.rank(x)]) for x in line
                            if all((xc - zc) % 3 == 0 for xc, zc in zip(x, z)))
                best = max(best, total)
        assert got == best

    @pytest.mark.parametrize("ctx", [RingContext.generic(6, 2), RingContext.generic(12, 2),
                                     RingContext.generic(30, 2), RingContext.generic(10, 3),
                                     RingContext.generic(12, 3), RingContext.profinite(2, 3)],
                             ids=lambda c: c.describe())
    def test_matches_line_oracle_for_every_prime(self, ctx):
        # the coset-table sub-line sums equal the point-by-point CRT lines
        rng = np.random.default_rng(ctx.modulus)
        densities = [random_density(ctx, seed=70, dist=dist, trial=t)
                     for t, dist in enumerate(("sparse", "sparse", "flat-supported", "ball"))]
        densities.append(Density.from_numden(ctx, rng.integers(0, 10, ctx.size), 1))
        for f in densities:
            for p, _ in ctx.factorization:
                assert mweight(f, p) == mweight_lines(f, p)

    def test_headroom(self):
        # a line sum of max f * N under 2**61 is exact, past it raises
        ctx = RingContext.generic(6, 2)
        num = np.zeros(ctx.size, dtype=np.int64)
        num[7] = (2**61 - 1) // 6
        assert mweight(Density.from_numden(ctx, num, 1), 2) == num[7]
        num[7] += 1
        with pytest.raises(OverflowError):
            mweight(Density.from_numden(ctx, num, 1), 2)

    def test_rejects_non_divisor(self):
        ctx = RingContext.padic(3, 1, 2)
        with pytest.raises(ValueError):
            mweight(Density.constant(ctx, 1), 2)
        # not a prime factor: 0 divided by zero and 1 and -1 never ended
        # the loop over the powers of p; 6 divides 12 but is no prime
        for p in (0, 1, -1):
            with pytest.raises(ValueError):
                mweight(Density.constant(ctx, 1), p)
        with pytest.raises(ValueError):
            mweight(Density.constant(RingContext.generic(12, 2), 1), 6)

    def test_rejects_fractional(self):
        ctx = RingContext.padic(2, 1, 2)
        with pytest.raises(ValueError):
            mweight(Density.constant(ctx, Fraction(1, 2)), 2)


class TestRounding:
    def test_zero(self):
        ctx = RingContext.padic(2, 2, 2)
        z = Density.constant(ctx, 0)
        assert rounding_g(z) == z

    def test_small_values_round_to_grid(self):
        ctx = RingContext.padic(2, 2, 2)
        f = Density.constant(ctx, Fraction(1, 12))  # 1/(3N)
        assert set(rounding_g(f).values()) == {Fraction(1, 4)}

    def test_rejects_out_of_range(self):
        ctx = RingContext.padic(2, 1, 2)
        with pytest.raises(ValueError):
            rounding_g(Density.constant(ctx, 2))

    def test_past_int64_headroom(self):
        # den * N past 2**61: the rounding runs over Python ints
        ctx = RingContext.padic(2, 1, 2)
        den = 2**61 - 1
        f = Density.from_numden(ctx, [0, 1, den // 2, den], den)
        want = tuple(Fraction(math.ceil(2 * v), 2) for v in f.values())
        assert rounding_g(f).values() == want

    def test_mass_bound(self):
        from kakeyalab.verify import _unit_box_density

        for t in range(50):
            for ctx in (RingContext.padic(2, 2, 2), RingContext.padic(3, 1, 3)):
                n = ctx.dimension
                f = _unit_box_density(ctx, seed=t, trial=t)
                g = rounding_g(f)
                assert all(gv >= fv for gv, fv in zip(g.values(), f.values()))
                assert all(0 <= v * ctx.modulus <= ctx.modulus for v in g.values())
                assert g.power_mean(n) <= (2**n + 1) * f.power_mean(n)


class TestConstants:
    def test_maxN_prime_reading(self):
        ctx = RingContext.padic(3, 1, 2)
        f = Density.indicator(ctx, [(0, 0), (1, 0), (2, 0)])
        mw = mweight(f, 3)
        expected = Fraction(1, 1) / (2 * (Fraction(math.log(mw)) + 1)
                                     * math.ceil(math.log(mw * 2, 3))) ** 2
        assert maxN_constant(f, ctx) == expected

    def test_maxN_mweight_one_simplification(self):
        ctx = RingContext.padic(2, 2, 3)
        f = Density.indicator(ctx, [(0, 0, 0)])
        assert mweight(f, 2) == 1
        assert maxN_constant(f, ctx) == Fraction(1, (2 * math.ceil(math.log2(3))) ** 3)

    def test_maxN_composite_recomputation(self):
        # independent symbolic recomputation of the constant product at N = 12
        ctx = RingContext.generic(12, 2)
        f = random_density(ctx, seed=55, dist="sparse")
        mw = mweight(f, 2)
        n = 2
        first = (Fraction(1) / (2 * (Fraction(math.log(mw)) + 1)
                                * max(1, math.ceil(round(math.log(mw * n, 2), 12))))) ** n
        last = Fraction(1, 2 * (1 + 1)) ** n  # p_r = 3, k_r = 1, ceil(log_3 2) = 1
        assert maxN_constant(f, ctx) == first * last

    def test_appendix_value_n2(self):
        # frozen regression of the N=2, n=2 display evaluation
        c = appendix_constant(2, 2)
        hand = (Fraction(1) / (2 * (2 * Fraction(math.log(2)) + 1) * 4)) ** 2 * Fraction(1, 16) / 5
        assert c == hand
        assert abs(float(c) - 3.4299043502097207e-05) < 1e-18

    def test_appendix_monotone_in_n(self):
        for N in range(2, 13):
            values = [appendix_constant(N, n) for n in range(2, 6)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_appendix_positive(self):
        for N in list(range(2, 200)) + [720, 2310, 9973, 10000]:
            assert appendix_constant(N, 3) > 0

    def test_chain_depth_one(self):
        ctx = RingContext.padic(2, 3, 3)
        ch = chain_constant(ctx, 1)
        assert ch.terms[0] == pytest.approx(float(appendix_constant(2, 2)) ** -0.5)

    def test_chain_padic2_regression(self):
        # frozen after first computation; terms i = 0..6
        ch = chain_constant(RingContext.padic(2, 3, 3), 7)
        expected = [170.74932498523222, 397.62031779777055, 683.5137677760769,
                    958.1158718293049, 1182.2188740348454, 1336.7016762273608,
                    1418.2086749525367]
        assert list(ch.terms) == pytest.approx(expected, rel=1e-12)

    def test_chain_terms_eventually_decrease(self):
        ch = chain_constant(RingContext.padic(2, 3, 3), 40)
        assert ch.terms[35] < ch.terms[30] < ch.terms[25]

    def test_chain_partial_sums_monotone(self):
        for ctx in (RingContext.padic(2, 3, 3), RingContext.profinite(2, 3)):
            ch = chain_constant(ctx, 8)
            assert all(a <= b for a, b in zip(ch.partial_sums, ch.partial_sums[1:]))
            assert ch.effective == Fraction(1) / Fraction(ch.sum_raised)


class TestProjmaxIdentity:
    def test_band_zero_both_sides_are_mean(self):
        # constant band: every plane value and line value equals the integral
        from kakeyalab.harmonic import band_project

        ctx = RingContext.padic(2, 2, 3)
        f = random_density(ctx, seed=71, dist="uniform-rational")
        g = band_project(f, 0)
        u = canonical_direction((1, 0, 0), ctx)
        result = projmax_identity_check(g, u)
        assert result["equal"]
        assert all(row["plane_value"] == f.integral() for row in result["entries"])

    def test_exact_all_directions_mod4(self):
        from kakeyalab.harmonic import band_project

        ctx = RingContext.padic(2, 2, 3)
        f = random_density(ctx, seed=72, dist="uniform-rational")
        g = band_project(f, 1)
        u = canonical_direction((1, 0, 0), ctx)
        result = projmax_identity_check(g, u)
        assert result["equal"] and len(result["entries"]) == 6

    def test_float_lane_mod9(self):
        # float-lane agreement at (Z/9)^3 within 1e-9
        from kakeyalab.harmonic import band_project

        ctx = RingContext.padic(3, 2, 3)
        for t in range(5):
            f = random_density(ctx, seed=900 + t, dist="uniform-rational").to_float()
            g = band_project(f, 1 + t % 2)
            u = canonical_direction((1, t % 3, 1), ctx)
            result = projmax_identity_check(g, u)
            assert result["worst_discrepancy"] < 1e-9


class TestIntegerMaximalBound:
    """The integer-density maximal bound with its explicit constant."""

    @pytest.mark.parametrize("ctx", [RingContext.padic(2, 2, 2), RingContext.generic(6, 2),
                                     RingContext.generic(12, 2), RingContext.padic(2, 1, 3)],
                             ids=lambda c: c.describe())
    def test_inequality_on_integer_densities(self, ctx):
        n = ctx.dimension
        for t in range(12):
            f = random_density(ctx, seed=800 + t, dist="sparse")
            assert f.den == 1
            c = maxN_constant(f, ctx)
            lhs = sum(int(v) ** n for v in f.num)
            stars = f_star(f)
            rhs = c * Fraction(sum(s**n for s in stars.values), len(stars.values))
            assert lhs >= rhs
