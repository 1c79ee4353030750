import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeyalab import tables
from kakeyalab.geometry import canonical_direction, flat_points
from kakeyalab.harmonic import Density, induce_rows
import kakeyalab.maximal as maximal
from kakeyalab.maximal import (appendix_constant, chain_constant, coset_maxima,
                               f_star, flat_maximal, line_maximal, maxN_constant,
                               mweight, rounding_g)
from kakeyalab.ring import RingContext
from kakeyalab.verify import DISTRIBUTIONS, random_density
from oracles import projmax_identity_check


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
            f = random_density(ctx, seed=1100 + t, dist=DISTRIBUTIONS[t], lane="float", trial=t)
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
        assert table.nbytes == 4 * F * ctx.size
        plane = tables.flats(ctx, 2)[5]
        shifted = [tuple((a + 1) % 16 for a in p) for p in flat_points(plane)]
        prof = flat_maximal(Density.indicator(ctx, shifted), 2)
        assert prof.value(plane) == 1 and prof.witness(plane) == min(shifted)
        assert sum(v == 1 for v in prof.values) == 1


class TestCosetMaxima:
    """The point-major kernel against Python-int coset sums."""

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7, 8, 100])
    def test_chunk_boundaries(self, monkeypatch, chunk_rows):
        # 7 rows split into chunks of every size, including ragged last
        # chunks of one row (one gather per block) and wider ones, where
        # each row's N**k coset points are added one slab at a time; the
        # flats go one per block, in ragged blocks, or all in one block
        ctx = RingContext.generic(6, 2)
        rows = np.stack([random_density(ctx, seed=40 + r, dist=DISTRIBUTIONS[r % 4], trial=r).num
                         * (r + 1) for r in range(7)])
        monkeypatch.setattr(maximal, "_CHUNK_BYTES", 8 * ctx.size * chunk_rows)
        for block_bytes, k in itertools.product((1, 3000, 1 << 30), (1, 2)):
            monkeypatch.setattr(maximal, "_BLOCK_BYTES", block_bytes)
            npts = ctx.modulus**k
            sets = line_point_sets(ctx) if k == 1 else [flat_points(F) for F in tables.flats(ctx, k)]
            best, least = coset_maxima(rows, ctx, k, witnesses=True)
            assert best.dtype == np.int64 and best.shape == (7, len(sets))
            assert np.array_equal(best, coset_maxima(rows, ctx, k))
            fbest = coset_maxima(rows / 7, ctx, k)
            for r, row in enumerate(rows):
                values, wits = brute_profile(Density.from_numden(ctx, row, 1), sets, k)
                assert [Fraction(int(b), npts) for b in best[r]] == values
                assert [ctx.unrank(int(w)) for w in least[r]] == wits
                fvalues, _ = brute_profile(Density.from_float(ctx, row / 7), sets, k)
                assert np.abs(fbest[r] / npts - np.array(fvalues)).max() < 1e-12

    def test_index_reads_pulled_back_rows(self, monkeypatch):
        # rows read through a pull-back index equal the built induced stack
        ctx = RingContext.padic(2, 2, 2)
        rows = np.stack([random_density(ctx, seed=60 + r, dist=DISTRIBUTIONS[r % 4], trial=r).num
                         for r in range(5)])
        mctx, index, gaps = induce_rows(rows, ctx, 8)
        assert not gaps.any() and mctx.modulus == 8
        for chunk_rows in (1, 2, 5):
            monkeypatch.setattr(maximal, "_CHUNK_BYTES", 8 * mctx.size * chunk_rows)
            for k in (1, 2):
                got = coset_maxima(rows, mctx, k, witnesses=True, index=index)
                want = coset_maxima(rows[:, index], mctx, k, witnesses=True)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_peak_memory_is_bounded_by_the_budgets(self, monkeypatch):
        # a tall stack is summed a chunk and a block at a time: the peak
        # stays within a small multiple of the budgets plus the outputs,
        # far below the whole stack's (R, F, size // N, N) gather
        ctx = RingContext.padic(3, 3, 2)
        rows = np.random.default_rng(8).integers(-(2**20), 2**20, (117, ctx.size))
        table, _ = tables.coset_table(ctx, 1)
        monkeypatch.setattr(maximal, "_CHUNK_BYTES", 1 << 16)
        monkeypatch.setattr(maximal, "_BLOCK_BYTES", 1 << 14)
        for stack in (rows, rows[:1]):
            coset_maxima(stack, ctx, 1, witnesses=True)  # warm any lazy state
            tracemalloc.start()
            try:
                best, least = coset_maxima(stack, ctx, 1, witnesses=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * ((1 << 16) + (1 << 14)) + best.nbytes + least.nbytes
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

    def test_rejects_non_divisor(self):
        ctx = RingContext.padic(3, 1, 2)
        with pytest.raises(ValueError):
            mweight(Density.constant(ctx, 1), 2)

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
            f = random_density(ctx, seed=900 + t, dist="uniform-rational", lane="float")
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
