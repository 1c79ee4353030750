import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeyalab import tables
from kakeyalab.geometry import (EnumerationCapError, Flat, canonical_direction,
                                enumerate_grassmannian, enumerate_proj, gr_size, proj_size)
from kakeyalab.ring import RingContext, factorize
from oracles import (chart_rows, enumerate_grassmannian_per_coordinate,
                     enumerate_proj_per_coordinate, flat_points, lift_map_gather, lift_points)


def brute_force_directions(N, n):
    """Oracle: nonzero-class vectors grouped by unit-scalar orbits."""
    units = [u for u in range(N) if math.gcd(u, N) == 1]
    valid = []
    for v in itertools.product(range(N), repeat=n):
        g = 0
        for c in v:
            g = math.gcd(g, c)
        if math.gcd(g, N) == 1:
            valid.append(v)
    classes = set()
    for v in valid:
        orbit = frozenset(tuple(u * c % N for c in v) for u in units)
        classes.add(orbit)
    return classes


class TestProjEnumeration:
    def test_mod2_example(self):
        ctx = RingContext.padic(2, 1, 2)
        reps = {d.rep for d in enumerate_proj(ctx)}
        assert reps == {(1, 0), (1, 1), (0, 1)}

    def test_mod4_example(self):
        ctx = RingContext.padic(2, 2, 2)
        dirs = enumerate_proj(ctx)
        assert len(dirs) == 6
        assert {d.rep for d in dirs} == {(1, 0), (1, 1), (1, 2), (1, 3), (0, 1), (2, 1)}

    def test_degenerate_ring(self):
        ctx = RingContext.generic(1, 2)
        assert len(enumerate_proj(ctx)) == 1

    def test_matches_orbit_oracle(self):
        for N in (2, 3, 4, 6, 9):
            for n in (2, 3):
                ctx = RingContext.generic(N, n)
                dirs = enumerate_proj(ctx)
                orbits = brute_force_directions(N, n)
                assert len(dirs) == len(orbits)
                for d in dirs:
                    assert any(d.rep in orbit for orbit in orbits)

    def test_cap_refused_with_estimate(self, monkeypatch, capsys):
        # memory one byte short of the 93,600 directions of generic(30,4):
        # the count comes from proj_size, so nothing is enumerated
        from kakeyalab.cli import main

        ctx = RingContext.generic(30, 4)
        need = tables._GENERATOR_BYTES * proj_size(30, 4)
        monkeypatch.setattr(tables, "_physical_memory", lambda: need - 1)
        started = time.perf_counter()
        with pytest.raises(tables.TableMemoryError) as err:
            tables.directions.__wrapped__(ctx)
        assert err.value.estimate == need and isinstance(err.value, EnumerationCapError)
        with pytest.raises(tables.TableMemoryError) as err:
            tables.flats.__wrapped__(ctx, 2)
        assert err.value.estimate == tables._GENERATOR_BYTES * 2 * gr_size(30, 4, 2)
        assert main(["verify", "radiusN", "--mode", "generic", "-N", "30", "-n", "4"]) == 3
        assert time.perf_counter() - started < 1.0
        assert capsys.readouterr().err.startswith("error: table of ")


class TestProjSize:
    def test_examples(self):
        assert proj_size(6, 2) == 12
        assert proj_size(9, 2) == 12  # (81 - 9) / (9 - 3)
        assert proj_size(6, 3) == 91  # 7 * 13

    def test_m_one(self):
        for N in (1, 2, 6, 12):
            assert proj_size(N, 1) == 1

    def test_counts_match_enumeration(self):
        for N in range(1, 16):
            for n in (2, 3):
                ctx = RingContext.generic(N, n)
                assert len(enumerate_proj(ctx)) == proj_size(N, n)

    def test_ratio_bound(self):
        for N in range(2, 101):
            for n in range(2, 6):
                assert proj_size(N, n - 1) * N <= proj_size(N, n)


class TestCanonicalDirection:
    def test_unit_scaling_invariance(self):
        ctx = RingContext.generic(12, 3)
        units = [u for u in range(12) if math.gcd(u, 12) == 1]
        v = (2, 3, 5)
        base = canonical_direction(v, ctx)
        for u in units:
            scaled = tuple(u * c % 12 for c in v)
            assert canonical_direction(scaled, ctx) == base

    def test_rejects_non_direction(self):
        ctx = RingContext.generic(6, 2)
        with pytest.raises(ValueError):
            canonical_direction((2, 4), ctx)  # all even: no unit mod 2
        for u in ((1,), (1, 2, 3)):
            with pytest.raises(ValueError, match=f"has {len(u)} coordinates, need 2"):
                canonical_direction(u, ctx)

    @given(st.sampled_from([2, 3, 4, 6, 9, 12]), st.integers(0, 11), st.integers(0, 11))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, N, a, b):
        ctx = RingContext.generic(N, 2)
        try:
            d = canonical_direction((a, b), ctx)
        except ValueError:
            return
        assert canonical_direction(d.rep, ctx) == d


class TestGrassmannian:
    def test_small_counts(self):
        assert len(enumerate_grassmannian(RingContext.padic(2, 1, 3), 2)) == 7
        assert len(enumerate_grassmannian(RingContext.padic(3, 1, 2), 2)) == 1

    def test_k1_agrees_with_proj(self):
        ctx = RingContext.padic(2, 2, 2)
        flats = enumerate_grassmannian(ctx, 1)
        dirs = enumerate_proj(ctx)
        assert len(flats) == 6 == len(dirs)
        assert {f.generators[0] for f in flats} == {d.rep for d in dirs}

    def test_crt_product_law(self):
        for N in (6, 12, 18):
            for n in (2, 3):
                for k in range(1, n + 1):
                    expected = 1
                    for p, r in factorize(N):
                        expected *= gr_size(p**r, n, k)
                    assert gr_size(N, n, k) == expected
                    ctx = RingContext.generic(N, n)
                    assert len(enumerate_grassmannian(ctx, k)) == gr_size(N, n, k)

    def test_distinct_submodules(self):
        ctx = RingContext.generic(6, 3)
        flats = enumerate_grassmannian(ctx, 2)
        point_sets = {flat_points(F) for F in flats}
        assert len(point_sets) == len(flats)


class TestCombinedEnumeration:
    """The CRT components combined by one array product, against the
    per-coordinate combination."""

    @pytest.mark.parametrize("ctx", [RingContext.padic(2, 3, 3), RingContext.generic(12, 3),
                                     RingContext.generic(30, 2), RingContext.profinite(3, 2)],
                             ids=lambda c: c.describe())
    def test_equals_per_coordinate_oracle(self, ctx):
        dirs = enumerate_proj(ctx)
        assert dirs == enumerate_proj_per_coordinate(ctx)
        assert all(type(c) is int for d in dirs for c in d.rep)
        for k in range(1, ctx.dimension + 1):
            got = enumerate_grassmannian(ctx, k)
            assert got == enumerate_grassmannian_per_coordinate(ctx, k)
            assert all(type(c) is int for f in got for g in f.generators for c in g)


class TestFlatPoints:
    def test_axis_line(self):
        ctx = RingContext.padic(3, 1, 2)
        F = Flat(3, 1, ((1, 0),), (0, 0))
        assert flat_points(F) == {(0, 0), (1, 0), (2, 0)}

    def test_plane_mod2(self):
        ctx = RingContext.padic(2, 1, 3)
        F = Flat(2, 2, ((1, 0, 0), (0, 1, 0)), (0, 0, 0))
        assert flat_points(F) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)}

    def test_cardinality(self):
        import random

        rng = random.Random(11)
        for N in (4, 6):
            for k in (1, 2):
                ctx = RingContext.generic(N, 3)
                flats = enumerate_grassmannian(ctx, k)
                for F in rng.sample(flats, min(25, len(flats))):
                    shift = tuple(rng.randrange(N) for _ in range(3))
                    G = Flat(N, k, F.generators, shift)
                    assert len(flat_points(G)) == N**k


class TestQuotient:
    """The chart rows of a direction u (tables.coset_rows) are the quotient
    chart of u: row y lists the points over y in Q_u = (Z/NZ)^n / <u>."""

    @staticmethod
    def fiber_of(ctx, ui):
        table = chart_rows(ctx, 1)[ui]
        fiber = np.empty(ctx.size, dtype=np.int64)
        fiber[table] = np.arange(len(table))[:, None]
        return fiber

    def test_axis_chart(self):
        ctx = RingContext.padic(3, 1, 2)
        ui = tables.directions(ctx).index(canonical_direction((1, 0), ctx))
        fiber = self.fiber_of(ctx, ui)
        for x in ctx.points():
            assert fiber[ctx.rank(x)] == x[1]

    def test_mixed_component_chart_mod6(self):
        # (2, 3) has no coordinate that is a unit mod 6
        ctx = RingContext.generic(6, 2)
        u = canonical_direction((2, 3), ctx)
        fiber = self.fiber_of(ctx, tables.directions(ctx).index(u))
        row = [x for x in ctx.points() if fiber[ctx.rank(x)] == fiber[0]]
        line = sorted({tuple(t * c % 6 for c in u.rep) for t in range(6)})
        assert sorted(row) == line
        assert len(row) == 6

    def test_fibers_are_cosets(self):
        for N, n in ((4, 2), (6, 3), (5, 3)):
            ctx = RingContext.generic(N, n)
            points = list(ctx.points())
            for ui, u in enumerate(tables.directions(ctx)[:6]):
                fiber = self.fiber_of(ctx, ui)
                line = {tuple(t * c % N for c in u.rep) for t in range(N)}
                for x in points[:: max(1, ctx.size // 20)]:
                    for y in points:
                        same = fiber[ctx.rank(x)] == fiber[ctx.rank(y)]
                        in_coset = tuple((a - b) % N for a, b in zip(x, y)) in line
                        assert same == in_coset


class TestLiftMap:
    def test_plane_example(self):
        ctx = RingContext.padic(2, 1, 3)
        ui = tables.directions(ctx).index(canonical_direction((1, 0, 0), ctx))
        wi = tables.directions(ctx.quotient()).index(canonical_direction((1, 0), ctx.quotient()))
        U = tables.flats(ctx, 2)[tables.lift_map(ctx)[ui, wi]]
        assert flat_points(U) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)}

    @staticmethod
    def refused(*args):
        raise AssertionError("lift_map called a refused table function")

    def refuse_whole_tables(self, monkeypatch):
        monkeypatch.setattr(tables, "coset_table", self.refused)
        monkeypatch.setattr(tables, "coset_plan", self.refused)

    def test_reads_no_coset_table_or_plan(self, monkeypatch):
        # the lifts are solved from the chart: with the whole tables and the
        # towers refused, lift_map still returns the gather's map
        ctx = RingContext.padic(2, 2, 4)
        expected = lift_map_gather(ctx)
        self.refuse_whole_tables(monkeypatch)
        assert np.array_equal(tables.lift_map.__wrapped__(ctx), expected)

    def test_refuses_only_its_own_map_past_memory(self, monkeypatch):
        # on padic(2,2,3) the (P, Pq, N*N) gather and its sorted copy took
        # 10,752 B, the (28, 6) int64 map takes 1,344 B: with 4,096 B of
        # memory lift_map returns, and one byte short of its map it
        # refuses before any flat is enumerated
        ctx = RingContext.padic(2, 2, 3)
        expected = lift_map_gather(ctx)
        self.refuse_whole_tables(monkeypatch)
        monkeypatch.setattr(tables, "_physical_memory", lambda: 4096)
        assert np.array_equal(tables.lift_map.__wrapped__(ctx), expected)
        monkeypatch.setattr(tables, "_physical_memory", lambda: 1343)
        monkeypatch.setattr(tables, "_generators", self.refused)
        with pytest.raises(tables.TableMemoryError) as err:
            tables.lift_map.__wrapped__(ctx)
        assert err.value.estimate == 8 * 28 * 6

    def test_refuses_codes_past_intp(self, capsys):
        # the four base-N digits of a 2-flat of (Z/65537)^2 pass 2**63:
        # OverflowError before any flat is enumerated, and the CLI exits 3
        from kakeyalab.cli import main

        with pytest.raises(OverflowError):
            tables.lift_map.__wrapped__(RingContext.padic(65537, 1, 2))
        assert main(["verify", "--mode", "padic", "-p", "65537", "-l", "1", "-n", "2",
                     "projmax"]) == 3
        assert "exceed intp" in capsys.readouterr().err

    @pytest.mark.parametrize("block", [None, 64], ids=["default-block", "block-64"])
    @pytest.mark.parametrize("ctx", [RingContext.padic(5, 2, 3), RingContext.profinite(3, 3),
                                     RingContext.padic(2, 2, 4), RingContext.generic(12, 3),
                                     RingContext.generic(30, 2)], ids=lambda c: c.describe())
    def test_matches_the_gather_oracle(self, ctx, block, monkeypatch):
        # the closed-form lifts against the rank-set matching of the line
        # and plane tables, whole and a few directions per block
        expected = lift_map_gather(ctx)
        if block is not None:
            monkeypatch.setattr(tables, "_BLOCK_BYTES", block)
        lift = tables.lift_map.__wrapped__(ctx)
        assert lift.dtype == np.int64 and not lift.flags.writeable
        assert np.array_equal(lift, expected)

    @pytest.mark.parametrize("ctx", [RingContext.padic(3, 1, 3), RingContext.generic(4, 3),
                                     RingContext.generic(6, 3)], ids=lambda c: c.describe())
    def test_bijection_onto_flats_containing_u(self, ctx):
        # each row of the lift map lists every 2-flat containing u, once
        lift = tables.lift_map(ctx)
        planes = [flat_points(F) for F in tables.flats(ctx, 2)]
        for u, row in zip(tables.directions(ctx), lift.tolist()):
            assert len(set(row)) == len(row)
            assert set(row) == {i for i, pts in enumerate(planes) if u.rep in pts}

    @pytest.mark.parametrize("ctx", [RingContext.padic(2, 2, 3), RingContext.padic(2, 3, 3),
                                     RingContext.padic(3, 2, 3), RingContext.generic(6, 3),
                                     RingContext.profinite(2, 3), RingContext.padic(2, 1, 4),
                                     RingContext.generic(12, 2), RingContext.padic(3, 1, 2)],
                             ids=lambda c: c.describe())
    def test_lift_map_matches_span_oracle(self, ctx):
        # the coset-table lift map against the span {t u + s section(w)} per (u, w) pair
        qdirs = tables.directions(ctx.quotient())
        planes = [flat_points(F) for F in tables.flats(ctx, 2)]
        lift = tables.lift_map(ctx)
        assert lift.shape == (len(tables.directions(ctx)), len(qdirs)) and lift.dtype == np.int64
        for u, row in zip(tables.directions(ctx), lift.tolist()):
            assert [planes[i] for i in row] == [lift_points(u, w, ctx) for w in qdirs]
