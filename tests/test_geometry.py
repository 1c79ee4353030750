import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeyalab.geometry import (EnumerationCapError, Flat, canonical_direction,
                                canonical_flat, enumerate_grassmannian,
                                enumerate_proj, flat_points, gr_size,
                                lift_direction, line_crt_decompose, proj_size,
                                quotient_chart)
from kakeyalab.ring import RingContext, factorize


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

    def test_cap_refused_with_estimate(self):
        ctx = RingContext.generic(30, 4, cap=1000)
        with pytest.raises(EnumerationCapError) as err:
            enumerate_proj(ctx)
        assert err.value.estimate == proj_size(30, 4)


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

    def test_canonical_flat_is_stable(self):
        ctx = RingContext.generic(6, 3)
        import random

        rng = random.Random(5)
        for F in enumerate_grassmannian(ctx, 2):
            # replace generators by random invertible combinations
            for _ in range(3):
                a, b, c, d = (rng.randrange(6) for _ in range(4))
                if math.gcd((a * d - b * c) % 6, 6) != 1:
                    continue
                g1 = tuple((a * x + b * y) % 6 for x, y in zip(*F.generators))
                g2 = tuple((c * x + d * y) % 6 for x, y in zip(*F.generators))
                assert canonical_flat([g1, g2], ctx) == F


class TestFlatPoints:
    def test_axis_line(self):
        ctx = RingContext.padic(3, 1, 2)
        F = canonical_flat([(1, 0)], ctx)
        assert flat_points(F) == {(0, 0), (1, 0), (2, 0)}

    def test_plane_mod2(self):
        ctx = RingContext.padic(2, 1, 3)
        F = canonical_flat([(1, 0, 0), (0, 1, 0)], ctx)
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
    def test_axis_chart(self):
        ctx = RingContext.padic(3, 1, 2)
        u = canonical_direction((1, 0), ctx)
        chart = quotient_chart(u, ctx)
        for x in ctx.points():
            assert chart.forward(x) == (x[1],)

    def test_mixed_component_chart_mod6(self):
        ctx = RingContext.generic(6, 2)
        u = canonical_direction((2, 3), ctx)
        chart = quotient_chart(u, ctx)
        fiber = [x for x in ctx.points() if chart.forward(x) == chart.forward((0, 0))]
        line = sorted({tuple(t * c % 6 for c in u.rep) for t in range(6)})
        assert sorted(fiber) == line
        assert len(fiber) == 6

    def test_fibers_are_cosets(self):
        for N, n in ((4, 2), (6, 3), (5, 3)):
            ctx = RingContext.generic(N, n)
            for u in enumerate_proj(ctx)[:6]:
                chart = quotient_chart(u, ctx)
                line = {tuple(t * c % N for c in u.rep) for t in range(N)}
                for x in list(ctx.points())[:: max(1, ctx.size // 20)]:
                    fx = chart.forward(x)
                    for y in ctx.points():
                        same = chart.forward(y) == fx
                        in_coset = tuple((a - b) % N for a, b in zip(x, y)) in line
                        assert same == in_coset

    def test_section_is_right_inverse(self):
        ctx = RingContext.generic(5, 3)
        u = canonical_direction((1, 2, 0), ctx)
        chart = quotient_chart(u, ctx)
        qctx = ctx.quotient()
        for y in qctx.points():
            assert chart.forward(chart.section(y)) == y

    def test_pivot_rule_variants_agree_on_fibers(self):
        ctx = RingContext.generic(6, 3)
        u = canonical_direction((2, 3, 1), ctx)
        first = quotient_chart(u, ctx, "first")
        last = quotient_chart(u, ctx, "last")
        for x in list(ctx.points())[::7]:
            for y in list(ctx.points())[::5]:
                assert (first.forward(x) == first.forward(y)) == (last.forward(x) == last.forward(y))


class TestLiftDirection:
    def test_plane_example(self):
        ctx = RingContext.padic(2, 1, 3)
        u = canonical_direction((1, 0, 0), ctx)
        w = canonical_direction((1, 0), ctx.quotient())
        U = lift_direction(u, w, ctx)
        assert flat_points(U) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)}

    def test_bijection_onto_flats_containing_u(self):
        ctx = RingContext.padic(3, 1, 3)
        u = canonical_direction((1, 1, 2), ctx)
        qctx = ctx.quotient()
        images = [lift_direction(u, w, ctx) for w in enumerate_proj(qctx)]
        assert len(set(images)) == len(images) == 4
        containing = [F for F in enumerate_grassmannian(ctx, 2)
                      if u.rep in flat_points(F)]
        assert set(images) == set(containing)

    def test_images_contain_u(self):
        ctx = RingContext.generic(4, 3)
        u = canonical_direction((0, 1, 0), ctx)
        for w in enumerate_proj(ctx.quotient()):
            assert u.rep in flat_points(lift_direction(u, w, ctx))

    def test_rejects_bad_quotient_direction(self):
        ctx = RingContext.padic(2, 2, 3)
        u = canonical_direction((1, 0, 0), ctx)
        from kakeyalab.geometry import ProjDirection

        with pytest.raises(ValueError):
            lift_direction(u, ProjDirection(4, (2, 2)), ctx)

    @pytest.mark.parametrize("ctx", [RingContext.padic(2, 2, 3), RingContext.padic(2, 3, 3),
                                     RingContext.padic(3, 2, 3), RingContext.generic(6, 3),
                                     RingContext.profinite(2, 3), RingContext.padic(2, 1, 4),
                                     RingContext.generic(12, 2), RingContext.padic(3, 1, 2)],
                             ids=lambda c: c.describe())
    def test_lift_map_matches_lift_direction(self, ctx):
        # the coset-table lift map against one lift_direction per (u, w) pair
        from kakeyalab import tables

        qctx = ctx.quotient()
        flat_index = {F: i for i, F in enumerate(tables.flats(ctx, 2))}
        expected = {(ui, wi): flat_index[lift_direction(u, w, ctx)]
                    for ui, u in enumerate(tables.directions(ctx))
                    for wi, w in enumerate(tables.directions(qctx))}
        lift = tables.lift_map(ctx)
        assert lift == expected and list(lift) == list(expected)


class TestLineCrtDecompose:
    def test_diagonal_mod6(self):
        ctx = RingContext.generic(6, 2)
        L = canonical_flat([(1, 1)], ctx)
        Lp, L0 = line_crt_decompose(L, 2)
        assert flat_points(Lp) == {(0, 0), (1, 1)}
        assert flat_points(L0) == {(0, 0), (1, 1), (2, 2)}

    def test_component_directions_mod6(self):
        ctx = RingContext.generic(6, 2)
        L = canonical_flat([(2, 3)], ctx)
        Lp, L0 = line_crt_decompose(L, 2)
        assert Lp.generators == ((0, 1),)
        assert L0.generators == ((1, 0),)

    def test_point_set_is_crt_product(self):
        import random

        from kakeyalab.ring import crt_combine_scalar

        rng = random.Random(3)
        ctx = RingContext.generic(12, 2)
        for _ in range(10):
            while True:
                try:
                    d = canonical_direction((rng.randrange(12), rng.randrange(12)), ctx)
                    break
                except ValueError:
                    continue
            L = canonical_flat([d.rep], ctx, basepoint=(1, 2))
            Lp, L0 = line_crt_decompose(L, 2)
            product = {tuple(crt_combine_scalar((a, b), 12) for a, b in zip(xp, x0))
                       for xp in flat_points(Lp) for x0 in flat_points(L0)}
            assert product == flat_points(L)
            assert len(product) == 12
