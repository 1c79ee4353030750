import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kakeyalab import harmonic, tables
from kakeyalab.geometry import canonical_direction, enumerate_proj, proj_size
from kakeyalab.harmonic import (ConstancyError, Density, Spectrum, _passes_exact, _sum_dtype,
                                _band_project_spectral, _lowest_terms, _radix_levels, band_constant,
                                band_project, band_valuation_sets, fourier_forward,
                                fourier_inverse, induce_rows, induce_to_modulus, power_sum,
                                xray_all, xray_l2_spectral, xray_transform)
from kakeyalab.ring import RingContext, ScaleSemantics
from kakeyalab.verify import DISTRIBUTIONS, corpus_rings, random_density
from oracles import (axis_pass_gather, band_project_naive, chart_rows, chart_section, coefficient,
                     correlations_roll, fourier_forward_naive, lowest_terms_full, masses_dense,
                     orthogonal_fraction, orthogonality_mask, pass_index, uperp_sum,
                     uperp_sum_spatial, xray_all_gather, xray_l2_spatial)

RINGS_SMALL = [
    RingContext.padic(2, 2, 2),
    RingContext.profinite(2, 2),
    RingContext.padic(3, 2, 2),
    RingContext.padic(2, 2, 3),
]


class TestFourier:
    def test_constant_transforms_to_delta(self):
        ctx = RingContext.generic(6, 2)
        s = fourier_forward(Density.constant(ctx, 1))
        assert coefficient(s, (0, 0)).rational_value() == 1
        for a in [(1, 0), (3, 2), (5, 5)]:
            assert coefficient(s, a).is_zero()

    def test_delta_transforms_to_constant(self):
        ctx = RingContext.padic(3, 1, 2)
        s = fourier_forward(Density.indicator(ctx, [(0, 0)]))
        for a in ctx.points():
            assert coefficient(s, a).rational_value() == Fraction(1, 9)

    @pytest.mark.parametrize("ctx", RINGS_SMALL, ids=lambda c: c.describe())
    def test_round_trip_exact(self, ctx):
        for t in range(8):
            f = random_density(ctx, seed=100 + t, dist="uniform-rational")
            assert fourier_inverse(fourier_forward(f)) == f

    def test_fast_path_matches_naive_oracle(self):
        # every coefficient in both lanes; unlike a round trip or Plancherel,
        # this also tells the transform apart from its conjugate
        for ctx in (RingContext.generic(6, 2), RingContext.padic(2, 2, 2),
                    RingContext.profinite(2, 2), RingContext.padic(2, 2, 3),
                    RingContext.padic(3, 1, 3), RingContext.generic(12, 3)):
            f = random_density(ctx, seed=3, dist="uniform-rational")
            fast, (coeffs, den) = fourier_forward(f), fourier_forward_naive(f)
            assert fast.den == den and (fast.coeffs == coeffs).all()
            ff = f.to_float()
            gap = np.abs(fourier_forward(ff).values - fourier_forward_naive(ff)).max()
            assert gap < 1e-12

    @pytest.mark.parametrize("rows", [1, 2, 5])
    @pytest.mark.parametrize("ctx", [RingContext.padic(3, 2, 3), RingContext.generic(6, 2),
                                     RingContext.generic(12, 2)], ids=lambda c: c.describe())
    def test_pass_blocks(self, monkeypatch, ctx, rows):
        # each level of a pass over the (N*N, size/N) stack in blocks of one,
        # two and five rows; its 81, 36 and 144 rows leave a ragged last
        # block at five rows, and the 81 of padic(3,2,3) also at two
        N = ctx.modulus
        monkeypatch.setattr(tables, "_GATHER_BYTES", 8 * max(N, ctx.size // N) * rows)
        f = random_density(ctx, seed=5, dist="uniform-rational")
        s, (coeffs, den) = fourier_forward(f), fourier_forward_naive(f)
        assert s.den == den and (s.coeffs == coeffs).all()
        assert fourier_inverse(s) == f

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("N", [1, 2, 6, 9, 12, 30])
    def test_pass_index_rows(self, N, sign):
        # the radix levels: one read-only intp (p, N*N) table per prime
        # factor with multiplicity, each reading every row of the level
        # before p times; composed, they are the gather pass of pass_index,
        # row a*N + j summing coefficient (j - sign*x*a) mod N of each x once
        levels = _radix_levels(N, sign)
        assert [len(t) for t in levels] == {1: [], 2: [2], 6: [2, 3], 9: [3, 3],
                                            12: [2, 2, 3], 30: [2, 3, 5]}[N]
        gather = np.eye(N * N, dtype=np.int64)  # row r: the input rows that row r sums
        for t in levels:
            assert t.shape == (len(t), N * N) and t.dtype == np.intp and not t.flags.writeable
            assert (np.bincount(t.ravel(), minlength=N * N) == len(t)).all()
            gather = gather[t].sum(axis=0)
        whole = np.zeros((N * N, N * N), dtype=np.int64)
        np.put_along_axis(whole, pass_index(N, sign).astype(np.intp), 1, axis=1)
        assert (gather == whole).all()

    @pytest.mark.parametrize("ctx", [*corpus_rings(), RingContext.generic(30, 2),
                                     RingContext.profinite(3, 2), RingContext.padic(7, 2, 2)],
                             ids=lambda c: c.describe())
    def test_passes_equal_gather_oracle(self, ctx):
        # the passes along every axis in turn, both signs, on a stack of two
        # rows in either lane; random coefficients, so no pass can cancel
        # another's error
        N = ctx.modulus
        C = np.random.default_rng(N).integers(-2**20, 2**20, (2, ctx.size, N))
        for dtype in (np.int32, np.int64):
            for sign in (1, -1):
                want = C.astype(dtype)
                for axis in range(ctx.dimension):
                    want = axis_pass_gather(want, ctx, axis, sign)
                got = _passes_exact(C.astype(dtype), ctx, sign)
                assert got.dtype == dtype and np.array_equal(got, want)

    def test_pass_builds_no_whole_gather(self, monkeypatch):
        # the exact passes hold two value slabs and one gathered block at a
        # time, never the (size/N, N*N, N) gather of one pass
        ctx = RingContext.generic(12, 3)
        N = ctx.modulus
        C = np.zeros((ctx.size, N), dtype=np.int64)
        C[:, 0] = random_density(ctx, seed=49, dist="uniform-rational").num
        full = 8 * ctx.size * N * N
        monkeypatch.setattr(tables, "_GATHER_BYTES", 1 << 14)
        _passes_exact(C, ctx, 1)  # warm the level cache
        tracemalloc.start()
        try:
            _passes_exact(C, ctx, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (1 << 14) + 3 * C.nbytes
        assert full > 3 * peak

    @given(st.lists(st.integers(0, 2**62), min_size=9, max_size=9),
           st.integers(0, 8), st.sampled_from((1, -1)), st.integers(1, 2**20))
    @settings(max_examples=40, deadline=None)
    def test_exact_or_overflow(self, values, shift, sign, den):
        # the exact transform is the Python-int character sum or an
        # OverflowError, never a wrapped int64; one-signed values make the
        # zero coefficient, their sum, pass 2**63 at small shifts
        ctx = RingContext.padic(3, 1, 2)
        f = Density.from_numden(ctx, [sign * (v >> shift) for v in values], den)
        coeffs, naive_den = fourier_forward_naive(f)
        try:
            s = fourier_forward(f)
        except OverflowError:
            assert sum(abs(int(v)) for v in f.num) > 2**60
        else:
            assert s.den == naive_den and (s.coeffs == coeffs).all()

    def test_sum_dtype_bound(self):
        assert _sum_dtype(2**31 - 1) == np.int32 and _sum_dtype(2**31) == np.int64
        assert _sum_dtype(2**61 - 1) == np.int64
        with pytest.raises(OverflowError):
            _sum_dtype(2**61)

    @pytest.mark.parametrize("total", [2**31 - 1, 2**31])
    def test_int32_lane_at_its_bound(self, monkeypatch, total):
        # sum |f| = 2**31 - 1 runs the forward passes in int32, 2**31 in
        # int64; both give the Python-int character sums as int64, and the
        # inverse gives f back.  The inverse picks its lane from sum |coeffs|
        # the same way: rows (k, -k alternating) of (k, k, k) sum to zero over
        # zeta_3, so with C[0] = (m, 0, 0) the inverse is the constant m
        ctx = RingContext.padic(3, 1, 2)
        lane = np.dtype(np.int32 if total < 2**31 else np.int64)
        num = [total // 9 * (-1) ** i for i in range(9)]
        num[0] += total - sum(abs(v) for v in num)
        f = Density.from_numden(ctx, num, 1)
        dtypes = []

        def spy(values, slabs, out, _real=tables.gather_sums):
            dtypes.append(values.dtype)
            _real(values, slabs, out)

        monkeypatch.setattr(tables, "gather_sums", spy)
        s = fourier_forward(f)
        assert set(dtypes) == {lane} and len(dtypes) == 2
        coeffs, den = fourier_forward_naive(f)
        assert s.coeffs.dtype == np.int64 and (s.coeffs == coeffs).all() and s.den == den
        assert fourier_inverse(s) == f
        k = total // 27
        coeffs = np.repeat([[k], [-k]] * 4, 3, axis=1)
        coeffs = np.vstack([[[total - 24 * k, 0, 0]], coeffs])
        dtypes.clear()
        back = fourier_inverse(Spectrum(ctx, coeffs=coeffs, den=1))
        assert set(dtypes) == {lane} and len(dtypes) == 2
        assert back == Density.constant(ctx, total - 24 * k)

    def test_inverse_rejects_irrational_spectrum(self):
        # f^(0) = zeta_3 makes f the constant zeta_3
        ctx = RingContext.padic(3, 1, 2)
        coeffs = np.zeros((ctx.size, 3), dtype=np.int64)
        coeffs[ctx.rank((0, 0)), 1] = 1
        with pytest.raises(ValueError, match="not rational"):
            fourier_inverse(Spectrum(ctx, coeffs=coeffs, den=1))

    def test_inverse_headroom(self):
        # sum |coeffs| = 2**63; unchecked, f(0) wrapped to -2**63
        ctx = RingContext.padic(2, 1, 2)
        s = Spectrum(ctx, coeffs=[[2**62, 0], [2**62, 0], [0, 0], [0, 0]], den=1)
        with pytest.raises(OverflowError):
            fourier_inverse(s)

    def test_float_lane_round_trip(self):
        ctx = RingContext.generic(12, 2)
        f = random_density(ctx, seed=9, dist="uniform-rational").to_float()
        back = fourier_inverse(fourier_forward(f))
        assert np.abs(back.data - f.data).max() < 1e-10

    def test_plancherel_exact_and_float(self):
        for ctx in RINGS_SMALL:
            f = random_density(ctx, seed=17, dist="sparse")
            assert fourier_forward(f).plancherel() == f.power_mean(2)
            ff = f.to_float()
            assert abs(fourier_forward(ff).plancherel() - ff.power_mean(2)) < 1e-10


class TestMasses:
    @pytest.mark.parametrize("ctx", [RingContext.profinite(2, 2), RingContext.padic(2, 2, 3)],
                             ids=lambda c: c.describe())
    def test_masses_match_norm_squares(self, ctx):
        f = random_density(ctx, seed=31, dist="uniform-rational")
        masks = np.random.default_rng(1).random((4, ctx.size)) < 0.5
        s = fourier_forward(f)
        norms = [coefficient(s, ctx.unrank(i)).norm_squared().rational_value()
                 for i in range(ctx.size)]
        expected = [sum(q for q, keep in zip(norms, row) if keep) for row in masks]
        groups = [np.flatnonzero(row) for row in masks]
        nums, den = s.masses(groups)
        assert [Fraction(int(m), den) for m in nums] == expected
        fnums, fden = fourier_forward(f.to_float()).masses(groups)
        assert fden is None
        assert np.abs(fnums - np.array(expected, dtype=float)).max() < 1e-12

    def test_irrational_mass_rejected(self):
        # |1 + zeta_5|**2 = 2 + zeta_5 + zeta_5**4 is irrational
        ctx = RingContext.padic(5, 1, 1)
        s = Spectrum(ctx, coeffs=[[1, 1, 0, 0, 0]] + [[0] * 5] * 4, den=1)
        with pytest.raises(ValueError, match="not rational"):
            s.plancherel()

    @pytest.mark.parametrize("ctx", [RingContext.profinite(2, 3), RingContext.padic(3, 2, 3),
                                     RingContext.generic(12, 2)], ids=lambda c: c.describe())
    def test_groups_match_dense_mask_product(self, ctx):
        # u^perp, the valuation levels and the whole dual, as rank groups
        # and as a slice, against the boolean-mask product they replace;
        # floats bit for bit
        vals = tables.valuations(ctx)
        levels = np.unique(vals)
        cases = [(orthogonality_mask(ctx), tables.perp_index(ctx)),
                 (vals == levels[:, None], [np.flatnonzero(vals == v) for v in levels]),
                 (np.ones((1, ctx.size), dtype=bool), np.arange(ctx.size)[None]),
                 (np.ones((1, ctx.size), dtype=bool), [slice(None)])]
        for t, dist in enumerate(DISTRIBUTIONS):
            f = random_density(ctx, seed=33, dist=dist, trial=t)
            for s in (fourier_forward(f), fourier_forward(f.to_float())):
                for masks, groups in cases:
                    nums, den = s.masses(groups)
                    want, want_den = masses_dense(s, masks)
                    assert den == want_den and nums.tolist() == want.tolist()

    def test_slice_groups_copy_nothing(self):
        # a slice group (the whole dual of plancherel) is summed through a
        # view; a rank array gathers its members, a copy of x
        x = np.arange(2 * 4096 * 6, dtype=np.int64).reshape(2, 4096, 6)
        peaks = []
        for groups in ([slice(None)], [np.arange(4096)]):
            tracemalloc.start()
            got = harmonic._group_sums(x, groups)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert got.tolist() == x.sum(axis=1)[:, None].tolist()
        assert peaks[0] < x.nbytes // 8 < x.nbytes <= peaks[1]

    @pytest.mark.parametrize("rows", [1, 2])
    def test_mass_blocks(self, monkeypatch, rows):
        # blocks of gather_sums of one and of two groups, the last block
        # ragged (117 groups), each group 6 reduced columns
        ctx = RingContext.padic(3, 2, 3)
        perp = tables.perp_index(ctx)
        monkeypatch.setattr(tables, "_GATHER_BYTES", 8 * 6 * rows)
        assert tables.blocks(len(perp), 8 * 6, tables._GATHER_BYTES)[0] == slice(0, rows)
        s = fourier_forward(random_density(ctx, seed=35))
        assert s.masses(perp)[0].tolist() == masses_dense(s, orthogonality_mask(ctx))[0].tolist()

    def test_perp_masses_are_one_gather_sums(self, monkeypatch):
        # no second kernel: the u^perp masses of a stack of two spectra are
        # one gather_sums over the reduced correlations read point-major,
        # (size, T * phi(N)), one group member per slab
        assert not hasattr(tables, "blocked_sums")
        ctx = RingContext.padic(3, 2, 3)
        perp = tables.perp_index(ctx)
        s = fourier_forward(stack_of([random_density(ctx, seed=36, trial=t) for t in range(2)]))
        calls = []

        def spy(values, slabs, out, _real=tables.gather_sums):
            calls.append((values.shape, slabs.shape, out.shape))
            _real(values, slabs, out)

        monkeypatch.setattr(tables, "gather_sums", spy)
        nums, _ = s.masses(perp)
        assert calls == [((ctx.size, 2 * 6), perp.T.shape, (len(perp), 2 * 6))]
        for t in range(2):
            want = masses_dense(Spectrum(ctx, coeffs=s.coeffs[t], den=s.den[t]),
                                orthogonality_mask(ctx))[0]
            assert nums[t].tolist() == want.tolist()


class TestCorrelations:
    @pytest.mark.parametrize("rows", [1, 2, 4])
    def test_blocks_match_roll(self, rows):
        # stacks of 1, 2 and 4 spectra over odd and even N: the shifts
        # m <= N // 2 are summed and their mirrors N - m copied, and at even
        # N the middle shift is its own mirror
        for ctx in (RingContext.padic(3, 1, 3), RingContext.padic(2, 2, 2),
                    RingContext.generic(5, 2), RingContext.generic(6, 2)):
            dens = [random_density(ctx, seed=37, dist=dist, trial=t)
                    for t, dist in enumerate(DISTRIBUTIONS[:rows])]
            s = fourier_forward(Density(ctx, num=[f.num for f in dens], den=[f.den for f in dens]))
            for t, f in enumerate(dens):
                one = fourier_forward(f)
                assert one.den == s.den[t]
                assert s.correlations()[t].tolist() == correlations_roll(one).tolist()

    def test_default_budget_matches_roll(self):
        for ctx in (RingContext.generic(12, 2), RingContext.padic(2, 3, 3)):
            s = fourier_forward(random_density(ctx, seed=38))
            corr = s.correlations()
            assert corr.dtype == np.int64 and not corr.flags.writeable
            assert corr.tolist() == correlations_roll(s).tolist()


    def test_entry_at_the_headroom_bound(self):
        # an entry sums N products of at most max|C|**2: at the largest
        # max|C| with max|C|**2 * N under 2**61 it is the Python-int sum,
        # and at max|C|**2 * N = 2**61 it is refused
        ctx = RingContext.padic(2, 1, 2)
        c = math.isqrt((2**61 - 1) // 2)
        coeffs = np.full((ctx.size, 2), c, dtype=np.int64)
        coeffs[1, 1] = -c
        s = Spectrum(ctx, coeffs=coeffs, den=1)
        assert s.correlations().tolist() == correlations_roll(s).tolist()
        assert int(s.correlations().max()) == 2 * c * c < 2**61
        with pytest.raises(OverflowError):
            Spectrum(ctx, coeffs=coeffs // c * 2**30, den=1).correlations()


class TestPowerSum:
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_both_sides_of_headroom(self, p):
        # count * top**p just under 2**61 sums in int64, just past it over
        # Python ints; both equal the Python-int sum
        count = 7
        under = int(((2**61 - 1) // count) ** (1 / p))
        while (under + 1) ** p * count < 2**61:
            under += 1
        while under**p * count >= 2**61:
            under -= 1
        for top, kind in ((under, np.int64), (under + 1, int)):
            x = np.array([top, -top, 0, 1, -(top // 3), top - 5, 2], dtype=np.int64)
            got = power_sum(x, p)
            assert type(got) is kind  # the int64 sum, or the Python-int one
            assert int(got) == sum(abs(int(v)) ** p for v in x)

    def test_axis_sums(self):
        x = np.array([[2**40, -3, 5], [-(2**20), 7, -(2**41)]], dtype=np.int64)
        for p in (1, 2, 3):
            rows = power_sum(x, p, axis=1)
            cols = power_sum(x, p, axis=0)
            assert [int(v) for v in rows] == [sum(abs(int(v)) ** p for v in r) for r in x]
            assert [int(v) for v in cols] == [sum(abs(int(v)) ** p for v in c) for c in x.T]

    def test_min_int64(self):
        # abs(-2**63) wraps in int64; the bound is taken over Python ints
        x = np.array([-(2**63), 1, 0], dtype=np.int64)
        assert power_sum(x, 1) == 2**63 + 1
        assert power_sum(x, 2) == 2**126 + 1
        assert power_sum(np.zeros(3, dtype=np.int64), 4) == 0

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_int64_path_is_the_object_path(self, monkeypatch, p):
        # at the dtype minima (-2**63, and -2**31, whose abs wraps in int32)
        # and on both sides of the headroom edge, in int32 and int64 and
        # along either axis, the int64 sums (einsum at p = 2, a power taken
        # in place otherwise) equal the Python-int sums of the object path
        count = 3
        edge = int(((2**61 - 1) // count) ** (1 / p))
        while (edge + 1) ** p * count < 2**61:
            edge += 1
        while edge**p * count >= 2**61:
            edge -= 1
        cases = [np.array([[-(2**63), 5, 0], [1, -2, 3]], dtype=np.int64)]
        for top in (edge, edge + 1):
            cases.append(np.array([[top, -top, 1], [-(top // 2), 0, top - 1]], dtype=np.int64))
        if p < 3:
            cases.append(np.array([[-(2**31), 2**31 - 1, 0], [7, -8, 9]], dtype=np.int32))
        for x in cases:
            for axis in (None, 0, 1):
                got = power_sum(x, p, axis)
                with monkeypatch.context() as m:
                    m.setattr(harmonic, "_INT_HEADROOM", 0)  # every sum over Python ints
                    want = power_sum(x, p, axis)
                python = abs(x.astype(object)) ** p
                if axis is None:
                    assert type(want) is int and int(got) == want == python.sum()
                else:
                    assert want.dtype == object
                    assert got.tolist() == want.tolist() == python.sum(axis=axis).tolist()
        # along the rows of count terms, the edge sums in int64 and one past it not
        assert [power_sum(x, p, axis=1).dtype for x in cases[1:3]] == [np.int64, object]


class TestXray:
    def test_point_mass_pushforward(self):
        ctx = RingContext.padic(3, 1, 2)
        f = Density.indicator(ctx, [(0, 0)])
        u = canonical_direction((1, 0), ctx)
        fu = xray_transform(f, u)
        assert fu.values() == (Fraction(1, 3), Fraction(0), Fraction(0))

    def test_constants_are_fixed_points(self):
        ctx = RingContext.generic(6, 2)
        f = Density.constant(ctx, Fraction(5, 7))
        for u in enumerate_proj(ctx):
            assert set(xray_transform(f, u).values()) == {Fraction(5, 7)}

    @pytest.mark.parametrize("ctx", [RingContext.padic(2, 2, 2), RingContext.profinite(2, 3)],
                             ids=lambda c: c.describe())
    def test_mass_conservation(self, ctx):
        for t in range(10):
            f = random_density(ctx, seed=t, dist="uniform-rational")
            for u in enumerate_proj(ctx):
                assert xray_transform(f, u).integral() == f.integral()

    def test_double_sum_oracle(self):
        # mass conservation re-derived by brute force over all fibers
        ctx = RingContext.generic(6, 2)
        f = random_density(ctx, seed=23, dist="uniform-rational")
        u = canonical_direction((1, 4), ctx)
        fu = xray_transform(f, u)
        for y in ctx.quotient().points():
            sec = chart_section(u, y, ctx)
            total = sum(f.value(tuple((s + t * c) % 6 for s, c in zip(sec, u.rep)))
                        for t in range(6))
            assert fu.value(y) == total / 6


    @pytest.mark.parametrize("ctx", corpus_rings(), ids=lambda c: c.describe())
    def test_xray_all_matches_gather(self, ctx):
        for t, dist in enumerate(DISTRIBUTIONS):
            f = random_density(ctx, seed=45, dist=dist, trial=t)
            nums, den = xray_all(f)
            assert nums.dtype == np.int64 and den == f.den * ctx.modulus
            assert nums.tolist() == xray_all_gather(f).tolist()

    @pytest.mark.parametrize("rows", [1, 5])
    def test_xray_all_blocks(self, monkeypatch, rows):
        # blocks of one and of five directions (117 directions): the top
        # level of one row sums size // N lines a direction
        ctx = RingContext.padic(3, 2, 3)
        monkeypatch.setattr(tables, "_GATHER_BYTES", 8 * (ctx.size // ctx.modulus) * rows)
        f = random_density(ctx, seed=46)
        assert xray_all(f)[0].tolist() == xray_all_gather(f).tolist()

    def test_xray_all_builds_no_line_gather(self, monkeypatch):
        # the exact lane never holds the (P, size/N, N) int64 gather: only
        # a block of it and of its intp index, and the result
        ctx = RingContext.padic(3, 2, 3)
        f = random_density(ctx, seed=47)
        full = 8 * tables.coset_table(ctx, 1)[0].size
        monkeypatch.setattr(tables, "_GATHER_BYTES", 1 << 14)
        xray_all(f)  # warm any lazy state
        tracemalloc.start()
        try:
            nums, _ = xray_all(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (1 << 14) + 2 * nums.nbytes
        assert full > 4 * peak

    @pytest.mark.parametrize("rows", [1, 5, None])
    @pytest.mark.parametrize("ctx", [RingContext.padic(3, 2, 3), RingContext.generic(12, 2)],
                             ids=lambda c: c.describe())
    def test_float_xray_all_is_the_whole_gather(self, ctx, rows):
        # the float X-ray along every direction (xray_transform) is bit for
        # bit the sum of one whole gather of its chart rows, on real and
        # complex values, for stacks of one and five rows and one density
        N = ctx.modulus
        table = chart_rows(ctx, 1)
        rng = np.random.default_rng(48)
        shape = (ctx.size,) if rows is None else (rows, ctx.size)
        reals = np.stack([random_density(ctx, seed=48, trial=t).to_float().data
                          for t in range(rows or 1)]).reshape(shape)
        for f in (Density.from_float(ctx, reals),
                  Density.from_float(ctx, rng.normal(size=shape) + 1j * rng.normal(size=shape))):
            for u, fibers in zip(tables.directions(ctx), table):
                fu = xray_transform(f, u)
                assert fu.ctx == ctx.quotient() and fu.lane == "float"
                assert np.array_equal(fu.data, f.data[..., fibers].sum(-1) / N)

    @pytest.mark.parametrize("ctx", [RingContext.padic(2, 2, 3), RingContext.generic(12, 2)],
                             ids=lambda c: c.describe())
    def test_xray_transform_builds_only_its_direction(self, ctx):
        # a cold call adds no coset_table entry, and its fibers are the
        # chart rows of u bit for bit, in both lanes
        N = ctx.modulus
        tables.coset_table.cache_clear()
        f = random_density(ctx, seed=51)
        g = Density.from_float(ctx, np.random.default_rng(51).normal(size=(3, ctx.size)))
        got = [(xray_transform(f, u), xray_transform(g, u)) for u in tables.directions(ctx)]
        assert tables.coset_table.cache_info().currsize == 0
        for (fu, gu), fibers in zip(got, chart_rows(ctx, 1)):
            assert fu.values() == tuple(Fraction(int(v), f.den * N) for v in f.num[fibers].sum(-1))
            assert np.array_equal(gu.data, g.data[..., fibers].sum(-1) / N)

    @pytest.mark.parametrize("setting", ["default", "small-block", "small-chunk", "low-headroom"])
    @pytest.mark.parametrize("ctx", corpus_rings() + [RingContext.padic(5, 2, 3)],
                             ids=lambda c: c.describe())
    def test_xray_all_powers_fold_the_xrays(self, monkeypatch, ctx, setting):
        # xray_all(f, ps) is power_sum of xray_all(f) per direction, for a
        # stack and one density, with blocks of a few flats, chunks of one
        # row, or a headroom that sends the blocks' sums to Python ints
        dens = [random_density(ctx, seed=52, dist=d, trial=t) for t, d in enumerate(DISTRIBUTIONS)]
        stack = Density(ctx, num=[f.num for f in dens], den=[f.den for f in dens])
        ps = (2, 3, 4)
        want = []
        for f in (stack, dens[0]):
            nums, den = xray_all(f)
            want.append((f, [power_sum(nums, p, axis=-1).tolist() for p in ps], den))
        if setting == "small-block":
            monkeypatch.setattr(tables, "_GATHER_BYTES", 1 << 10)
        elif setting == "small-chunk":
            itemsize = _sum_dtype(harmonic._abs_max(stack.num) * ctx.modulus).itemsize
            monkeypatch.setattr(tables, "_CHUNK_BYTES", itemsize * tables.coset_plan(ctx, 1).width)
        elif setting == "low-headroom":
            monkeypatch.setattr(harmonic, "_INT_HEADROOM", harmonic._abs_max(stack.num) * ctx.modulus + 1)
        for f, sums, den in want:
            got, got_den = xray_all(f, ps)
            assert [g.tolist() for g in got] == sums
            assert np.array_equal(np.asarray(got_den), np.asarray(den))
            assert got[0].shape == f.num.shape[:-1] + (len(tables.directions(ctx)),)
        if setting == "low-headroom":
            assert xray_all(stack, ps)[0][-1].dtype == object

    def test_xray_all_is_exact_only(self):
        with pytest.raises(ValueError, match="exact-lane"):
            xray_all(random_density(RingContext.padic(2, 2, 2), seed=49).to_float())

    @pytest.mark.parametrize("R", [1, 2, 11, 12, 13, 40])
    def test_xray_all_layouts_agree(self, R):
        # the one point-major layout of a one-component plan gives the line
        # sums of the whole gather, for narrow and tall stacks
        ctx = RingContext.padic(3, 2, 3)
        rng = np.random.default_rng(50)
        f = Density(ctx, num=rng.integers(-60, 61, (R, ctx.size)), den=[1] * R)
        want = f.num.astype(object)[:, chart_rows(ctx, 1)].sum(axis=-1).tolist()
        assert xray_all(f)[0].tolist() == want

    @given(st.lists(st.integers(-(2**62), 2**62), min_size=4, max_size=4), st.integers(0, 3))
    @example([2**62] * 4, 0)
    @settings(max_examples=40, deadline=None)
    def test_xray_all_exact_or_overflow(self, values, shift):
        # every line sum is the Python-int sum or an OverflowError, never a
        # wrapped int64
        ctx = RingContext.padic(2, 1, 2)
        f = Density.from_numden(ctx, [v >> shift for v in values], 1)
        if max(abs(int(v)) for v in f.num) * ctx.modulus >= 2**61:
            with pytest.raises(OverflowError):
                xray_all(f)
        else:
            assert xray_all(f)[0].tolist() == xray_all_gather(f).tolist()

    @given(st.lists(st.integers(-(2**62), 2**62), min_size=4, max_size=4), st.integers(0, 3))
    @example([2**62] * 4, 0)
    @settings(max_examples=40, deadline=None)
    def test_xray_transform_exact_or_overflow(self, values, shift):
        ctx = RingContext.padic(2, 1, 2)
        f = Density.from_numden(ctx, [v >> shift for v in values], 1)
        for u, row in zip(tables.directions(ctx), xray_all_gather(f)):
            if max(abs(int(v)) for v in f.num) * ctx.modulus >= 2**61:
                with pytest.raises(OverflowError):
                    xray_transform(f, u)
            else:
                assert xray_transform(f, u).values() == tuple(Fraction(v, 2) for v in row)

    def test_xray_headroom(self):
        # unchecked, every row sum of xray_all read -2**63, and
        # xray_transform gave -2**62 for the line sum +2**63 over N = 2
        ctx = RingContext.padic(2, 1, 2)
        f = Density.from_numden(ctx, [2**62] * 4, 1)
        with pytest.raises(OverflowError):
            xray_all(f)
        with pytest.raises(OverflowError):
            xray_transform(f, tables.directions(ctx)[0])

    def test_line_table_rows_are_chart_fibers(self):
        # chart row y of a direction is section(y) + t*u, t = 0..N-1, and
        # the line table holds it at the place of its least rank
        for ctx in (RingContext.generic(12, 2), RingContext.generic(6, 3)):
            N = ctx.modulus
            chart = chart_rows(ctx, 1)
            table, least = tables.coset_table(ctx, 1)
            for ui, u in enumerate(tables.directions(ctx)):
                for y in ctx.quotient().points():
                    sec = chart_section(u, y, ctx)
                    row = [ctx.rank(tuple((s + t * c) % N for s, c in zip(sec, u.rep)))
                           for t in range(N)]
                    assert chart[ui, ctx.quotient().rank(y)].tolist() == row
                    at = np.searchsorted(least[ui], min(row))
                    assert least[ui, at] == min(row) and table[ui, at].tolist() == row


class TestDensityArithmetic:
    def test_indicator_rejects_wrong_point_length(self):
        ctx = RingContext.padic(2, 1, 2)
        with pytest.raises(ValueError, match="coordinates"):
            Density.indicator(ctx, [(0, 1, 1)])
        with pytest.raises(ValueError, match="coordinates"):
            Density.indicator(ctx, [(1,)])

    def test_mismatched_contexts_rejected(self):
        a = Density.constant(RingContext.padic(2, 2, 2), 1)
        b = Density.constant(RingContext.generic(4, 2), 1)
        with pytest.raises(ValueError, match="mismatched ring contexts"):
            a + b
        with pytest.raises(ValueError, match="mismatched ring contexts"):
            a - b

    def test_sum_overflow_raises(self):
        # unchecked, this returned the numerator -4611686366319737641
        # instead of 13835057707389813975
        ctx = RingContext.padic(2, 1, 1)
        a, b, c = (Density.constant(ctx, Fraction(1, 2**31 - d)) for d in (1, 19, 61))
        assert (a + b).values()[0] == Fraction(1, 2**31 - 1) + Fraction(1, 2**31 - 19)
        with pytest.raises(OverflowError):
            a + b + c
        with pytest.raises(OverflowError):
            a - b - c

    @given(st.lists(st.integers(-(2**45), 2**45), min_size=4, max_size=4),
           st.lists(st.integers(-(2**45), 2**45), min_size=4, max_size=4),
           st.integers(2**14, 2**30), st.integers(2**14, 2**30))
    @settings(max_examples=60, deadline=None)
    def test_sum_exact_or_overflow(self, a, b, da, db):
        # ROADMAP 4(a): with large, often coprime denominators a sum is the
        # exact rational sum or an OverflowError, never a wrapped int64
        ctx = RingContext.padic(2, 1, 2)
        f, g = Density.from_numden(ctx, a, da), Density.from_numden(ctx, b, db)
        exact = tuple(x + y for x, y in zip(f.values(), g.values()))
        common = math.lcm(f.den, g.den)
        bound = (max(abs(int(x)) for x in f.num) * (common // f.den)
                 + max(abs(int(y)) for y in g.num) * (common // g.den))
        try:
            total = f + g
        except OverflowError:
            assert bound >= 2**61
        else:
            assert total.values() == exact and bound < 2**61

    def test_sub_matches_values(self):
        ctx = RingContext.generic(6, 2)
        f = random_density(ctx, seed=5, dist="uniform-rational")
        g = random_density(ctx, seed=6, dist="sparse")
        assert (f - g).values() == tuple(a - b for a, b in zip(f.values(), g.values()))

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_power_mean_at_headroom_boundary(self, p):
        # size * top**p just under 2**61 sums in int64, one past it over
        # Python ints; both equal the Python-int sum.  At top = 2**40 and
        # p >= 2 an int64 sum of the powers would wrap
        ctx = RingContext.padic(2, 2, 2)
        under = int(((2**61 - 1) // ctx.size) ** (1 / p))
        while (under + 1) ** p * ctx.size < 2**61:
            under += 1
        while under**p * ctx.size >= 2**61:
            under -= 1
        for top in (under, under + 1, 2**40):
            num = [1, -top] + [(-1) ** i * (top - 7 * i) for i in range(ctx.size - 2)]
            f = Density.from_numden(ctx, num, 3)
            brute = sum(abs(v) ** p for v in num)
            assert f.power_mean(p) == Fraction(brute, 3**p * ctx.size)
            assert f.abs().power_mean(p) == f.power_mean(p)

    @pytest.mark.parametrize("op", [lambda f: f + f, lambda f: f - f, lambda f: -f,
                                    lambda f: f.abs()], ids=["add", "sub", "neg", "abs"])
    def test_min_int64_raises(self, op):
        # -2**63 has no int64 negation: f + f wrapped to [0, 0], and -f and
        # f.abs() gave -2**63 back
        f = Density.from_numden(RingContext.padic(2, 1, 1), [-(2**63), 0], 1)
        with pytest.raises(OverflowError):
            op(f)

    def test_power_mean_min_int64_and_zero(self):
        ctx = RingContext.padic(2, 1, 1)
        f = Density.from_numden(ctx, [-(2**63), 1], 1)
        assert f.power_mean(2) == Fraction(2**126 + 1, 2)
        assert Density.constant(ctx, 0).power_mean(3) == 0


class TestUperp:
    @pytest.mark.parametrize("ctx", corpus_rings() + [RingContext.padic(2, 4, 3),
                                                      RingContext.generic(30, 2),
                                                      RingContext.generic(6, 4)],
                             ids=lambda c: c.describe())
    def test_perp_index_matches_dense_mask(self, ctx):
        # row u lists, ascending, the frequencies of the dense mask's row u
        perp = tables.perp_index(ctx)
        mask = orthogonality_mask(ctx)
        assert perp.dtype == np.int32 and not perp.flags.writeable
        assert perp.shape == (len(mask), ctx.modulus ** (ctx.dimension - 1))
        for row, index in zip(mask, perp):
            assert np.array_equal(np.flatnonzero(row), index)

    def test_perp_index_blocks(self, monkeypatch):
        # one direction per block gives the same index
        ctx = RingContext.generic(12, 3)
        whole = tables.perp_index(ctx)
        monkeypatch.setattr(tables, "_BLOCK_BYTES", 1)
        tables.perp_index.cache_clear()
        try:
            assert np.array_equal(tables.perp_index(ctx), whole)
        finally:
            tables.perp_index.cache_clear()

    def test_perp_index_memory_is_refused_before_any_block(self, monkeypatch, capsys):
        # its (P, N**(n-1)) int32 bytes against physical memory: one byte
        # short raises TableMemoryError before a block is solved, and the
        # CLI exits 3
        from kakeyalab.cli import main

        def solved(N):
            raise AssertionError("perp_index solved a block")

        ctx = RingContext.padic(2, 3, 3)
        need = 4 * len(tables.directions(ctx)) * ctx.size // ctx.modulus
        monkeypatch.setattr(tables, "_crt_basis", solved)
        monkeypatch.setattr(tables, "_physical_memory", lambda: need - 1)
        tables.perp_index.cache_clear()
        try:
            with pytest.raises(tables.TableMemoryError) as err:
                tables.perp_index(ctx)
            assert err.value.estimate == need
            assert main(["verify", "--mode", "padic", "-p", "2", "-l", "3", "-n", "3", "radiusN"]) == 3
            assert "exceeds physical memory" in capsys.readouterr().err
        finally:
            tables.perp_index.cache_clear()

    def test_constant(self):
        ctx = RingContext.padic(2, 2, 2)
        f = Density.constant(ctx, 1)
        for u in enumerate_proj(ctx)[:3]:
            assert uperp_sum(f, u) == 1

    def test_line_indicator_example(self):
        ctx = RingContext.padic(3, 1, 2)
        f = Density.indicator(ctx, [(0, 0), (1, 0), (2, 0)])
        u = canonical_direction((1, 0), ctx)
        assert uperp_sum(f, u) == Fraction(1, 3)
        assert xray_transform(f, u).power_mean(2) == Fraction(1, 3)

    @pytest.mark.parametrize("ctx", [RingContext.padic(2, 2, 2), RingContext.profinite(2, 2),
                                     RingContext.padic(3, 2, 2)], ids=lambda c: c.describe())
    def test_spectral_equals_spatial_and_quotient(self, ctx):
        for t in range(6):
            f = random_density(ctx, seed=40 + t, dist="uniform-rational")
            for u in enumerate_proj(ctx)[::2]:
                spectral = uperp_sum(f, u)
                assert spectral == uperp_sum_spatial(f, u)
                assert spectral == xray_transform(f, u).power_mean(2)


class TestXrayL2Identity:
    @pytest.mark.parametrize("ctx", RINGS_SMALL, ids=lambda c: c.describe())
    def test_exact_identity(self, ctx):
        for t in range(6):
            f = random_density(ctx, seed=60 + t, dist="uniform-rational")
            assert xray_l2_spatial(f) == xray_l2_spectral(f)

    def test_point_mass_closed_form(self):
        ctx = RingContext.padic(2, 2, 2)
        f = random_density(ctx, seed=1, dist="ball")
        assert xray_l2_spatial(f) == xray_l2_spectral(f)

    def test_spectral_side_takes_a_spectrum(self):
        ctx = RingContext.padic(2, 2, 3)
        exact = random_density(ctx, seed=61, dist="uniform-rational")
        for f in (exact, exact.to_float()):
            assert xray_l2_spectral(fourier_forward(f)) == xray_l2_spectral(f)


class TestRadiusFraction:
    def test_mod4_example(self):
        ctx = RingContext.padic(2, 2, 2)
        assert orthogonal_fraction((2, 0), ctx) == Fraction(1, 3)

    def test_zero_frequency(self):
        ctx = RingContext.generic(6, 2)
        assert orthogonal_fraction((0, 0), ctx) == 1

    def test_mod9_example(self):
        ctx = RingContext.padic(3, 2, 2)
        # v((3,0)) = 3, so the fraction must be proj_size(3,1)/proj_size(3,2) = 1/4
        assert orthogonal_fraction((3, 0), ctx) == Fraction(proj_size(3, 1), proj_size(3, 2))
        count = sum(1 for u in enumerate_proj(ctx) if (3 * u.rep[0]) % 9 == 0)
        assert Fraction(count, proj_size(9, 2)) == Fraction(1, 4)


class TestBands:
    def test_padic_delta_bands(self):
        ctx = RingContext.padic(2, 2, 1)
        f = Density.indicator(ctx, [(0,)])
        f0, f1, f2 = (band_project(f, i) for i in range(3))
        assert set(f0.values()) == {Fraction(1, 4)}
        assert f1.values() == (Fraction(1, 4), Fraction(-1, 4), Fraction(1, 4), Fraction(-1, 4))
        assert f2.values() == (Fraction(1, 2), Fraction(0), Fraction(-1, 2), Fraction(0))

    def test_constant_lives_in_band_zero(self):
        ctx = RingContext.padic(3, 2, 2)
        f = Density.constant(ctx, Fraction(2, 5))
        assert band_project(f, 0) == f
        for i in (1, 2):
            assert not band_project(f, i).num.any()

    def test_profinite_divisibility_partition(self):
        ctx = RingContext.profinite(2, 2)
        bands = band_valuation_sets(ctx)
        assert [sorted(b) for b in bands] == [[1], [2], [3, 6]]
        assert sorted(v for b in bands for v in b) == list(ctx.divisors())

    def test_numeric_semantics_differs_over_factorials(self):
        ctx = RingContext.profinite(2, 2, ScaleSemantics.NUMERIC)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bands = band_valuation_sets(ctx)
        assert [sorted(b) for b in bands] == [[1], [2, 3], [6]]

    def test_numeric_profinite_warns(self):
        # the partition is cached, the warning is not: a second call warns
        # too, so whether a caller sees it does not hang on who asked first
        ctx = RingContext.profinite(3, 1, ScaleSemantics.NUMERIC)
        got = []
        for _ in range(2):
            with pytest.warns(UserWarning, match="coset constancy"):
                got.append(band_valuation_sets(ctx))
        assert got[0] is got[1]
        for quiet in (RingContext.profinite(3, 1), RingContext.padic(2, 2, 2, ScaleSemantics.NUMERIC)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                band_valuation_sets(quiet)

    @pytest.mark.parametrize("ctx", RINGS_SMALL, ids=lambda c: c.describe())
    def test_partition_sums_back(self, ctx):
        f = random_density(ctx, seed=91, dist="uniform-rational")
        total = band_project(f, 0)
        for i in range(1, ctx.num_bands):
            total = total + band_project(f, i)
        assert total == f

    @pytest.mark.parametrize("ctx", RINGS_SMALL, ids=lambda c: c.describe())
    def test_kernel_matches_spectral_definition(self, ctx):
        f = random_density(ctx, seed=92, dist="sparse")
        for i in range(ctx.num_bands):
            assert band_project(f, i) == _band_project_spectral(f, band_valuation_sets(ctx)[i])

    @given(st.lists(st.integers(-(2**62), 2**62), min_size=16, max_size=16),
           st.integers(0, 12), st.integers(1, 2**20), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_exact_or_overflow(self, values, shift, den, i):
        # a band component is its spectral definition in Python ints or an
        # OverflowError, never a wrapped int64; the coset weights of band i
        # sum to at most size**2 here
        ctx = RingContext.padic(2, 2, 2)
        f = Density.from_numden(ctx, [v >> shift for v in values], den)
        try:
            fi = band_project(f, i)
        except OverflowError:
            assert sum(abs(int(v)) for v in f.num) * ctx.size**2 > 2**60
        else:
            assert fi.values() == band_project_naive(f, i)

    def test_band_component_is_coset_constant(self):
        ctx = RingContext.padic(2, 3, 2)
        f = random_density(ctx, seed=93, dist="uniform-rational")
        for i in range(ctx.num_bands):
            fi = band_project(f, i)
            m_next = min(ctx.scale(i + 1, beyond_truncation=True), ctx.modulus)
            induced = induce_to_modulus(fi, m_next) if m_next <= ctx.modulus else None
            if induced is not None:
                back = induce_to_modulus(induced, ctx.modulus)
                assert back == fi

    def test_numeric_factorial_constancy_can_fail(self):
        # N = 24: the numeric band {2, 3, 4} is not constant on cosets of 6.
        ctx = RingContext.profinite(3, 1, ScaleSemantics.NUMERIC)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f = Density.indicator(ctx, [(0,)])
            f1 = band_project(f, 1)
            with pytest.raises(ConstancyError):
                induce_to_modulus(f1, 6)

    def test_constancy_violation_value(self):
        # the violation is max |f(x) - f(r)| over x, r the least-rank point
        # of x's coset of M*(Z/NZ)^n
        ctx = RingContext.profinite(3, 2, ScaleSemantics.NUMERIC)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f1 = band_project(random_density(ctx, seed=41, dist="sparse"), 1)
        first = {}
        for x in ctx.points():
            first.setdefault(tuple(c % 6 for c in x), x)
        expected = max(abs(f1.value(x) - f1.value(first[tuple(c % 6 for c in x)]))
                       for x in ctx.points())
        assert expected > 0
        with pytest.raises(ConstancyError) as err:
            induce_to_modulus(f1, 6)
        assert err.value.violation == expected

    def test_induce_rows_matches_induce_to_modulus(self):
        # one stack of rows: a gap per row exactly where induce_to_modulus
        # raises, with the same violation, and the same induced values elsewhere
        ctx = RingContext.profinite(3, 2, ScaleSemantics.NUMERIC)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dens = [band_project(random_density(ctx, seed=41 + t, dist="sparse"), i)
                    for t in range(3) for i in range(ctx.num_bands)]
        den = math.lcm(*(f.den for f in dens))
        rows = np.stack([f.num * (den // f.den) for f in dens])
        for M in (2, 6, 24, 120):
            mctx, index, gaps = induce_rows(rows, ctx, M)
            assert mctx.modulus == M and index.shape == (mctx.size,)
            for f, row, gap in zip(dens, rows[:, index], gaps):
                try:
                    h = induce_to_modulus(f, M)
                except ConstancyError as err:
                    assert err.violation == Fraction(int(gap), den) > 0
                else:
                    assert gap == 0 and h == Density(mctx, num=row, den=den)
            if M == 6:
                assert gaps.any() and not gaps.all()

    def test_band_project_headroom(self):
        # unchecked, band 2 at the origin wrapped to -2**58
        ctx = RingContext.padic(2, 2, 2)
        num = np.zeros(ctx.size, dtype=np.int64)
        num[:2] = 2**60, 1
        f = Density(ctx, num=num, den=1)
        assert band_project(f, 0).value((0, 0)) == Fraction(2**60 + 1, 16)
        with pytest.raises(OverflowError):
            band_project(f, 2)

    def test_band_constants(self):
        assert band_constant(1, 3, RingContext.padic(2, 1, 3)) == Fraction(3, 7)
        assert band_constant(0, 3, RingContext.padic(2, 1, 3)) == 1
        assert band_constant(1, 2, RingContext.padic(3, 1, 2)) == Fraction(1, 4)

    def test_band_constant_bounded_by_min_valuation(self):
        for ctx in (RingContext.padic(2, 3, 3), RingContext.profinite(2, 3)):
            for i in range(ctx.num_bands):
                members = band_valuation_sets(ctx)[i]
                if members:
                    assert band_constant(i, ctx.dimension, ctx) <= Fraction(1, min(members))

    @pytest.mark.parametrize("i", [-1, -3, 3, 9])
    def test_band_index_out_of_range(self, i):
        # band -1 used to be the last band by Python indexing
        ctx = RingContext.padic(3, 1, 2)  # bands 0 and 1
        for f in (random_density(ctx, seed=95), random_density(ctx, seed=95).to_float()):
            with pytest.raises(ValueError, match="band index"):
                band_project(f, i)
        with pytest.raises(ValueError, match="band index"):
            band_constant(i, 2, ctx)

    def test_float_band_partition(self):
        ctx = RingContext.padic(2, 2, 2)
        f = random_density(ctx, seed=94, dist="uniform-rational").to_float()
        total = band_project(f, 0)
        for i in range(1, ctx.num_bands):
            total = total + band_project(f, i)
        assert np.abs(total.data - f.data).max() < 1e-10


class TestInvariantProperties:
    """Structural invariants on arbitrary small rational densities."""

    @given(st.lists(st.fractions(min_value=0, max_value=4,
                                 max_denominator=8),
                    min_size=16, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_plancherel_holds_for_any_density(self, values):
        ctx = RingContext.padic(2, 2, 2)
        f = Density.exact(ctx, values)
        assert fourier_forward(f).plancherel() == f.power_mean(2)

    @given(st.lists(st.fractions(min_value=0, max_value=3, max_denominator=6),
                    min_size=36, max_size=36),
           st.integers(0, 11))
    @settings(max_examples=20, deadline=None)
    def test_mass_conservation_any_direction(self, values, dir_index):
        ctx = RingContext.profinite(2, 2)
        f = Density.exact(ctx, values)
        u = enumerate_proj(ctx)[dir_index % 12]
        assert xray_transform(f, u).integral() == f.integral()

    @given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=4),
                    min_size=16, max_size=16))
    @settings(max_examples=20, deadline=None)
    def test_band_partition_any_signed_density(self, values):
        ctx = RingContext.padic(2, 2, 2)
        f = Density.exact(ctx, values)
        total = band_project(f, 0)
        for i in range(1, ctx.num_bands):
            total = total + band_project(f, i)
        assert total == f


def stack_of(densities):
    return Density(densities[0].ctx, num=[f.num for f in densities],
                   den=[f.den for f in densities])


class TestStacks:
    """A stack of densities runs through the code that runs one density:
    every row of a stacked result is that density's own result, bit for
    bit, and a headroom check trips for the stack exactly when it trips
    for one of its rows."""

    @pytest.mark.parametrize("ctx", RINGS_SMALL + [RingContext.generic(12, 2)],
                             ids=lambda c: c.describe())
    def test_rows_are_the_one_density_results(self, ctx):
        dens = [random_density(ctx, 60, DISTRIBUTIONS[t % 4], trial=t) for t in range(6)]
        f = stack_of(dens)
        s = fourier_forward(f)
        back = fourier_inverse(s)
        perp = tables.perp_index(ctx)
        masses, mass_dens = s.masses(perp)
        nums, xray_dens = xray_all(f)
        spectral = xray_l2_spectral(s)
        fs = fourier_forward(f.to_float())
        fback = fourier_inverse(fs)
        for t, g in enumerate(dens):
            one = fourier_forward(g)
            assert s.den[t] == one.den and (s.coeffs[t] == one.coeffs).all()
            assert (s.correlations()[t] == one.correlations()).all()
            assert back.den[t] == g.den and (back.num[t] == g.num).all()
            m, d = one.masses(perp)
            assert mass_dens[t] == d and (masses[t] == m).all()
            x, xd = xray_all(g)
            assert xray_dens[t] == xd and (nums[t] == x).all()
            assert spectral[t] == xray_l2_spectral(one)
            assert np.array_equal(fs.values[t], fourier_forward(g.to_float()).values)
            assert np.array_equal(fback.data[t], fourier_inverse(fourier_forward(g.to_float())).data)
        if ctx.mode.describe().startswith("generic"):
            return
        bands = range(ctx.num_bands)
        every = band_project(f, bands)
        for t, g in enumerate(dens):
            for i in bands:
                assert band_project(f, i).den[t] == band_project(g, i).den
                for h in (band_project(f, i).num[t], every.num[t * len(bands) + i]):
                    assert (h == band_project(g, i).num).all()
                assert every.den[t * len(bands) + i] == band_project(g, i).den

    def test_rows_keep_their_own_lowest_terms(self):
        ctx = RingContext.padic(2, 2, 2)
        f = Density(ctx, num=[np.full(16, 6), np.arange(16) * 4, np.zeros(16)], den=[4, 6, 5])
        assert f.den.tolist() == [2, 3, 1]
        assert f.num[0].tolist() == [3] * 16 and f.num[1].tolist() == (np.arange(16) * 2).tolist()
        assert not f.num[2].any()

    @given(st.integers(0, 4), st.integers(1, 700), st.sampled_from([0, 1, 3]), st.booleans(),
           st.lists(st.tuples(st.sampled_from([1, 4, 6, 36, 2**40 * 3, 6**30]),
                              st.sampled_from([1, 2, 3, 6]), st.integers(-1, 699),
                              st.booleans()), min_size=4, max_size=4),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_lowest_terms_equal_the_full_gcd(self, stack, length, width, fortran, rows, seed):
        # stack = 0 is one row over an int den, else that many rows over
        # their own dens, some past int64 (6**30), each row flat or split
        # into (length / width, width) as a spectrum's, in C or Fortran
        # order (whose rows reshape to a copy); each row's entries share
        # a factor, of either sign, and the entry at column `odd` (none at
        # -1) is off that factor, so a row's gcd with den may drop only
        # past the first block of 64; a zero row is 0 over 1
        rng = np.random.default_rng(seed)
        cases = rows[:max(stack, 1)]
        x = np.zeros((len(cases), length), dtype=np.int64)
        for row, (den, factor, odd, zero) in zip(x, cases):
            if not zero:
                row[:] = factor * rng.integers(-10**6, 10**6, length)
                if odd < length:
                    row[odd] = factor * rng.integers(-10**6, 10**6) + 1
        dens = [den for den, *_ in cases]
        shape = (length // width, width) if width and length % width == 0 else (length,)
        x = x.reshape(x.shape[:1] + shape) if stack else x[0].reshape(shape)
        x = np.asfortranarray(x) if fortran else x
        den = dens if stack else dens[0]
        try:
            want, want_den = lowest_terms_full(x, den)
        except OverflowError:  # a zero row over a den past int64
            assert any(d >= 2**63 and not r.any() for r, d in zip(x.reshape(len(dens), -1), dens))
            plain = [d if r.any() else 1 for r, d in zip(x.reshape(len(dens), -1), dens)]
            want, want_den = lowest_terms_full(x, plain if stack else plain[0])
        got, got_den = _lowest_terms(x, den)  # divides x in place
        assert got.dtype == np.int64 and np.array_equal(got, want)
        if stack:
            assert got_den.dtype == object and got_den.tolist() == want_den.tolist()
        else:
            assert type(got_den) is int and got_den == want_den

    def test_headroom_trips_with_the_stack_exactly_when_a_row_does(self):
        # the transforms and the band projection bound each row's sum |f|;
        # the small row alone passes, the large one alone trips
        ctx = RingContext.padic(2, 2, 2)
        small = random_density(ctx, 0)
        large = Density.from_numden(ctx, np.full(16, 2**58), 1)
        for step in (fourier_forward, lambda g: band_project(g, 0)):
            step(small)
            for f in (large, stack_of([small, large]), stack_of([large, small])):
                with pytest.raises(OverflowError):
                    step(f)
        coeffs = np.zeros((ctx.size, ctx.modulus), dtype=np.int64)
        coeffs[:8, 0] = 2**60
        s = Spectrum(ctx, coeffs=[fourier_forward(small).coeffs, coeffs],
                     den=[fourier_forward(small).den, 1])
        with pytest.raises(OverflowError):
            fourier_inverse(s)
        fourier_inverse(Spectrum(ctx, coeffs=s.coeffs[:1], den=s.den[:1]))
