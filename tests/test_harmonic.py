import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeyalab.geometry import canonical_direction, enumerate_proj, proj_size
from kakeyalab.harmonic import (ConstancyError, Density, Spectrum, _band_project_spectral,
                                band_constant, band_project, band_valuation_sets,
                                fourier_forward, fourier_inverse, induce_rows,
                                induce_to_modulus, xray_l2_spectral, xray_transform)
from kakeyalab.ring import RingContext, ScaleSemantics
from kakeyalab.verify import random_density
from oracles import (band_project_naive, coefficient, fourier_forward_naive,
                     orthogonal_fraction, uperp_sum, uperp_sum_spatial, xray_l2_spatial)

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
                    RingContext.padic(3, 1, 3)):
            f = random_density(ctx, seed=3, dist="uniform-rational")
            fast, (coeffs, den) = fourier_forward(f), fourier_forward_naive(f)
            assert fast.den == den and (fast.coeffs == coeffs).all()
            ff = f.to_float()
            gap = np.abs(fourier_forward(ff).values - fourier_forward_naive(ff)).max()
            assert gap < 1e-12

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
        f = random_density(ctx, seed=9, dist="uniform-rational", lane="float")
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
        nums, den = s.masses(masks)
        assert [Fraction(int(m), den) for m in nums] == expected
        fnums, fden = fourier_forward(f.to_float()).masses(masks)
        assert fden is None
        assert np.abs(fnums - np.array(expected, dtype=float)).max() < 1e-12

    def test_irrational_mass_rejected(self):
        # |1 + zeta_5|**2 = 2 + zeta_5 + zeta_5**4 is irrational
        ctx = RingContext.padic(5, 1, 1)
        s = Spectrum(ctx, coeffs=[[1, 1, 0, 0, 0]] + [[0] * 5] * 4, den=1)
        with pytest.raises(ValueError, match="not rational"):
            s.plancherel()


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
        from kakeyalab.geometry import quotient_chart

        chart = quotient_chart(u, ctx)
        fu = xray_transform(f, u)
        for y in ctx.quotient().points():
            sec = chart.section(y)
            total = sum(f.value(tuple((s + t * c) % 6 for s, c in zip(sec, u.rep)))
                        for t in range(6))
            assert fu.value(y) == total / 6


    @pytest.mark.parametrize("rule", ["first", "last"])
    def test_line_table_rows_are_chart_fibers(self, rule):
        # row y of a direction's line table is section(y) + t*u, t = 0..N-1
        from kakeyalab import tables
        from kakeyalab.geometry import quotient_chart

        for ctx in (RingContext.generic(12, 2), RingContext.generic(6, 3)):
            N = ctx.modulus
            table, least = tables.coset_table(ctx, 1, rule)
            for ui, u in enumerate(tables.directions(ctx)):
                chart = quotient_chart(u, ctx, rule)
                for y in ctx.quotient().points():
                    sec = chart.section(y)
                    row = [ctx.rank(tuple((s + t * c) % N for s, c in zip(sec, u.rep)))
                           for t in range(N)]
                    yi = ctx.quotient().rank(y)
                    assert table[ui, yi].tolist() == row
                    assert least[ui, yi] == min(row)


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

    def test_power_mean_min_int64_and_zero(self):
        ctx = RingContext.padic(2, 1, 1)
        f = Density.from_numden(ctx, [-(2**63), 1], 1)
        assert f.power_mean(2) == Fraction(2**126 + 1, 2)
        assert Density.constant(ctx, 0).power_mean(3) == 0


class TestUperp:
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
        for lane in ("exact", "float"):
            f = random_density(ctx, seed=61, dist="uniform-rational", lane=lane)
            assert xray_l2_spectral(fourier_forward(f)) == xray_l2_spectral(f)

    def test_representative_independent(self):
        # same identity under the alternate chart pivot rule
        ctx = RingContext.generic(6, 3)
        f = random_density(ctx, seed=77, dist="uniform-rational")
        assert xray_l2_spatial(f, pivot_rule="last") == xray_l2_spectral(f)


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
        ctx = RingContext.profinite(3, 1, ScaleSemantics.NUMERIC)
        with pytest.warns(UserWarning, match="coset constancy"):
            band_valuation_sets.__wrapped__(ctx)

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

    def test_float_band_partition(self):
        ctx = RingContext.padic(2, 2, 2)
        f = random_density(ctx, seed=94, dist="uniform-rational", lane="float")
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
