import json
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import kakeyalab.verify as verify
from kakeyalab import tables
from kakeyalab.harmonic import (ConstancyError, Density, band_project,
                                induce_to_modulus, xray_all)
from kakeyalab.maximal import appendix_constant, flat_maximal, line_maximal
from kakeyalab.ring import RingContext, ScaleSemantics, scale
from kakeyalab.serialize import reports_to_json
from kakeyalab.verify import (DISTRIBUTIONS, VerificationReport, random_density, run_checks,
                              verify_divisor_reduction, verify_freqbound,
                              verify_main_theorem, verify_maxest,
                              verify_plancherel, verify_projmax,
                              verify_radius_lemma, verify_rounding,
                              verify_xray_l2)
import oracles
from oracles import (freqbound_rows, main_theorem_rows, maxest_rows, plancherel_rows,
                     projmax_rows, randints_loop, random_density_loop, xray_l2_rows)

CTX = RingContext.padic(2, 2, 2)
CTX6 = RingContext.profinite(2, 2)
CTX3D = RingContext.padic(2, 2, 3)


class TestRandomDensity:
    def test_deterministic_given_seed(self):
        a = random_density(CTX, seed=5, dist="uniform-rational")
        b = random_density(CTX, seed=5, dist="uniform-rational")
        assert a == b
        c = random_density(CTX, seed=6, dist="uniform-rational")
        assert a != c

    def test_ball_is_single_point(self):
        f = random_density(CTX, seed=1, dist="ball")
        assert int(f.num.sum()) == 1 and f.den == 1

    def test_flat_supported(self):
        N = CTX3D.modulus
        f = random_density(CTX3D, seed=2, dist="flat-supported")
        support = {CTX3D.unrank(i) for i in np.flatnonzero(f.num)}
        k = round(np.log(len(support)) / np.log(N))
        assert len(support) == N**k
        base = min(support)
        shifted = {tuple((p - b) % N for p, b in zip(pt, base)) for pt in support}
        # support is a translate of a subgroup: shifted copy closed under addition
        assert (0,) * 3 in shifted
        for a in shifted:
            for b in shifted:
                assert tuple((x + y) % N for x, y in zip(a, b)) in shifted

    def test_sparse_nonempty(self):
        f = random_density(CTX, seed=3, dist="sparse")
        assert f.num.any()

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            random_density(CTX, seed=0, dist="bogus")

    @pytest.mark.parametrize("den", [2, 3, 4, 6, 8, 12])
    def test_bulk_draw_equals_the_randint_loop(self, den):
        for count in (1, 2, 3, 16, 27, 144, 1728, 27_000):
            for seed in range(3):
                got = verify._randints(random.Random(seed), 4 * den + 1, count)
                assert np.array_equal(got, randints_loop(random.Random(seed), 4 * den + 1, count))


    @pytest.mark.parametrize("ctx", verify.corpus_rings(), ids=lambda c: c.describe())
    def test_vectorized_draws_equal_the_loop(self, ctx):
        for dist in DISTRIBUTIONS:
            for seed in range(4):
                for trial in range(12):
                    want = random_density_loop(ctx, seed, dist, trial)
                    assert random_density(ctx, seed, dist, trial) == want


class TestIndividualChecks:
    def test_radius_lemma_all_corpus_rings(self):
        from kakeyalab.verify import corpus_rings

        for ctx in corpus_rings():
            assert verify_radius_lemma(ctx).passed

    def test_plancherel(self):
        rep = verify_plancherel(CTX6, trials=8, seed=0)
        assert rep.passed and rep.worst_slack == 0

    def test_xray_l2(self):
        rep = verify_xray_l2(CTX6, trials=5, seed=0)
        assert rep.passed and rep.worst_slack == 0

    def test_freqbound_p2_exact(self):
        rep = verify_freqbound(CTX, 2, trials=6, seed=0)
        assert rep.passed and rep.comparator == "ge-exact"
        assert rep.worst_slack >= 0

    def test_freqbound_p3_exact(self):
        rep = verify_freqbound(CTX, 3, trials=6, seed=0)
        assert rep.passed and rep.comparator == "ge-exact"
        assert isinstance(rep.worst_slack, Fraction) and rep.worst_slack >= 0

    @pytest.mark.parametrize("ctx", [c for c in verify.corpus_rings()
                                     if c.dimension == 2 and not verify._needs_bands(c)],
                             ids=lambda c: c.describe())
    def test_freqbound_p3_attained_in_the_plane(self, ctx):
        # a line indicator (trial 2 or 6 is flat-supported) meets the p = 3
        # bound with equality on every banded n = 2 corpus ring, which only
        # an exact comparison can tell from a rounding error
        rep = verify_freqbound(ctx, 3, trials=8, seed=0)
        assert rep.passed and rep.worst_slack == 0

    def test_freqbound_rejects_small_p(self):
        rep = verify_freqbound(CTX, 1, trials=2, seed=0)
        assert rep.status == "skipped"

    def test_freqbounds_skip_small_p_in_place(self):
        # a p < 2 among several is the skip report of verify_freqbound, in
        # its place, not a failed ge-exact comparison
        ctx = RingContext.padic(2, 2, 3)
        got = verify.verify_freqbounds(ctx, (1, 2), 3, 0)
        assert [r.check for r in got] == ["freqbound[p=1]", "freqbound[p=2]"]
        assert got[0].status == "skipped"
        assert reports_to_json(got) == reports_to_json(
            [verify_freqbound(ctx, 1, 3, 0), verify_freqbound(ctx, 2, 3, 0)])

    def test_divisor_reduction_exact(self):
        rep = verify_divisor_reduction(CTX3D, None, trials=4, seed=0)
        assert rep.passed and rep.worst_slack == 0

    def test_divisor_reduction_profinite_divisibility(self):
        rep = verify_divisor_reduction(CTX6, 1, trials=3, seed=0)
        assert rep.passed and rep.worst_slack == 0

    def test_divisor_reduction_band_zero_is_mean_power(self):
        from kakeyalab.harmonic import band_project, xray_transform
        from kakeyalab.maximal import line_maximal

        f = random_density(CTX3D, seed=0, dist="uniform-rational")
        f0 = band_project(f, 0)
        from kakeyalab.geometry import enumerate_proj

        u = enumerate_proj(CTX3D)[0]
        prof = line_maximal(xray_transform(f0, u))
        n = CTX3D.dimension
        mean_pow = Fraction(sum(v ** (n - 1) for v in prof.values), len(prof.values))
        assert mean_pow == f.integral() ** (n - 1)

    def test_divisor_reduction_reports_constancy_violation(self):
        ctx = RingContext.profinite(3, 2, ScaleSemantics.NUMERIC)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = verify_divisor_reduction(ctx, 1, trials=1, seed=0)
        assert not rep.passed
        assert rep.details["violation_count"] > 0

    def test_projmax_exact(self):
        rep = verify_projmax(CTX3D, trials=4, seed=0)
        assert rep.passed and rep.worst_slack == 0

    def test_rounding(self):
        rep = verify_rounding(CTX, trials=20, seed=0)
        assert rep.passed

    def test_maxest_with_adversarial_extras(self):
        from kakeyalab.search import greedy_kakeya

        cert = greedy_kakeya(CTX3D, 1)
        extra = [Density.indicator(CTX3D, cert.points)]
        rep = verify_maxest(CTX3D, trials=10, seed=0, extra=extra)
        assert rep.passed and rep.trials == 11

    def test_main_theorem(self):
        rep = verify_main_theorem(CTX3D, trials=4, seed=0)
        assert rep.passed
        assert 0 < rep.details["ball_probe_lhs_over_rhs"] < 1

    def test_main_theorem_skips_low_dimension(self):
        rep = verify_main_theorem(CTX, trials=2, seed=0)
        assert rep.status == "skipped"

    def test_freqbound_numeric_semantics_profinite(self):
        # the moment bound holds under either band reading
        ctx = RingContext.profinite(2, 2, ScaleSemantics.NUMERIC)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = verify_freqbound(ctx, 2, trials=5, seed=0)
        assert rep.passed and rep.worst_slack >= 0

    def test_divisor_reduction_profinite_3d_all_bands(self):
        ctx = RingContext.profinite(2, 3)
        rep = verify_divisor_reduction(ctx, None, trials=2, seed=0)
        assert rep.passed and rep.worst_slack == 0


def corpus(ctx, seed, trials):
    return [random_density(ctx, seed, DISTRIBUTIONS[t % 4], trial=t) for t in range(trials)]


def mean_power(values, power):
    return Fraction(sum(v**power for v in values), len(values))


def divisor_reduction_oracle(ctx, band, densities):
    """The check one X-ray row at a time, through line_maximal and
    induce_to_modulus, with Fraction means."""
    n = ctx.dimension
    bands = range(ctx.num_bands) if band is None else [band]
    qctx = ctx.quotient()
    worst, witness, violations = Fraction(0), None, []
    for t, f in enumerate(densities):
        for i in bands:
            nums, den = xray_all(band_project(f, i))
            m_next = scale(i + 1, ctx, beyond_truncation=True)
            for ui, row in enumerate(nums):
                h = Density.from_numden(qctx, row, den)
                lhs = mean_power(line_maximal(h).values, n - 1)
                try:
                    h2 = induce_to_modulus(h, m_next)
                except ConstancyError as err:
                    violations.append({"trial": t, "band": i, "direction": ui,
                                       "violation": str(err.violation)})
                    continue
                diff = abs(lhs - mean_power(line_maximal(h2).values, n - 1))
                if diff > worst:
                    worst, witness = diff, {"trial": t, "band": i, "direction": ui}
    details = {}
    if violations:
        details["constancy_violations"] = violations[:5]
        details["violation_count"] = len(violations)
    return VerificationReport("divisor-reduction", ctx.describe(), len(densities), "eq-exact",
                              worst, worst == 0 and not violations, witness, details)


def projmax_oracle(ctx, densities, lift=None):
    """The check one (u, w) pair at a time, through flat_maximal and
    line_maximal profiles."""
    lift = tables.lift_map(ctx) if lift is None else lift
    qctx = ctx.quotient()
    worst, witness = Fraction(0), None
    for t, f in enumerate(densities):
        g = band_project(f, t % ctx.num_bands).abs()
        prof2 = flat_maximal(g, 2)
        nums, den = xray_all(g)
        for ui in range(len(tables.directions(ctx))):
            prof1 = line_maximal(Density.from_numden(qctx, nums[ui], den))
            for wi in range(len(tables.directions(qctx))):
                diff = abs(prof2.values[lift[(ui, wi)]] - prof1.values[wi])
                if diff > worst:
                    worst, witness = diff, {"trial": t, "direction": ui, "quotient_direction": wi}
    return VerificationReport("projmax", ctx.describe(), len(densities), "eq-exact",
                              worst, worst == 0, witness)


def large_densities(ctx, count):
    """Integer densities near 2**40, whose X-ray row maxima pass 2**31."""
    rng = np.random.default_rng(17)
    return [Density.from_numden(ctx, 2**40 + rng.integers(0, 2**36, ctx.size), 1)
            for _ in range(count)]


class TestBatchedAgainstRowOracles:
    """verify_divisor_reduction and verify_projmax take one batched maximum
    per band; the row-by-row loops they replaced must give the same JSON."""

    RINGS = [RingContext.padic(2, 2, 3), RingContext.profinite(2, 3),
             RingContext.padic(3, 1, 3), RingContext.profinite(2, 2)]
    NUMERIC = RingContext.profinite(3, 2, ScaleSemantics.NUMERIC)

    @pytest.mark.parametrize("ctx", RINGS, ids=lambda c: c.describe())
    def test_divisor_reduction(self, ctx):
        for seed in (0, 1):
            rep = verify_divisor_reduction(ctx, None, trials=4, seed=seed)
            oracle = divisor_reduction_oracle(ctx, None, corpus(ctx, seed, 4))
            assert reports_to_json([rep]) == reports_to_json([oracle])

    def test_divisor_reduction_numeric_violations(self):
        # numeric semantics over factorial scales: rows that break coset
        # constancy are reported, in order, and the rest are still compared
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = verify_divisor_reduction(self.NUMERIC, None, trials=3, seed=2)
            oracle = divisor_reduction_oracle(self.NUMERIC, None, corpus(self.NUMERIC, 2, 3))
        assert rep.details["violation_count"] > 5
        assert reports_to_json([rep]) == reports_to_json([oracle])

    @pytest.mark.parametrize("split", ["trials", "bands"])
    @pytest.mark.parametrize("ctx", RINGS + [NUMERIC], ids=lambda c: c.describe())
    def test_divisor_reduction_in_split_chunks(self, monkeypatch, ctx, split):
        # chunks of two trials with every band, or of one band of one trial,
        # give the row oracle's report; the projections' shapes show the split
        B, P, Q = ctx.num_bands, len(tables.directions(ctx)), ctx.size // ctx.modulus
        band_bytes = 8 * P * Q * verify._XRAY_SHARE  # one band's X-ray, in _CHUNK_BYTES
        monkeypatch.setattr(tables, "_CHUNK_BYTES", band_bytes * (2 * B if split == "trials" else 1))
        shapes = []

        def counted(f, part, _real=verify.band_project):
            shapes.append((len(f.num), len(part)))
            return _real(f, part)

        monkeypatch.setattr(verify, "band_project", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = verify_divisor_reduction(ctx, None, trials=5, seed=4)
            oracle = divisor_reduction_oracle(ctx, None, corpus(ctx, 4, 5))
        assert reports_to_json([rep]) == reports_to_json([oracle])
        assert shapes == ([(2, B), (2, B), (1, B)] if split == "trials" else [(1, 1)] * (5 * B))

    def test_divisor_reduction_witness_ties_in_trial_band_order(self, monkeypatch):
        # every band is compared at M = N through an index with two entries
        # swapped, so a row's gaps depend on its values alone.  Rows alternate
        # between two densities, g and h (h's largest gap the larger), so the
        # largest gap ties between (trial 0, band 1) and (trial 1, band 0) in
        # one chunk: the witness is the first in (trial, band, direction)
        # order, where a band-major loop would name trial 1
        ctx = RingContext.padic(2, 2, 3)

        def swapped(rows, c, M, _real=verify.induce_rows):
            mctx, index, gaps = _real(rows, c, M)
            index = index.copy()
            index[[0, 1]] = index[[1, 0]]
            return mctx, index, gaps

        def rows_of(pick):
            def project(f, part):
                rows = [pick(t, b) for t in range(len(f.num)) for b in range(len(part))]
                return Density(ctx, num=[r.num for r in rows], den=[r.den for r in rows])
            return project

        monkeypatch.setattr(verify, "scale", lambda i, c, beyond_truncation: c.modulus)
        monkeypatch.setattr(verify, "induce_rows", swapped)
        g, h = corpus(ctx, 0, 2)
        alone = []
        for d in (g, h):
            monkeypatch.setattr(verify, "band_project", rows_of(lambda t, b, d=d: d))
            alone.append(verify_divisor_reduction(ctx, None, trials=2, seed=0))
        assert alone[0].worst_slack != alone[1].worst_slack > 0
        if alone[0].worst_slack > alone[1].worst_slack:
            g, h, alone = h, g, alone[::-1]
        monkeypatch.setattr(verify, "band_project", rows_of(lambda t, b: h if (t + b) % 2 else g))
        rep = verify_divisor_reduction(ctx, None, trials=2, seed=0)
        assert not rep.passed and rep.worst_slack == alone[1].worst_slack
        assert rep.witness == {"trial": 0, "band": 1, "direction": alone[1].witness["direction"]}

    def test_divisor_reduction_one_projection_and_one_xray_per_chunk(self, monkeypatch):
        # counted in rows, wherever they are called from: five trials in one
        # chunk, then in chunks of two, each one projection into every band
        # and one X-ray pass over the chunk's (trial, band) rows
        import kakeyalab.harmonic as harmonic

        ctx = CTX3D
        B = ctx.num_bands
        trial_bytes = 8 * B * len(tables.directions(ctx)) * (ctx.size // ctx.modulus)
        for name in ("band_project", "xray_all"):
            def counted(f, *args, _real=getattr(harmonic, name), _name=name):
                rows[_name].append(len(f.num))
                return _real(f, *args)
            monkeypatch.setattr(harmonic, name, counted)
            monkeypatch.setattr(verify, name, counted)
        for chunk, sizes in ((tables._CHUNK_BYTES, [5]), (2 * trial_bytes * verify._XRAY_SHARE, [2, 2, 1])):
            monkeypatch.setattr(tables, "_CHUNK_BYTES", chunk)
            rows = {"band_project": [], "xray_all": []}
            rep = verify_divisor_reduction(ctx, None, trials=5, seed=0)
            assert rep.passed
            assert rows == {"band_project": sizes, "xray_all": [B * t for t in sizes]}

    def test_divisor_reduction_stack_refused_before_it_is_allocated(self, monkeypatch, capsys):
        # a budget that every table of the check fits but not the X-ray stack
        # of its first chunk: the chunk's estimate is refused before anything
        # of it is drawn, so the CLI exits 3, and xray_all refuses the same stack
        from kakeyalab import cli

        ctx = RingContext.padic(2, 3, 3)
        B, P, Q = ctx.num_bands, len(tables.directions(ctx)), ctx.size // ctx.modulus
        step = tables._CHUNK_BYTES // verify._XRAY_SHARE // (8 * B * P * Q)  # trials a chunk
        need = 8 * step * B * P * Q
        asked, projected = [], []

        def spy(nbytes, _real=tables.check_memory):
            asked.append(nbytes)
            _real(nbytes)

        monkeypatch.setattr(tables, "check_memory", spy)
        monkeypatch.setattr(tables, "_physical_memory", lambda: need - 1)
        monkeypatch.setattr(verify, "band_project", lambda f, part: projected.append(f))
        tables.coset_plan.cache_clear()
        argv = ["verify", "--mode", "padic", "-p", "2", "-l", "3", "-n", "3", "--trials", "25",
                "divisor-reduction"]  # divisor-reduction runs trials // 5
        assert step > 1 and cli.main(argv) == 3
        assert "exceeds physical memory" in capsys.readouterr().err
        assert asked[-1] == need and max(asked[:-1], default=0) < need and projected == []
        dens = corpus(ctx, 0, step)
        f = Density(ctx, num=[g.num for g in dens], den=[g.den for g in dens])
        with pytest.raises(tables.TableMemoryError) as err:
            xray_all(band_project(f, range(B)))
        assert err.value.estimate == need
        tables.coset_plan.cache_clear()

    @pytest.mark.parametrize("ctx", RINGS + [NUMERIC], ids=lambda c: c.describe())
    def test_projmax(self, ctx):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = verify_projmax(ctx, trials=4, seed=3)
            oracle = projmax_oracle(ctx, corpus(ctx, 3, 4))
        assert reports_to_json([rep]) == reports_to_json([oracle])

    def test_projmax_wrong_lift_same_witness(self, monkeypatch):
        # a failing report: the first largest gap in (u, w) order is the witness
        ctx = RingContext.padic(2, 2, 3)
        lift = tables.lift_map(ctx).copy()
        lift.flat[[3, 40]] = lift.flat[[40, 3]]  # the 4th and 41st pairs in (u, w) order
        monkeypatch.setattr(verify.tables, "lift_map", lambda c: lift)
        rep = verify_projmax(ctx, trials=4, seed=0)
        assert not rep.passed
        assert reports_to_json([rep]) == reports_to_json([projmax_oracle(ctx, corpus(ctx, 0, 4), lift)])

    def test_xray_l2_one_transform_and_one_xray_per_trial(self, monkeypatch):
        # counted in rows, since the check passes stacks of trials, wherever
        # they are called from, the identity's helpers included; the small
        # chunk bound splits the 5 trials into chunks of one.  The X-ray
        # pass is asked for the sums of squares alone
        import kakeyalab.harmonic as harmonic

        for name in ("fourier_forward", "xray_all"):
            def counted(f, *args, _real=getattr(harmonic, name), _name=name):
                rows[_name] += len(f.num) if f.num.ndim == 2 else 1
                asked.append((_name, args))
                return _real(f, *args)
            monkeypatch.setattr(harmonic, name, counted)
            monkeypatch.setattr(verify, name, counted)
        for chunk, chunks in ((tables._CHUNK_BYTES, 1), (1 << 10, 5)):
            monkeypatch.setattr(tables, "_CHUNK_BYTES", chunk)
            rows, asked = {"fourier_forward": 0, "xray_all": 0}, []
            rep = verify_xray_l2(CTX6, trials=5, seed=0)
            assert rep.passed and rows == {"fourier_forward": 5, "xray_all": 5}
            assert asked.count(("xray_all", ((2,),))) == chunks == len(asked) // 2

    def test_large_rows_are_exact(self, monkeypatch):
        # row maxima past 2**31, so (n-1)-th powers pass 2**62: the batched
        # moments must not wrap
        ctx = RingContext.padic(2, 2, 3)
        dens = large_densities(ctx, 2)
        assert max(int(xray_all(band_project(f, i))[0].max())
                   for f in dens for i in range(ctx.num_bands)) > 2**31
        monkeypatch.setattr(verify, "_corpus", lambda c, seed, trials: ((f.num, f.den) for f in dens))
        rep = verify_divisor_reduction(ctx, None, trials=2, seed=0)
        assert reports_to_json([rep]) == reports_to_json([divisor_reduction_oracle(ctx, None, dens)])
        rep = verify_projmax(ctx, trials=2, seed=0)
        assert reports_to_json([rep]) == reports_to_json([projmax_oracle(ctx, dens)])

    def test_projmax_stack_refused_before_it_is_allocated(self, monkeypatch, capsys):
        # a budget that every table of projmax fits but not the int64 X-ray
        # stack of its chunk of five trials: the chunk's estimate is refused
        # first, so the CLI exits 3 with nothing of the stack allocated, and
        # xray_all refuses the same stack on its own
        from kakeyalab import cli

        ctx = RingContext.padic(2, 3, 3)
        need = 8 * 5 * len(tables.directions(ctx)) * (ctx.size // ctx.modulus)
        asked = []

        def spy(nbytes, _real=tables.check_memory):
            asked.append(nbytes)
            _real(nbytes)

        monkeypatch.setattr(tables, "check_memory", spy)
        monkeypatch.setattr(tables, "_physical_memory", lambda: need - 1)
        for cache in (tables.coset_plan, tables.lift_map):
            cache.cache_clear()
        argv = ["verify", "--mode", "padic", "-p", "2", "-l", "3", "-n", "3", "--trials", "25",
                "projmax"]  # projmax runs trials // 5
        assert cli.main(argv) == 3
        assert "exceeds physical memory" in capsys.readouterr().err
        assert asked[-1] == need and max(asked[:-1]) < need
        dens = corpus(ctx, 0, 5)
        f = Density(ctx, num=[g.num for g in dens], den=[g.den for g in dens])
        with pytest.raises(tables.TableMemoryError) as err:
            xray_all(f)
        assert err.value.estimate == need
        assert len(xray_all(f, (2,))[0][0]) == 5  # the folded pass holds no stack
        for cache in (tables.coset_plan, tables.lift_map):
            cache.cache_clear()


def spectral_reports(ctx, trials, seed):
    """The stacked plancherel, xray-l2 and freqbound reports, and their row oracles'."""
    dens = corpus(ctx, seed, trials)
    got = [verify_plancherel(ctx, trials, seed), verify_xray_l2(ctx, trials, seed)]
    want = [plancherel_rows(ctx, dens), xray_l2_rows(ctx, dens)]
    if not verify._needs_bands(ctx):
        got += [verify_freqbound(ctx, p, trials, seed) for p in (2, 3)]
        want += [freqbound_rows(ctx, p, dens) for p in (2, 3)]
    return reports_to_json(got), reports_to_json(want)


class TestStackedAgainstRowOracles:
    """plancherel, xray-l2 and freqbound run each exact step once per chunk
    of trials; the trial-by-trial loops they replaced must give the same
    JSON, in one chunk and split into many."""

    @pytest.mark.parametrize("chunk", [None, 1 << 12], ids=["one-chunk", "small-chunks"])
    @pytest.mark.parametrize("ctx", verify.corpus_rings(), ids=lambda c: c.describe())
    def test_corpus(self, monkeypatch, ctx, chunk):
        if chunk:
            monkeypatch.setattr(tables, "_CHUNK_BYTES", chunk)
        for trials in (1, 4, 7, 13):
            got, want = spectral_reports(ctx, trials, seed=trials)
            assert got == want

    @pytest.mark.parametrize("ctx", [RingContext.padic(2, 2, 3), RingContext.profinite(2, 3)],
                             ids=lambda c: c.describe())
    def test_freqbounds_share_one_xray_pass(self, monkeypatch, ctx):
        # one report per p, each the bytes of its row oracle and of its own
        # verify_freqbound call, from one X-ray pass per chunk for every p
        monkeypatch.setattr(tables, "_CHUNK_BYTES", 1 << 12)  # several chunks
        calls = []

        def counted(f, powers, _real=verify.xray_all):
            calls.append(tuple(powers))
            return _real(f, powers)

        monkeypatch.setattr(verify, "xray_all", counted)
        ps = (2, 3, 4)
        got = reports_to_json(verify.verify_freqbounds(ctx, ps, 7, 3))
        passes = len(calls)
        assert passes > 1 and calls == [ps] * passes
        calls.clear()
        singles = reports_to_json([verify_freqbound(ctx, p, 7, 3) for p in ps])
        assert calls == [(p,) for p in ps for _ in range(passes)]
        want = reports_to_json([freqbound_rows(ctx, p, corpus(ctx, 3, 7)) for p in ps])
        assert got == singles == want

    def test_chunks_split(self, monkeypatch):
        # the small chunk bound really splits 13 trials, into chunks of more than one
        monkeypatch.setattr(tables, "_CHUNK_BYTES", 1 << 12)
        ctx = RingContext.padic(2, 2, 2)
        sizes = [len(f.num) for _, f in verify._stacks(ctx, 0, 13, ctx.size * ctx.modulus)]
        assert sum(sizes) == 13 and len(sizes) > 1 and max(sizes) > 1

    def test_failing_reports_name_the_same_witness(self, monkeypatch):
        # a shrunken band constant and a doubled spectrum fail the checks:
        # the first (trial, band) with the least slack, and the last trial
        # whose gap grew, are the witnesses of both; chunks of one and two
        # trials put them past the first chunk
        from kakeyalab import harmonic

        monkeypatch.setattr(tables, "_CHUNK_BYTES", 1 << 10)  # chunks of one and two trials

        def shrunken(i, m, c, _real=harmonic.band_constant):
            return _real(i, m, c) / 10**9

        def doubled(f, _real=harmonic.fourier_forward):
            s = _real(f)
            if s.lane == "exact":
                return harmonic.Spectrum(s.ctx, coeffs=s.coeffs * 2, den=s.den)
            return harmonic.Spectrum(s.ctx, values=s.values * 2)

        def scaled(s, _real=harmonic.xray_l2_spectral):
            return _real(s) * Fraction(11, 10)

        rings = (RingContext.padic(2, 2, 2), RingContext.profinite(2, 3))
        for module in (verify, oracles):
            monkeypatch.setattr(module, "band_constant", shrunken)
            monkeypatch.setattr(module, "fourier_forward", doubled)
        for ctx in rings:
            got, want = spectral_reports(ctx, 9, seed=5)
            assert got == want
            assert not any(rep["status"] == "pass" for rep in json.loads(got)["reports"])
        # the identity alone fails: its witness is the trial of the largest sum
        monkeypatch.undo()
        monkeypatch.setattr(tables, "_CHUNK_BYTES", 1 << 10)
        for module in (verify, oracles):
            monkeypatch.setattr(module, "xray_l2_spectral", scaled)
        for ctx in rings:
            got, want = spectral_reports(ctx, 9, seed=5)
            assert got == want
            witness = json.loads(got)["reports"][1]["witness"]
            assert witness["side"] == "identity" and witness["trial"] > 0

    @pytest.mark.parametrize("ctx", [RingContext.padic(2, 2, 2), RingContext.padic(2, 2, 3),
                                     RingContext.profinite(2, 2)], ids=lambda c: c.describe())
    def test_large_numerators(self, monkeypatch, ctx):
        # numerators near 2**40 overflow the spectral checks' headroom and
        # pass the band projections'; a stack raises OverflowError exactly
        # where the rows do, and otherwise gives the rows' report
        dens = corpus(ctx, 0, 3) + large_densities(ctx, 2)
        monkeypatch.setattr(verify, "_corpus", lambda c, seed, trials: ((f.num, f.den) for f in dens))
        cases = [(lambda: verify_plancherel(ctx, 5, 0), lambda: plancherel_rows(ctx, dens)),
                 (lambda: verify_xray_l2(ctx, 5, 0), lambda: xray_l2_rows(ctx, dens))]
        cases += [(lambda p=p: verify_freqbound(ctx, p, 5, 0), lambda p=p: freqbound_rows(ctx, p, dens))
                  for p in (2, 3)]
        outcomes = []
        for check, rows in cases:
            try:
                want = reports_to_json([rows()])
            except OverflowError:
                with pytest.raises(OverflowError):
                    check()
                outcomes.append("overflow")
            else:
                assert reports_to_json([check()]) == want
                outcomes.append("report")
        assert outcomes == ["overflow", "overflow", "report", "report"]


def maximal_reports(ctx, trials, seed, extra=()):
    """The stacked maxest, projmax and main-theorem reports (those the ring
    meets the needs of), and their row oracles'."""
    dens = corpus(ctx, seed, trials)
    got = [verify_maxest(ctx, trials, seed, extra)]
    want = [maxest_rows(ctx, dens + list(extra))]
    if not verify._needs_bands(ctx):
        got.append(verify_projmax(ctx, trials, seed))
        want.append(projmax_rows(ctx, dens))
    if not verify._needs_bands_n3(ctx) and ctx.num_bands >= 2:
        got.append(verify_main_theorem(ctx, trials, seed))
        want.append(main_theorem_rows(ctx, dens, random_density(ctx, seed, "ball")))
    return reports_to_json(got), reports_to_json(want)


class TestMaximalStackedAgainstRowOracles:
    """maxest, projmax and main-theorem take one coset_maxima per side and
    chunk of trials, and integer moments; the trial-by-trial loops they
    replaced must give the same JSON, in one chunk and split into many."""

    RINGS = [RingContext.padic(2, 3, 3), RingContext.padic(3, 2, 3), RingContext.generic(12, 3),
             RingContext.padic(2, 2, 3), RingContext.profinite(2, 3)]

    @pytest.mark.parametrize("chunk", [None, 1 << 16], ids=["one-chunk", "small-chunks"])
    @pytest.mark.parametrize("ctx", RINGS, ids=lambda c: c.describe())
    def test_maximal_rings(self, monkeypatch, ctx, chunk):
        if chunk:
            monkeypatch.setattr(tables, "_CHUNK_BYTES", chunk)
        for trials in (0, 1, 4, 9):
            got, want = maximal_reports(ctx, trials, seed=trials)
            assert got == want

    def test_chunks_split(self, monkeypatch):
        # the small chunk bound splits main-theorem's 8 trials into chunks
        # of three, the ball riding in the last
        monkeypatch.setattr(tables, "_CHUNK_BYTES", 1 << 16)
        ctx = RingContext.padic(2, 3, 3)
        ball = random_density(ctx, 0, "ball")
        width = (1 + ctx.num_bands) * ctx.size
        chunks = list(verify._stacks(ctx, 0, 8, width, (ball,)))
        assert [(lo, len(f.num)) for lo, f in chunks] == [(0, 3), (3, 3), (6, 3)]
        assert (chunks[-1][1].num[-1] == ball.num).all()

    def test_maxest_extras_of_mixed_denominators(self, monkeypatch):
        from kakeyalab.search import greedy_kakeya

        rng = np.random.default_rng(3)
        extra = [Density.indicator(CTX3D, greedy_kakeya(CTX3D, 1).points)]
        extra += [Density.from_numden(CTX3D, rng.integers(0, 4 * d, CTX3D.size), d) for d in (5, 7, 12)]
        assert len({f.den for f in extra}) == 4
        for chunk in (None, 1 << 10):  # chunks of two densities put extras in every chunk
            if chunk:
                monkeypatch.setattr(tables, "_CHUNK_BYTES", chunk)
            for trials in (0, 3):
                rep = verify_maxest(CTX3D, trials, 1, extra)
                assert rep.trials == trials + 4
                want = maxest_rows(CTX3D, corpus(CTX3D, 1, trials) + extra)
                assert reports_to_json([rep]) == reports_to_json([want])

    def test_failing_reports_name_the_same_witness(self, monkeypatch):
        # an inflated appendix constant fails maxest on every trial and
        # main-theorem on its bands: the witnesses are the last violation
        # and the first least slack, past the first chunk
        def inflated(N, n, _real=appendix_constant):
            return _real(N, n) * 10**12

        monkeypatch.setattr(tables, "_CHUNK_BYTES", 1 << 16)
        for module in (verify, oracles):
            monkeypatch.setattr(module, "appendix_constant", inflated)
        for ctx in (RingContext.padic(2, 3, 3), RingContext.padic(3, 2, 3)):
            got, want = maximal_reports(ctx, 9, seed=1)
            assert got == want
            reports = json.loads(got)["reports"]
            assert [rep["status"] for rep in reports] == ["FAIL", "pass", "FAIL"]
            assert reports[0]["witness"] == {"trial": 8, "failure": "inequality violated"}
            assert reports[2]["witness"] == {"trial": 4, "stage": "band 0"}

    @pytest.mark.parametrize("ctx, bits, expected", [
        (RingContext.padic(2, 2, 3), 40, ["report"] * 3),
        (RingContext.padic(2, 2, 3), 50, ["report", "report", "overflow"]),
        (RingContext.padic(2, 3, 3), 44, ["report", "overflow", "overflow"]),
    ], ids=["2^40", "2^50", "2^44"])
    def test_large_numerators(self, monkeypatch, ctx, bits, expected):
        # numerators near 2**bits overflow some checks' headroom and pass
        # others'; a stack raises OverflowError exactly where the rows do, and
        # otherwise gives the rows' report
        rng = np.random.default_rng(17)
        dens = corpus(ctx, 0, 3) + [Density.from_numden(ctx, 2**bits + rng.integers(0, 2**36, ctx.size), 1)
                                    for _ in range(2)]
        monkeypatch.setattr(verify, "_corpus", lambda c, seed, trials: ((f.num, f.den) for f in dens))
        ball = random_density(ctx, 0, "ball")
        cases = [(lambda: verify_maxest(ctx, 5, 0), lambda: maxest_rows(ctx, dens)),
                 (lambda: verify_projmax(ctx, 5, 0), lambda: projmax_rows(ctx, dens)),
                 (lambda: verify_main_theorem(ctx, 5, 0), lambda: main_theorem_rows(ctx, dens, ball))]
        outcomes = []
        for check, rows in cases:
            try:
                want = reports_to_json([rows()])
            except OverflowError:
                with pytest.raises(OverflowError):
                    check()
                outcomes.append("overflow")
            else:
                assert reports_to_json([check()]) == want
                outcomes.append("report")
        assert outcomes == expected


class TestBesicovitchCases:
    def test_full_space(self):
        from kakeyalab.verify import verify_besicovitch

        ctx = RingContext.padic(2, 1, 3)
        rep = verify_besicovitch(list(ctx.points()), ctx)
        assert rep.passed
        assert rep.details["delta_sq"] == "1" and rep.details["measure"] == "1"

    def test_single_plane_has_half_delta(self):
        from kakeyalab.verify import verify_besicovitch

        ctx = RingContext.padic(2, 1, 3)
        plane = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        rep = verify_besicovitch(plane, ctx)
        assert rep.passed
        assert rep.details["delta_sq"] == "1/2" and rep.details["measure"] == "1/2"


class TestSuite:
    def test_unknown_check_id(self):
        with pytest.raises(KeyError):
            run_checks(["bogus"], trials=1)

    def test_explicit_ring(self):
        reports = run_checks(["radiusN", "plancherel"], seed=0, trials=3, ctx=CTX)
        assert [r.check for r in reports] == ["radiusN", "plancherel"]
        assert all(r.passed for r in reports)

    @staticmethod
    def clear_tables():
        for cached in vars(tables).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()

    def test_one_coset_table_per_ring_k_and_rule(self):
        # coset_maxima and xray_all ask for three plans (planes and lines of
        # the ring, lines of its quotient), one cache entry each, not one
        # more per spelling of the call; lift_map and the plans build no
        # whole table
        self.clear_tables()
        verify_projmax(RingContext.padic(2, 3, 3), 1, 1)
        assert tables.coset_table.cache_info().currsize == 0
        assert tables.coset_plan.cache_info().currsize == 3

    def test_checks_build_no_whole_coset_table(self):
        # only the witness paths (profiles, mweight, certify) and the search
        # read the whole table, and no check but besicovitch takes them
        self.clear_tables()
        ids = [cid for cid in verify.CHECK_IDS if cid != "besicovitch"]
        reports = run_checks(ids, seed=1, trials=5, ctx=RingContext.padic(2, 3, 3))
        assert len(reports) == len(ids) + 1 and all(r.passed for r in reports)  # freqbound p = 2, 3
        assert tables.coset_table.cache_info().currsize == 0

    def test_reports_reproducible_bytes(self):
        a = run_checks(["radiusN", "plancherel", "rounding"], seed=4, trials=5, ctx=CTX6)
        b = run_checks(["radiusN", "plancherel", "rounding"], seed=4, trials=5, ctx=CTX6)
        assert reports_to_json(a) == reports_to_json(b)

    def test_workers_flag_and_env_change_nothing(self, monkeypatch, capsys):
        # checks run sequentially: --workers is accepted and ignored, and
        # KAKEYALAB_WORKERS is not read
        from kakeyalab import cli

        monkeypatch.delenv("KAKEYALAB_WORKERS", raising=False)
        argv = ["verify", "--mode", "padic", "-p", "2", "-l", "2", "-n", "2",
                "--seed", "1", "--trials", "3", "radiusN", "plancherel"]
        outs = []
        for extra, env in (([], None), (["--workers", "4"], None), ([], "4")):
            if env is not None:
                monkeypatch.setenv("KAKEYALAB_WORKERS", env)
            assert cli.main(argv + extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]

    def test_wall_time_covers_the_whole_job(self, monkeypatch):
        # a report's time counts the work done for it before its check
        # starts (the greedy search of besicovitch), and the table calls the
        # check patched into the module, not one captured at import
        import kakeyalab.search as search

        def slow(fn):
            def sleeping(*args, **kwargs):
                time.sleep(0.05)
                return fn(*args, **kwargs)
            return sleeping

        monkeypatch.setattr(search, "greedy_kakeya", slow(search.greedy_kakeya))
        monkeypatch.setattr(verify, "verify_plancherel", slow(verify.verify_plancherel))
        reports = run_checks(["besicovitch", "plancherel"], trials=1,
                             ctx=RingContext.padic(2, 1, 3))
        assert [r.check for r in reports] == ["besicovitch", "plancherel"]
        assert all(r.passed and r.wall_time >= 0.05 for r in reports)

    REPORTS = {
        "generic(N=4) n=3": [
            ("radiusN", "pass", 64, {}),
            ("plancherel", "pass", 3, {"float_worst": pytest.approx(0.0, abs=1e-12)}),
            ("xray-l2", "pass", 3, {}),
            ("freqbound", "skipped", 0, {"skipped": "no scale sequence"}),
            ("divisor-reduction", "skipped", 0, {"skipped": "no scale sequence"}),
            ("projmax", "skipped", 0, {"skipped": "no scale sequence"}),
            ("rounding", "pass", 1, {}),
            ("maxest", "pass", 3, {"constant": "560/316496410737"}),
            ("main-theorem", "skipped", 0, {"skipped": "needs bands and n >= 3"}),
            ("besicovitch", "skipped", 0, {"skipped": "needs bands and n >= 3"}),
        ],
        "padic(p=2, ell=2) n=2": [
            ("radiusN", "pass", 16, {}),
            ("plancherel", "pass", 3, {"float_worst": pytest.approx(6.66e-16, abs=1e-12)}),
            ("xray-l2", "pass", 3, {}),
            ("freqbound[p=2]", "pass", 3, {}),
            ("freqbound[p=3]", "pass", 3, {}),
            ("divisor-reduction", "pass", 1, {}),
            ("projmax", "pass", 1, {}),
            ("rounding", "pass", 1, {}),
            ("maxest", "pass", 3, {"constant": "695531/256584497214"}),
            ("main-theorem", "skipped", 0, {"skipped": "needs bands and n >= 3"}),
            ("besicovitch", "skipped", 0, {"skipped": "needs bands and n >= 3"}),
        ],
    }

    @pytest.mark.parametrize("ctx", [RingContext.generic(4, 3), CTX], ids=lambda c: c.describe())
    def test_every_check_on_an_explicit_ring(self, ctx):
        # the check table's needs and trial rules: what each check id
        # reports on a ring without bands and on a ring of dimension 2
        got = [(r.check, r.status, r.trials, r.details)
               for cid in verify.CHECK_IDS for r in run_checks([cid], seed=2, trials=3, ctx=ctx)]
        assert got == self.REPORTS[ctx.describe()]

    def test_json_schema(self):
        reports = run_checks(["radiusN"], ctx=CTX)
        payload = json.loads(reports_to_json(reports))
        assert payload["schema"] == 1
        assert payload["all_passed"] is True
        assert "wall_time_s" not in payload["reports"][0]
        timed = json.loads(reports_to_json(reports, include_timings=True))
        assert "wall_time_s" in timed["reports"][0]
