import json
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import kakeyalab.verify as verify
from kakeyalab import tables
from kakeyalab.harmonic import (ConstancyError, Density, band_project,
                                induce_to_modulus, xray_all)
from kakeyalab.maximal import flat_maximal, line_maximal
from kakeyalab.ring import RingContext, ScaleSemantics, scale
from kakeyalab.serialize import reports_to_json
from kakeyalab.verify import (DISTRIBUTIONS, VerificationReport, random_density, run_checks,
                              verify_divisor_reduction, verify_freqbound,
                              verify_main_theorem, verify_maxest,
                              verify_plancherel, verify_projmax,
                              verify_radius_lemma, verify_rounding,
                              verify_xray_l2)

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

    def test_freqbound_p3_float(self):
        rep = verify_freqbound(CTX, 3, trials=6, seed=0)
        assert rep.passed and rep.comparator == "ge-float"

    def test_freqbound_rejects_small_p(self):
        rep = verify_freqbound(CTX, 1, trials=2, seed=0)
        assert rep.status == "skipped"

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
        lift = dict(tables.lift_map(ctx))
        keys = sorted(lift)
        lift[keys[3]], lift[keys[40]] = lift[keys[40]], lift[keys[3]]
        monkeypatch.setattr(verify.tables, "lift_map", lambda c: lift)
        rep = verify_projmax(ctx, trials=4, seed=0)
        assert not rep.passed
        assert reports_to_json([rep]) == reports_to_json([projmax_oracle(ctx, corpus(ctx, 0, 4), lift)])

    def test_xray_l2_one_transform_and_one_xray_per_trial(self, monkeypatch):
        # counted wherever they are called from, the identity's helpers included
        import kakeyalab.harmonic as harmonic

        calls = {"fourier_forward": 0, "xray_all": 0}
        for name in calls:
            def counted(*args, _real=getattr(harmonic, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(harmonic, name, counted)
            monkeypatch.setattr(verify, name, counted)
        rep = verify_xray_l2(CTX6, trials=5, seed=0)
        assert rep.passed and calls == {"fourier_forward": 5, "xray_all": 5}

    def test_large_rows_are_exact(self, monkeypatch):
        # row maxima past 2**31, so (n-1)-th powers pass 2**62: the batched
        # moments must not wrap
        ctx = RingContext.padic(2, 2, 3)
        dens = large_densities(ctx, 2)
        assert max(int(xray_all(band_project(f, i))[0].max())
                   for f in dens for i in range(ctx.num_bands)) > 2**31
        monkeypatch.setattr(verify, "_corpus", lambda c, seed, trials: iter(dens))
        rep = verify_divisor_reduction(ctx, None, trials=2, seed=0)
        assert reports_to_json([rep]) == reports_to_json([divisor_reduction_oracle(ctx, None, dens)])
        rep = verify_projmax(ctx, trials=2, seed=0)
        assert reports_to_json([rep]) == reports_to_json([projmax_oracle(ctx, dens)])


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
