import hashlib
import itertools
import time
from fractions import Fraction

import pytest

from kakeyalab import tables
from kakeyalab.geometry import EnumerationCapError, enumerate_grassmannian, flat_points
from kakeyalab.ring import RingContext
from kakeyalab.search import (BudgetExceeded, certify, exact_min_kakeya,
                              greedy_kakeya, translate_options)
from kakeyalab.tables import TableMemoryError


def shift_by_shift_translates(ctx, flat):
    """Oracle: distinct translates of a flat as (bitmask, lex-least shift)
    pairs ordered by that shift, built by shifting its points one shift at
    a time in lex order."""
    N = ctx.modulus
    base = sorted(flat_points(flat))
    seen = {}
    for i in range(ctx.size):
        a = ctx.unrank(i)
        mask = 0
        for pt in base:
            mask |= 1 << ctx.rank(tuple((p + c) % N for p, c in zip(pt, a)))
        if mask not in seen:
            seen[mask] = a
    return sorted(seen.items(), key=lambda kv: kv[1])


def exhaustive_minimum(ctx, k):
    """Oracle: try every combination of one translate per direction."""
    N = ctx.modulus
    flats = enumerate_grassmannian(ctx, k)
    per_flat = []
    for F in flats:
        translates = set()
        for shift in ctx.points():
            pts = frozenset(tuple((p + s) % N for p, s in zip(pt, shift))
                            for pt in flat_points(F))
            translates.add(pts)
        per_flat.append(sorted(translates, key=sorted))
    best = ctx.size + 1
    for combo in itertools.product(*per_flat):
        union = set().union(*combo)
        best = min(best, len(union))
    return best


class TestTranslateOptions:
    CASES = [(RingContext.padic(7, 1, 2), 1), (RingContext.padic(2, 2, 3), 1),
             (RingContext.padic(2, 2, 3), 2), (RingContext.generic(6, 3), 1),
             (RingContext.generic(6, 3), 2), (RingContext.generic(12, 2), 1),
             (RingContext.padic(3, 1, 3), 2)]

    @pytest.mark.parametrize("ctx,k", CASES, ids=lambda c: getattr(c, "describe", lambda: str(c))())
    def test_matches_shift_by_shift_oracle(self, ctx, k):
        options = translate_options(ctx, k)
        flats = tables.flats(ctx, k)
        assert len(options) == len(flats)
        for flat, opts in zip(flats, options):
            assert list(opts) == shift_by_shift_translates(ctx, flat)

    def test_oversized_ring_refused_before_enumeration(self):
        # 1,835,008 lines (under the enumeration cap) times 2**30 points
        # would take about 7.9 PB of coset table
        ctx = RingContext.padic(2, 10, 3)
        started = time.perf_counter()
        with pytest.raises(TableMemoryError) as err:
            translate_options(ctx, 1)
        assert time.perf_counter() - started < 1.0
        assert isinstance(err.value, EnumerationCapError)
        assert str(4 * 1_835_008 * 2**30) in str(err.value)

    def test_bitmasks_over_memory_refused(self, monkeypatch, capsys):
        # padic(2,3,3) lines: a 229,376-byte table, but 112 lines of 64
        # cosets, each a 64-byte bitmask, take 458,752 bytes
        from kakeyalab.cli import main

        ctx = RingContext.padic(2, 3, 3)
        monkeypatch.setattr(tables, "_physical_memory", lambda: 300_000)
        translate_options.cache_clear()
        with pytest.raises(TableMemoryError) as err:
            translate_options(ctx, 1)
        assert str(112 * 64 * 64) in str(err.value)
        assert main(["search", "-k", "1", "--mode", "padic", "-p", "2", "-l", "3", "-n", "3"]) == 3
        assert "exceeds physical memory" in capsys.readouterr().err
        monkeypatch.setattr(tables, "_physical_memory", lambda: 500_000)
        assert len(translate_options(ctx, 1)) == 112


class TestGreedy:
    def test_k_equals_n_is_whole_space(self):
        ctx = RingContext.padic(2, 1, 2)
        cert = greedy_kakeya(ctx, 2)
        assert cert.size == 4 and cert.measure == 1

    def test_mod2_line_bounds(self):
        ctx = RingContext.padic(2, 1, 2)
        cert = greedy_kakeya(ctx, 1)
        assert 2 <= cert.size <= 4

    def test_mod3_line_bound(self):
        ctx = RingContext.padic(3, 1, 2)
        cert = greedy_kakeya(ctx, 1)
        assert cert.size >= 5  # ceil(9 / 2)

    def test_greedy_always_certifies(self):
        for ctx, k in [(RingContext.padic(2, 1, 3), 1),
                       (RingContext.padic(2, 1, 3), 2),
                       (RingContext.generic(6, 2), 1),
                       (RingContext.padic(3, 1, 3), 2)]:
            cert = greedy_kakeya(ctx, k)
            verified = certify(cert.points, ctx, k)
            assert verified.size == cert.size

    def test_deterministic(self):
        ctx = RingContext.padic(3, 1, 2)
        a = greedy_kakeya(ctx, 1)
        b = greedy_kakeya(ctx, 1)
        assert a.points == b.points and a.witnesses == b.witnesses


class TestExactMinimum:
    def test_mod2_plane_matches_oracle(self):
        ctx = RingContext.padic(2, 1, 2)
        cert = exact_min_kakeya(ctx, 1)
        assert cert.optimal
        assert cert.size == exhaustive_minimum(ctx, 1) == 3  # frozen regression

    def test_mod3_plane_matches_oracle(self):
        ctx = RingContext.padic(3, 1, 2)
        cert = exact_min_kakeya(ctx, 1)
        assert cert.size == exhaustive_minimum(ctx, 1) == 7  # frozen regression

    def test_mod2_cube_2flats(self):
        ctx = RingContext.padic(2, 1, 3)
        cert = exact_min_kakeya(ctx, 2)
        assert cert.size == exhaustive_minimum(ctx, 2) == 7  # frozen regression

    def test_mod3_cube_2flats_regression(self):
        ctx = RingContext.padic(3, 1, 3)
        cert = exact_min_kakeya(ctx, 2)
        assert cert.optimal
        assert cert.size == 25  # frozen after first computation

    @pytest.mark.parametrize("ctx,want", [(RingContext.padic(2, 2, 2), 10),
                                          (RingContext.padic(2, 1, 3), 5)],
                             ids=lambda c: getattr(c, "describe", lambda: str(c))())
    def test_lines_match_oracle_beyond_prime_planes(self, ctx, want):
        # the root fixes the first direction's translate through the origin
        cert = exact_min_kakeya(ctx, 1)
        assert cert.optimal
        assert cert.size == exhaustive_minimum(ctx, 1) == want

    def test_k_equals_n_immediate(self):
        ctx = RingContext.padic(3, 1, 2)
        cert = exact_min_kakeya(ctx, 2)
        assert cert.optimal and cert.size == 9

    def test_minimum_certificates_certify(self):
        ctx = RingContext.padic(2, 1, 3)
        cert = exact_min_kakeya(ctx, 2)
        assert certify(cert.points, ctx, 2).size == cert.size

    def test_greedy_never_beats_exact(self):
        for ctx, k in [(RingContext.padic(2, 1, 2), 1),
                       (RingContext.padic(3, 1, 2), 1),
                       (RingContext.padic(2, 1, 3), 2),
                       (RingContext.padic(3, 1, 3), 2)]:
            assert greedy_kakeya(ctx, k).size >= exact_min_kakeya(ctx, k).size

    def test_budget_exhaustion_flags_certificate(self):
        ctx = RingContext.padic(3, 1, 3)
        with pytest.raises(BudgetExceeded) as err:
            exact_min_kakeya(ctx, 2, budget=3)
        cert = err.value.certificate
        assert not cert.optimal
        assert certify(cert.points, ctx, 2).size == cert.size

    def test_witnesses_are_contained_translates(self):
        ctx = RingContext.padic(2, 1, 3)
        cert = exact_min_kakeya(ctx, 2)
        pts = cert.point_set()
        for flat, shift in cert.witnesses:
            translate = {tuple((p + s) % 2 for p, s in zip(pt, shift))
                         for pt in flat_points(flat)}
            assert translate <= pts
        assert {f for f, _ in cert.witnesses} == set(enumerate_grassmannian(ctx, 2))


def digest(cert):
    return hashlib.sha256(repr((cert.points, cert.witnesses)).encode()).hexdigest()[:16]


class TestFrozenCertificates:
    """Certificates of the benchmark's searches, frozen from the
    shift-by-shift search that preceded the coset-table one."""

    def test_exact_7_plane_lines(self):
        cert = exact_min_kakeya(RingContext.padic(7, 1, 2), 1)
        assert (cert.size, cert.optimal, digest(cert)) == (31, True, "d84750128db0a747")

    def test_exact_4_cube_planes(self):
        cert = exact_min_kakeya(RingContext.padic(2, 2, 3), 2)
        assert (cert.size, cert.optimal, digest(cert)) == (55, True, "e59c8e0b639a4ff0")

    def test_greedy_6_cube_lines(self):
        cert = greedy_kakeya(RingContext.generic(6, 3), 1)
        assert (cert.size, digest(cert)) == (85, "2de6bbb77b4838c3")


class TestSizeLowerBounds:
    def test_prime_field_line_bound(self):
        # |S| >= N**n / 2**(n-1) for k = 1 over prime N
        for p, n in [(2, 2), (3, 2), (2, 3), (3, 3)]:
            ctx = RingContext.padic(p, 1, n)
            cert = greedy_kakeya(ctx, 1)
            assert cert.size >= Fraction(p**n, 2 ** (n - 1))

    def test_quant_bound_on_exact_2flat_minima(self):
        from kakeyalab.verify import verify_besicovitch

        for p in (2, 3):
            ctx = RingContext.padic(p, 1, 3)
            cert = exact_min_kakeya(ctx, 2)
            report = verify_besicovitch(cert.points, ctx)
            assert report.passed
            assert report.details["delta_sq"] == "1"


class TestCertify:
    def test_whole_space(self):
        ctx = RingContext.padic(2, 1, 2)
        cert = certify(list(ctx.points()), ctx, 1)
        assert all(shift == (0, 0) for _, shift in cert.witnesses)

    def test_wrong_point_length_rejected(self):
        # rank folds the extra digit in, which once certified the whole plane
        ctx = RingContext.padic(2, 1, 2)
        with pytest.raises(ValueError, match="coordinates"):
            certify([(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)], ctx, 1)

    def test_single_line_fails_elsewhere(self):
        ctx = RingContext.padic(2, 1, 2)
        with pytest.raises(ValueError, match="no translate"):
            certify([(0, 0), (1, 0)], ctx, 1)
