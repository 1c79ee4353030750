import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from kakeyalab import search, tables
from kakeyalab.geometry import EnumerationCapError, enumerate_grassmannian
from kakeyalab.ring import RingContext
from kakeyalab.search import (BudgetExceeded, certify, exact_min_kakeya,
                              greedy_kakeya, translate_options)
from kakeyalab.tables import TableMemoryError
from oracles import (certify_bitmask, exact_bitmask, flat_points, greedy_bitmask,
                     greedy_bitmask_choices)

EXACT = [(RingContext.padic(7, 1, 2), 1), (RingContext.padic(2, 2, 3), 2),
         (RingContext.padic(3, 1, 3), 2), (RingContext.padic(2, 3, 2), 1),
         (RingContext.generic(6, 2), 1), (RingContext.padic(2, 2, 2), 1),
         (RingContext.padic(2, 1, 3), 2)]


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
        # padic(2,3,3) lines: a 114,688-byte table, but 112 lines of 64
        # cosets, each a 64-byte bitmask, take 458,752 bytes; only the
        # exact search builds bitmasks
        from kakeyalab.cli import main

        ctx = RingContext.padic(2, 3, 3)
        monkeypatch.setattr(tables, "_physical_memory", lambda: 300_000)
        translate_options.cache_clear()
        with pytest.raises(TableMemoryError) as err:
            translate_options(ctx, 1)
        assert str(112 * 64 * 64) in str(err.value)
        assert main(["search", "-k", "1", "--mode", "padic", "-p", "2", "-l", "3", "-n", "3",
                     "--strategy", "exact"]) == 3
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
        # one translate per orbit at every flat, at the root the one through
        # the origin
        cert = exact_min_kakeya(ctx, 1)
        assert cert.optimal
        assert cert.size == exhaustive_minimum(ctx, 1) == want

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_prime_planes_reach_the_least_kakeya_set(self, p):
        # Blokhuis-Mazzocca: the least Kakeya set of AG(2, q), q odd, has
        # q(q + 1)/2 + (q - 1)/2 points; p = 11 is proven within the
        # default budget
        cert = exact_min_kakeya(RingContext.padic(p, 1, 2), 1)
        assert cert.optimal
        assert cert.size == p * (p + 1) // 2 + (p - 1) // 2

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


def ring_id(case):
    return getattr(case, "describe", lambda: str(case))()


class TestCosetOf:
    @pytest.mark.parametrize("ctx,k", [(RingContext.padic(2, 2, 3), 2),
                                       (RingContext.generic(6, 3), 1),
                                       (RingContext.generic(17, 3), 1)], ids=ring_id)
    def test_each_point_lies_in_its_coset(self, ctx, k):
        table, least = tables.coset_table(ctx, k)
        order = np.argsort(least, axis=1)
        coset_of = search._coset_of(table, order, ctx.size)
        F, C, _ = table.shape
        assert coset_of.shape == (F, ctx.size)
        assert coset_of.dtype == (np.uint8 if C <= 256 else np.uint16)  # C = 289 at N = 17
        # every point of row order[f, j] of flat f reads j
        got = np.take_along_axis(coset_of, table.reshape(F, -1).astype(np.intp), axis=1)
        assert (got.reshape(table.shape) == np.argsort(order, axis=1)[:, :, None]).all()

    def test_over_memory_refused(self, monkeypatch, capsys):
        # padic(2,3,3) lines: 112 lines of 64 cosets, so one byte per
        # (line, point), 57,344 bytes, refused once the table is built
        from kakeyalab.cli import main

        ctx = RingContext.padic(2, 3, 3)
        tables.coset_table(ctx, 1)
        monkeypatch.setattr(tables, "_physical_memory", lambda: 57_343)
        with pytest.raises(TableMemoryError) as err:
            greedy_kakeya(ctx, 1)
        assert err.value.estimate == 112 * 512
        assert main(["search", "-k", "1", "--mode", "padic", "-p", "2", "-l", "3", "-n", "3"]) == 3
        assert "exceeds physical memory" in capsys.readouterr().err
        monkeypatch.setattr(tables, "_physical_memory", lambda: 57_344)
        assert greedy_kakeya(ctx, 1).size == greedy_bitmask(ctx, 1).size


class TestAgainstBitmaskOracles:
    """The searches on coverage counts make the choices, node for node,
    of the searches on bitmasks they replaced."""

    GREEDY = [(RingContext.padic(2, 2, 3), 1), (RingContext.padic(2, 2, 3), 2),
              (RingContext.generic(6, 3), 1), (RingContext.generic(6, 3), 2),
              (RingContext.padic(3, 2, 3), 2), (RingContext.profinite(2, 3), 1),
              (RingContext.profinite(2, 3), 2), (RingContext.generic(12, 2), 1),
              (RingContext.padic(2, 1, 4), 2)]

    @pytest.mark.parametrize("ctx,k", GREEDY, ids=ring_id)
    def test_greedy_choices(self, ctx, k):
        table, least, order, coset_of = search._shift_index(ctx, k)
        grid = tables.coord_grid(ctx)
        chosen, size = search._greedy(ctx, table, order, coset_of)
        committed = [(f, tuple(grid[least[f, row]].tolist())) for f, row in chosen]
        want = greedy_bitmask_choices(translate_options(ctx, k))
        assert committed == [(f, shift) for f, _, shift in want]
        assert greedy_kakeya(ctx, k) == greedy_bitmask(ctx, k)
        assert size == greedy_kakeya(ctx, k).size

    @pytest.mark.parametrize("ctx,k", [(RingContext.padic(2, 1, 2), 1),
                                       (RingContext.padic(3, 1, 2), 1),
                                       (RingContext.padic(2, 2, 2), 1),
                                       (RingContext.padic(2, 1, 3), 2),
                                       (RingContext.generic(6, 2), 1),
                                       (RingContext.padic(2, 2, 3), 2),
                                       (RingContext.padic(2, 2, 3), 3)], ids=ring_id)
    def test_certify_on_random_sets(self, ctx, k):
        rng = random.Random(f"certify|{ctx.describe()}|{k}")
        points = list(ctx.points())
        base = list(greedy_kakeya(ctx, k).points)
        sets = [base, base[1:], points, [], [(p[0] + ctx.modulus,) + p[1:] for p in base]]
        for _ in range(30):
            sets.append(rng.sample(points, rng.randint(1, ctx.size)))
            sets.append(base + rng.sample(points, rng.randint(0, 4)))
        outcomes = set()
        for pts in sets:
            try:
                want = certify_bitmask(pts, ctx, k)
            except ValueError as err:
                with pytest.raises(ValueError) as got:
                    certify(pts, ctx, k)
                assert str(got.value) == str(err)
                outcomes.add("error")
            else:
                assert certify(pts, ctx, k) == want
                outcomes.add("certified")
        assert outcomes == {"error", "certified"}

    def test_certify_malformed_point(self):
        ctx = RingContext.padic(2, 1, 3)
        pts = [(0, 0, 0), (1, 1)]
        with pytest.raises(ValueError) as want:
            certify_bitmask(pts, ctx, 1)
        with pytest.raises(ValueError) as got:
            certify(pts, ctx, 1)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("ctx,k", EXACT, ids=ring_id)
    def test_exact_certificates_and_nodes(self, ctx, k):
        want, nodes = exact_bitmask(ctx, k)
        # a budget of exactly the oracle's node count completes, one node
        # less runs out: the search expands the same number of nodes
        assert exact_min_kakeya(ctx, k, budget=nodes) == want
        budgets = sorted({b for b in (1, 2, 3, 1000, 3000, 5000, nodes // 2, nodes - 1)
                          if 1 <= b < nodes})
        assert nodes - 1 in budgets
        for budget in budgets:
            with pytest.raises(BudgetExceeded) as expected:
                exact_bitmask(ctx, k, budget)
            with pytest.raises(BudgetExceeded) as got:
                exact_min_kakeya(ctx, k, budget)
            assert got.value.certificate == expected.value.certificate

    def test_budget_below_one_refused(self):
        ctx = RingContext.padic(2, 1, 3)
        for budget in (0, -5):
            with pytest.raises(ValueError, match="budget"):
                exact_min_kakeya(ctx, 2, budget=budget)

    @pytest.mark.parametrize("ctx,k", EXACT + [(RingContext.padic(3, 1, 2), 1),
                                               (RingContext.padic(5, 1, 2), 1),
                                               (RingContext.padic(3, 1, 3), 1),
                                               (RingContext.padic(3, 2, 2), 1)], ids=ring_id)
    def test_orbit_rule_keeps_the_certificate(self, ctx, k):
        # the oracle that branches on every translate below the root finds
        # the certificate that the search over orbit representatives finds
        want, _ = exact_bitmask(ctx, k, orbits=False)
        assert exact_min_kakeya(ctx, k) == want


class TestOrbitRepresentatives:
    """The lemma behind the exact search's branching rule, checked on
    point sets: the maps x -> lam x + s, s in S_i (the intersection of the
    flats before i) and lam a unit whose dilation maps every chosen coset
    that added points onto itself, fix every union of cosets of those
    flats."""

    @pytest.mark.parametrize("ctx,k", [(RingContext.padic(2, 2, 2), 1),
                                       (RingContext.generic(6, 2), 1),
                                       (RingContext.padic(3, 1, 2), 1),
                                       (RingContext.padic(2, 1, 3), 2),
                                       (RingContext.padic(2, 2, 3), 1),
                                       (RingContext.padic(3, 2, 2), 1)], ids=ring_id)
    def test_orbits_have_equal_increments(self, ctx, k):
        N = ctx.modulus
        flats = tables.flats(ctx, k)
        # the translates of each flat, in shift order, as point sets
        cosets = [[frozenset(ctx.unrank(r) for r in range(ctx.size) if mask >> r & 1)
                   for mask, _ in opts] for opts in translate_options(ctx, k)]
        where = [{pt: j for j, coset in enumerate(cs) for pt in coset} for cs in cosets]
        inside = [set(ctx.points())]  # S_i
        for flat in flats:
            inside.append(inside[-1] & flat_points(flat))
        orbits = []  # per flat, the S_i-orbit of each translate as a set of positions
        for i, cs in enumerate(cosets):
            orbits.append([{where[i][tuple((a + b) % N for a, b in zip(pt, s))]
                            for pt in coset for s in inside[i]} for coset in cs])
        units = [lam for lam in range(2, N) if math.gcd(lam, N) == 1]

        def dilate(coset, lam):
            return frozenset(tuple(lam * a % N for a in pt) for pt in coset)

        # per flat and unit, the position of the dilate of each translate,
        # which must itself be a translate
        dilates = [[[cs.index(dilate(coset, lam)) for coset in cs] for lam in units]
                   for cs in cosets]
        _, least, order, coset_of = search._shift_index(ctx, k)
        reps, low, dilated = search._orbit_representatives(ctx, least, order, coset_of)
        assert len(reps) == len(low) == len(dilated) == len(flats)
        for i, orbit in enumerate(orbits):
            assert reps[i] == sorted({min(o) for o in orbit})
            assert all(min(orbit[j]) == j for j in reps[i])
            assert low[i] == [min(o) for o in orbit]
            assert dilated[i] == dilates[i]
        assert reps[0] == [0]
        rng = random.Random(f"orbits|{ctx.describe()}|{k}")
        dilations_used = 0
        for _ in range(25):
            d = rng.randrange(len(flats))
            union, fixing = set(), units
            for f in range(d):
                # the translate through the origin half the time, which
                # keeps every unit over a prime field
                coset = cosets[f][0] if rng.random() < 0.5 else rng.choice(cosets[f])
                if coset - union:
                    fixing = [lam for lam in fixing if dilate(coset, lam) == coset]
                    union |= coset
            dilations_used += bool(fixing)
            for i in range(d, len(flats)):
                for j in range(len(cosets[i])):
                    orbit = orbits[i][j].union(*(orbits[i][dilates[i][units.index(lam)][j]]
                                                 for lam in fixing))
                    assert len({len(cosets[i][m] - union) for m in orbit}) == 1
        assert dilations_used or not units

    def test_over_memory_refused(self, monkeypatch):
        # padic(2,2,3) lines: 16 cosets moved by all 64 points, as 3
        # coordinates and a rank in int64, 32,768 bytes at S_0
        ctx = RingContext.padic(2, 2, 3)
        _, least, order, coset_of = search._shift_index(ctx, 1)
        monkeypatch.setattr(tables, "_physical_memory", lambda: 32_767)
        with pytest.raises(TableMemoryError) as err:
            search._orbit_representatives(ctx, least, order, coset_of)
        assert err.value.estimate == 16 * 64 * 4 * 8
        monkeypatch.setattr(tables, "_physical_memory", lambda: 32_768)
        assert search._orbit_representatives(ctx, least, order, coset_of)[0][0] == [0]
