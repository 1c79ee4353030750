import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeyalab import tables
from kakeyalab.ring import (Generic, PAdic, Profinite, RingContext, ScaleOverflowError,
                            ScaleSemantics, ScaleUndefinedError, factorize, scale)
from oracles import crt_combine_scalar


def trial_division_oracle(n):
    out = []
    d = 2
    while n > 1:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return out


class TestFactorize:
    def test_examples(self):
        assert factorize(12) == [(2, 2), (3, 1)]
        assert factorize(1) == []
        assert factorize(720) == [(2, 4), (3, 2), (5, 1)]

    def test_against_oracle(self):
        for n in range(1, 400):
            assert factorize(n) == trial_division_oracle(n)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_product_reconstructs(self, n):
        assert math.prod(p**r for p, r in factorize(n)) == n
        primes = [p for p, _ in factorize(n)]
        assert primes == sorted(primes)


class TestCrt:
    """crt_combine_scalar inverts the split x -> (x mod q) over the prime
    powers q of N, a ring isomorphism."""

    @staticmethod
    def split(x, N):
        return [x % p**r for p, r in factorize(N)]

    def test_scalar_example(self):
        assert self.split(7, 12) == [3, 1]
        assert crt_combine_scalar([3, 1], 12) == 7

    def test_zero_vector(self):
        assert self.split(0, 30) == [0, 0, 0]
        assert crt_combine_scalar([0, 0, 0], 30) == 0

    def test_round_trip_mod_30(self):
        for x in range(30):
            assert crt_combine_scalar(self.split(x, 30), 30) == x

    def test_componentwise_ring_map(self):
        for x, y in ((5, 7), (10, 3), (11, 11)):
            for op in (lambda a, b: a + b, lambda a, b: a * b):
                parts = [op(a, b) for a, b in zip(self.split(x, 12), self.split(y, 12))]
                assert crt_combine_scalar(parts, 12) == op(x, y) % 12

    def test_rejects_wrong_component_count(self):
        with pytest.raises(ValueError):
            crt_combine_scalar([1], 12)


class TestDualValuation:
    """tables.valuations against the least annihilator, found by scanning."""

    def scan_oracle(self, a, N):
        for m in range(1, N + 1):
            if all(m * c % N == 0 for c in a):
                return m
        raise AssertionError("no annihilator found")

    @staticmethod
    def valuation(a, N):
        ctx = RingContext.generic(N, len(a))
        return int(tables.valuations(ctx)[ctx.rank(a)])

    def test_examples(self):
        assert self.valuation((2, 0), 4) == 2 == self.scan_oracle((2, 0), 4)
        assert self.valuation((0, 0, 0), 9) == 1
        assert self.valuation((3, 0), 9) == 3 == self.scan_oracle((3, 0), 9)

    def test_scan_oracle_everywhere(self):
        for N in (4, 6, 9, 12):
            ctx = RingContext.generic(N, 2)
            vals = tables.valuations(ctx)
            for a, v in zip(ctx.points(), vals.tolist()):
                assert v == self.scan_oracle(a, N)
                assert N % v == 0

    @given(st.integers(min_value=2, max_value=60),
           st.lists(st.integers(min_value=0, max_value=59), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_minimality(self, N, a):
        v = self.valuation(a, N)
        assert all(v * c % N == 0 for c in a)
        for m in range(1, v):
            assert any(m * c % N != 0 for c in a)


class TestScales:
    def test_padic_example(self):
        ctx = RingContext.padic(2, 3, 2)
        assert scale(3, ctx) == 8

    def test_profinite_examples(self):
        ctx = RingContext.profinite(3, 2)
        assert scale(0, ctx) == 1
        assert scale(3, ctx) == 24

    def test_overflow_reported(self):
        ctx = RingContext.padic(2, 2, 2)
        with pytest.raises(ScaleOverflowError):
            scale(3, ctx)
        assert scale(3, ctx, beyond_truncation=True) == 8

    def test_generic_has_no_scales(self):
        ctx = RingContext.generic(12, 2)
        with pytest.raises(ScaleUndefinedError):
            scale(0, ctx)

    def test_divisibility_chain(self):
        for ctx in (RingContext.padic(3, 3, 2), RingContext.profinite(3, 2)):
            ms = [scale(i, ctx) for i in range(ctx.num_bands)]
            assert ms[0] == 1
            assert all(b % a == 0 and b > a for a, b in zip(ms, ms[1:]))

    def test_every_divisor_reached_within_truncation(self):
        for ctx in (RingContext.padic(2, 3, 2), RingContext.profinite(2, 2)):
            ms = [scale(i, ctx) for i in range(ctx.num_bands)]
            for d in ctx.divisors():
                assert any(m % d == 0 for m in ms)


class TestRingContext:
    def test_mode_modulus_consistency(self):
        assert RingContext.padic(2, 3, 2).modulus == 8
        assert RingContext.profinite(2, 2).modulus == 6
        # the mode fixes N: a context is its (mode, dimension, semantics)
        contexts = [RingContext(mode, n, sem) for mode in (PAdic(2, 3), Profinite(3), Generic(8))
                    for n in (2, 3) for sem in ScaleSemantics]
        copies = [RingContext(ctx.mode, ctx.dimension, ctx.scale_semantics) for ctx in contexts]
        for (i, a), (j, b) in itertools.product(enumerate(contexts), enumerate(copies)):
            assert (a == b) == (i == j)
            if i == j:
                assert hash(a) == hash(b)
        for ctx in contexts:
            assert ctx.modulus == ctx.mode.modulus
            assert ctx.factorization == tuple(factorize(ctx.modulus))
        q = RingContext.profinite(3, 3).quotient()
        assert (q.modulus, q.factorization) == (24, ((2, 3), (3, 1)))
        assert q == RingContext.profinite(3, 2)

    def test_rank_unrank_lexicographic(self):
        ctx = RingContext.generic(5, 3)
        pts = list(ctx.points())
        assert pts == sorted(pts)
        for i, x in enumerate(pts):
            assert ctx.rank(x) == i
            assert ctx.unrank(i) == x

    @pytest.mark.parametrize("p", [-3, 0, 1, 4, 9, 15])
    def test_padic_needs_prime_p(self, p):
        # through the constructor and through the mode alike
        with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
            RingContext.padic(p, 2, 3)
        with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
            RingContext(PAdic(p, 2), 3, ScaleSemantics.NUMERIC)
        assert RingContext.padic(13, 1, 2).factorization == ((13, 1),)

    def test_quotient(self):
        ctx = RingContext.padic(2, 2, 3)
        q = ctx.quotient()
        assert q.dimension == 2 and q.modulus == 4 and q.mode == ctx.mode

    def test_divisors(self):
        assert RingContext.generic(12, 1).divisors() == (1, 2, 3, 4, 6, 12)
