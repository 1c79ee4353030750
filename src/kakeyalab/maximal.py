"""Maximal operators over k-flats and the explicit constants they obey.

The order-k maximal operator assigns to each k-flat direction the largest
normalized mass of |f| over any translate:

    maxop_k f(U) = max_a N**(-k) sum_{x in U} |f(a + x)|

(f_star is the unnormalized line version, f_star = N * maxop_1 f).  A
flat U through the origin is a submodule, so the mass of |f| on a + U
depends only on the coset of a: coset_maxima reads tables.coset_table,
sums each coset once, and takes the largest coset sum per flat, for a
whole stack of rows (every X-ray of a density, say).  It works point-major:
a chunk of rows is held as (points, rows), so every gathered point copies
its values for all rows of the chunk at once, and the points of each coset
are added slab by slab into an accumulator for a block of flats.
Both operators are one row of it.  The witness is the lexicographically
least achieving shift, which is the least rank among the cosets that
reach the maximum.  The exact lane sums int64 numerators under the
shared headroom check; the float lane sums doubles.

The constants half evaluates, factor by factor and with no simplification,
the integer-density bound constant, the rounding-based rational-density
constant, and the scale-chain constant that feeds the 2-flat norm
inequality.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import tables
from .geometry import proj_size
from .harmonic import Density, _check_headroom
from .ring import RingContext, scale


@dataclass(frozen=True)
class MaximalProfile:
    """Values and achieving shifts of a maximal operator, per flat.

    Witnesses are the lexicographically least achieving shifts, which
    makes every downstream consumer deterministic.
    """

    k: int
    keys: tuple
    values: tuple
    witnesses: tuple[tuple[int, ...], ...]

    def value(self, key) -> Fraction:
        return self.values[self.keys.index(key)]

    def witness(self, key) -> tuple[int, ...]:
        return self.witnesses[self.keys.index(key)]

    def min_value(self):
        return min(self.values)

    def max_value(self):
        return max(self.values)


# Two budgets, both in bytes of int64.  A chunk of rows is taken point-major
# as (size, rows) and holds about _CHUNK_BYTES: each gathered index then
# copies one contiguous value per row, which pays only when chunks are
# wide (about 130 rows on padic(5,3,2); at 6 rows a stack there ran 3x
# slower).  Within a chunk the flats go in blocks whose accumulator and
# whose index, converted once from the int32 table (numpy gathers faster
# through intp), each hold at most about _BLOCK_BYTES, small enough to stay
# in cache; for one row the index is the whole gather.  A tall stack
# gathered at once could take tens of GiB (the induced X-rays of
# profinite(3,3) band 3 would take about 45 GiB).
_CHUNK_BYTES = 1 << 24
_BLOCK_BYTES = 1 << 18


def coset_maxima(rows: np.ndarray, ctx: RingContext, k: int, pivot_rule: str = "first",
                 witnesses: bool = False, index: np.ndarray | None = None):
    """The largest coset sum of |rows| per k-flat, for a stack of rows at once.

    rows is (R, size): int64 numerators (the exact lane, under the headroom
    check) or floats.  With an index, row r is read through it: its value
    at point x of ctx is rows[r, index[x]] (a pull-back, say, from
    harmonic.induce_rows), so the induced stack is never built.  Returns
    (R, F) maxima, flats in coset_table order.  With witnesses=True it
    returns (maxima, least), where least[r, i] is the least rank among the
    cosets of flat i whose sum reaches the maximum: all shifts in a coset
    share its sum, so that is the lex-least achieving shift.

    The sums run point-major: a chunk of rows (about _CHUNK_BYTES) is
    taken as |rows|.T, shape (size, rows), and for each block of flats
    (about _BLOCK_BYTES) the N**k points of every coset are added into a
    (flats, size // N**k, rows) accumulator one table[:, :, j] slab at a
    time.  A chunk of one row is one gather per block, summed over the
    coset axis.  Float sums therefore depend on the chunking in their last
    bits; integer sums do not.
    """
    table, least = tables.coset_table(ctx, k, pivot_rule)
    nflats, ncosets, npts = table.shape
    exact = rows.dtype.kind == "i"
    if exact:  # the largest |row entry|, without an abs copy of the stack
        _check_headroom(max(int(rows.max(initial=0)), -int(rows.min(initial=0))) * ctx.modulus**k)
    dtype = np.int64 if exact else rows.real.dtype
    step = max(1, _CHUNK_BYTES // (8 * ctx.size))
    best = np.empty((len(rows), nflats), dtype=dtype)
    arg = np.empty(best.shape, dtype=np.int64) if witnesses else None
    for lo in range(0, len(rows), step):
        a = np.ascontiguousarray(np.abs(rows[lo:lo + step]).T, dtype=dtype)  # (size, r)
        if index is not None:
            a = a[index]
        width = a.shape[1]
        block = max(1, _BLOCK_BYTES // (8 * ncosets * max(npts, width)))
        for f0 in range(0, nflats, block):
            t = table[f0:f0 + block].astype(np.intp)
            if width == 1:
                sums = np.einsum("fqj->fq", a[:, 0][t])[..., None]
            else:
                sums = a[t[:, :, 0]]
                for j in range(1, npts):
                    sums += a[t[:, :, j]]
            top = sums.max(axis=1)  # (flats in the block, r)
            best[lo:lo + step, f0:f0 + block] = top.T
            if witnesses:
                arg[lo:lo + step, f0:f0 + block] = np.where(
                    sums == top[:, None], least[f0:f0 + block, :, None], ctx.size).min(axis=1).T
    return (best, arg) if witnesses else best


def _maximal(f: Density, k: int, keys, pivot_rule: str = "first") -> MaximalProfile:
    """One row of coset_maxima, as exact or float values with witnesses."""
    ctx = f.ctx
    npts = ctx.modulus**k
    rows = f.num[None] if f.lane == "exact" else f.data[None]
    best, arg = coset_maxima(rows, ctx, k, pivot_rule, witnesses=True)
    witnesses = tuple(map(tuple, tables.coord_grid(ctx)[arg[0]].tolist()))
    if f.lane == "exact":
        values = tuple(Fraction(b, f.den * npts) for b in best[0].tolist())
    else:
        values = tuple(b / npts for b in best[0].tolist())
    return MaximalProfile(k, tuple(keys), values, witnesses)


def line_maximal(f: Density, pivot_rule: str = "first") -> MaximalProfile:
    """maxop_1 over every direction of P (Z/NZ)^(n-1).

    Absolute values are taken inside, matching the operator definition;
    nonnegative inputs are unaffected.  pivot_rule picks the line table's
    row order only; values and witnesses do not depend on it.
    """
    return _maximal(f, 1, tables.directions(f.ctx), pivot_rule)


def flat_maximal(f: Density, k: int) -> MaximalProfile:
    """maxop_k over every flat of Gr((Z/NZ)^n, k)."""
    return _maximal(f, k, tables.flats(f.ctx, k))


def f_star(f: Density) -> MaximalProfile:
    """The unnormalized line maximal function, f_star = N * maxop_1 f."""
    prof = line_maximal(f)
    N = f.ctx.modulus
    return MaximalProfile(1, prof.keys, tuple(v * N for v in prof.values), prof.witnesses)


# ---------------------------------------------------------------------------
# p-maximal weight and rounding
# ---------------------------------------------------------------------------


def mweight(f: Density, p: int) -> int:
    """The p-maximal weight of an integer-valued density.

    For each direction pick the lexicographically least shift achieving
    f_star, split that line into its mod-p**k and mod-N0 component lines,
    and take the largest partial line sum over the p-part:

        max over u, z in L_0(u) of sum_{x in L_p(u)} f((x, z)).

    Over a prime-power modulus this is simply max_u f_star(u).
    """
    ctx = f.ctx
    N, n = ctx.modulus, ctx.dimension
    if N % p:
        raise ValueError(f"{p} does not divide the modulus {N}")
    if f.lane != "exact" or f.den != 1 or (f.num < 0).any():
        raise ValueError("mweight needs a nonnegative integer-valued density")
    q = 1
    rest = N
    while rest % p == 0:
        rest //= p
        q *= p
    prof = line_maximal(f)
    best = 0
    for u, a in zip(prof.keys, prof.witnesses):
        line_pts_p = _line_points(a, u.rep, q, n)
        line_pts_0 = _line_points(a, u.rep, rest, n)
        for z in line_pts_0:
            total = 0
            for x in line_pts_p:
                point = _combine_point(x, z, q, rest, N, n)
                total += int(f.num[ctx.rank(point)])
            best = max(best, total)
    return best


def _line_points(a: Sequence[int], u: Sequence[int], m: int, n: int) -> list[tuple[int, ...]]:
    if m == 1:
        return [(0,) * n]
    seen = []
    got = set()
    for t in range(m):
        pt = tuple((a[i] + t * u[i]) % m for i in range(n))
        if pt not in got:
            got.add(pt)
            seen.append(pt)
    return seen


def _combine_point(x: Sequence[int], z: Sequence[int], q: int, rest: int, N: int, n: int) -> tuple[int, ...]:
    if rest == 1:
        return tuple(x)
    if q == 1:
        return tuple(z)
    inv_q = pow(q, -1, rest)
    inv_r = pow(rest, -1, q)
    return tuple((x[i] * rest * inv_r + z[i] * q * inv_q) % N for i in range(n))


def rounding_g(f: Density) -> Density:
    """Round values up to the grid: g(x) = ceil(N f(x)) / N.

    Requires 0 <= f <= 1.  Then g >= f pointwise, N*g is integer valued in
    {0, ..., N}, and whenever sum f**n >= 1 the mass bound
    sum g**n <= (2**n + 1) sum f**n holds.
    """
    ctx = f.ctx
    if f.lane != "exact":
        raise ValueError("rounding is an exact-lane operation")
    N = ctx.modulus
    if (f.num < 0).any() or (f.num > f.den).any():
        raise ValueError("rounding requires 0 <= f <= 1")
    scaled = np.array([-((-int(v) * N) // f.den) for v in f.num], dtype=np.int64)
    return Density(ctx, num=scaled, den=N)


# ---------------------------------------------------------------------------
# explicit constants
# ---------------------------------------------------------------------------


def _ceil_log(base: int, x: int) -> int:
    """Smallest integer e >= 0 with base**e >= x, exact (no float logs)."""
    if x <= 1:
        return 0
    e = 0
    power = 1
    while power < x:
        power *= base
        e += 1
    return e


def _ln(x) -> Fraction:
    """Natural log embedded exactly into Q via its IEEE double.

    These constants mix natural logs with exact integer data; freezing
    the double keeps every downstream comparison deterministic and
    exactly reproducible.
    """
    return Fraction(math.log(x))


def _later_primes_block(factors, n: int) -> Fraction:
    """last * prod_{i=2}^{r-1} mid_i: the factors after the first prime."""
    pr, kr = factors[-1]
    block = Fraction(1, 2 * (kr + _ceil_log(pr, n)))
    for p_i, k_i in factors[1:-1]:
        block *= 1 / (2 * (k_i * _ln(p_i) + 1) * (k_i + _ceil_log(p_i, n)))
    return block


def maxN_constant(f: Density, ctx: RingContext) -> Fraction:
    """The integer-density bound constant, evaluated factor by factor.

    With N = p_1**k_1 ... p_r**k_r (primes ascending) and
    mw = mweight(f, p_1):

        first  = 1 / (2 (ln mw + 1) ceil(log_{p_1} mw + log_{p_1} n))
        last   = 1 / (2 (k_r + ceil(log_{p_r} n)))
        mid_i  = 1 / (2 (k_i ln p_i + 1)(k_i + ceil(log_{p_i} n)))

        C = first**n                      for r = 1
        C = first**n * (last * prod_{i=2}^{r-1} mid_i)**n   otherwise

    (the middle product is empty at r = 2).
    """
    n = ctx.dimension
    factors = ctx.factorization
    p1 = factors[0][0]
    mw = mweight(f, p1)
    ceil_term = _ceil_log(p1, mw * n)
    first = 1 / (2 * (_ln(mw) + 1) * ceil_term)
    if len(factors) == 1:
        return first**n
    return first**n * _later_primes_block(factors, n)**n


def appendix_constant(N: int, n: int) -> Fraction:
    """The rational-density constant D_{N,n} / (2**n + 1).

    D uses the worst-case weight bound mweight <= N**2, which turns the
    first factor into 1 / (2 (2 ln N + 1)(2 log_{p_1} N + log_{p_1} n + 1));
    the last-prime factor applies for every r >= 1 and the middle product
    is empty below r = 3.  This is the constant the verifier plugs into
    the rational-density maximal inequality.
    """
    from .ring import factorize

    if N < 2:
        raise ValueError("N must be >= 2")
    factors = factorize(N)
    p1 = factors[0][0]
    lg = _ln(N) / _ln(p1)
    lgn = _ln(n) / _ln(p1)
    first = 1 / (2 * (2 * _ln(N) + 1) * (2 * lg + lgn + 1))
    return first**n * _later_primes_block(factors, n)**n / (2**n + 1)


@dataclass(frozen=True)
class ChainConstant:
    """Partial sums of the scale chain and the effective norm constant.

    term_i = (ratio_i / C_{M_{i+1}, n-1})**(1/(n-1)) with
    ratio_i = |P(Z/M_i)^{n-2}| / |P(Z/M_i)^{n-1}| and C instantiated as
    appendix_constant.  effective = S**-(n-1) multiplies the averaged
    2-flat maximal power in the norm inequality.
    """

    dimension: int
    depth: int
    scales: tuple[int, ...]
    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    sum_raised: float
    effective: Fraction


def chain_constant(ctx: RingContext, depth: int) -> ChainConstant:
    """Evaluate the scale chain to the given depth (bands past the
    truncation only contribute constants, so any depth >= 1 is allowed)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = ctx.dimension
    if n < 3:
        raise ValueError("the chain constant needs dimension >= 3")
    terms = []
    partials = []
    scales_used = []
    total = 0.0
    for i in range(depth):
        m_i = scale(i, ctx, beyond_truncation=True)
        m_next = scale(i + 1, ctx, beyond_truncation=True)
        ratio = Fraction(proj_size(m_i, n - 1), proj_size(m_i, n))
        c_next = appendix_constant(m_next, n - 1)
        term = float(ratio / c_next) ** (1.0 / (n - 1))
        terms.append(term)
        total += term
        partials.append(total)
        scales_used.append(m_i)
    raised = total ** (n - 1)
    return ChainConstant(n, depth, tuple(scales_used), tuple(terms), tuple(partials),
                         raised, Fraction(1) / Fraction(raised))


@dataclass(frozen=True)
class ConstantLedger:
    """All explicit constants for one ring, ready for serialization.

    maxN_reference is the integer-density constant evaluated on the
    single-point indicator (weight 1), the cleanest reproducible anchor.
    """

    modulus: int
    dimension: int
    maxN_reference: Fraction
    appendix: Fraction
    chain: ChainConstant | None


def constant_ledger(ctx: RingContext, depth: int | None = None) -> ConstantLedger:
    point = Density.indicator(ctx, [(0,) * ctx.dimension])
    chain = None
    if ctx.dimension >= 3:
        chain = chain_constant(ctx, ctx.num_bands if depth is None else depth)
    return ConstantLedger(ctx.modulus, ctx.dimension, maxN_constant(point, ctx),
                          appendix_constant(ctx.modulus, ctx.dimension), chain)
