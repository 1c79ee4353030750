"""Maximal operators over k-flats and the explicit constants they obey.

The order-k maximal operator assigns to each k-flat direction the largest
normalized mass of |f| over any translate:

    maxop_k f(U) = max_a N**(-k) sum_{x in U} |f(a + x)|

(f_star is the unnormalized line version, f_star = N * maxop_1 f).  A
flat U through the origin is a submodule, so the mass of |f| on a + U
depends only on the coset of a, so each coset is summed once.  Two
paths, one per job.  coset_maxima takes the largest coset sum per flat
for a whole stack of exact rows (every X-ray of a density, say), through
tables.coset_sums over tables.coset_plan, one CRT component of the
modulus at a time and one p-adic level of each component at a time, each
level one tables.gather_sums over the stack held point-major; it is what
the checks read.  The profiles of
line_maximal, flat_maximal and f_star, and mweight, read one row over
the whole coset table through tables.coset_argmax, which also gives the
witness: the lexicographically least achieving shift, the least rank
among the cosets that reach the maximum.  The exact lane sums int32 or
int64 numerators under the shared headroom check; the float lane sums
doubles.

The constants half evaluates, factor by factor and with no simplification,
the integer-density bound constant, the rounding-based rational-density
constant, and the scale-chain constant that feeds the 2-flat norm
inequality.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import tables
from .geometry import proj_size
from .harmonic import _INT_HEADROOM, Density, _abs_max, _sum_dtype
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


def coset_maxima(rows: np.ndarray, ctx: RingContext, k: int, index: np.ndarray | None = None):
    """The largest coset sum of |rows| per k-flat, for a stack of rows at once.

    rows is (R, size) int64 numerators, under the headroom check.  With an
    index, row r is read through it: its value at point x of ctx is
    rows[r, index[x]] (a pull-back, say, from harmonic.induce_rows), so the
    induced stack is never built.  Returns (R, F) int64 maxima, flats in
    coset_table order.

    The sums run a chunk of rows at a time (tables.blocks) through
    tables.coset_sums over tables.coset_plan, one p-adic tower per CRT
    component, in int32 where max|row| * N**k < 2**31: every partial sum
    of a level is a sum over part of a coset, under the same bound.
    """
    if rows.dtype.kind != "i":
        raise TypeError("coset_maxima takes integer numerators")
    # the largest |row entry|, without an abs copy of the stack
    dtype = _sum_dtype(_abs_max(rows) * ctx.modulus**k)
    plan = tables.coset_plan(ctx, k)
    m = len(plan.towers)
    # held: the (chunk, size) rows that coset_sums gathers
    chunks = tables.blocks(len(rows), dtype.itemsize * plan.width, tables._CHUNK_BYTES,
                           held=dtype.itemsize * ctx.size)
    best = np.empty((len(rows), math.prod(plan.flat_shape)), dtype=np.int64)
    for chunk in chunks:
        a = np.abs(rows[chunk]).astype(dtype, copy=False)
        out = best[chunk].reshape((len(a),) + plan.flat_shape)
        for f0, sums in tables.coset_sums(a, plan, index):
            # sums is (rows, F_1, ..., F_(m-1), flats in the block, Q_1, ..., Q_m)
            top = sums.max(axis=tuple(range(-m, 0)))
            out[..., f0:f0 + top.shape[-1]] = top
    return best


def _maximal(f: Density, k: int, keys) -> MaximalProfile:
    """The largest coset sum of |f| per flat and its lex-least witness
    (tables.coset_argmax), as exact or float values."""
    ctx = f.ctx
    npts = ctx.modulus**k
    exact = f.lane == "exact"
    values = np.abs(f.num).astype(_sum_dtype(_abs_max(f.num) * npts)) if exact else np.abs(f.data)
    best, row = tables.coset_argmax(values, ctx, k)
    least = tables.coset_table(ctx, k)[1]
    shifts = tables.coord_grid(ctx)[least[np.arange(len(least)), row]]
    maxima = tuple(Fraction(b, f.den * npts) if exact else b / npts for b in best.tolist())
    return MaximalProfile(k, tuple(keys), maxima, tuple(map(tuple, shifts.tolist())))


def line_maximal(f: Density) -> MaximalProfile:
    """maxop_1 over every direction of P (Z/NZ)^(n-1).

    Absolute values are taken inside, matching the operator definition;
    nonnegative inputs are unaffected.
    """
    return _maximal(f, 1, tables.directions(f.ctx))


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

    Over a prime-power modulus this is simply max_u f_star(u).  The
    witness line is the line-table row that tables.coset_argmax picks; its
    points step along u for t = 0..N-1, so those with one mod-N0
    component z are those with t fixed mod N0: a column of the row taken
    as (p**k, N0).  Numerators past the headroom raise OverflowError.
    """
    ctx = f.ctx
    N = ctx.modulus
    if p not in dict(ctx.factorization):
        raise ValueError(f"{p} is not a prime factor of the modulus {N}")
    if f.lane != "exact" or f.den != 1 or (f.num < 0).any():
        raise ValueError("mweight needs a nonnegative integer-valued density")
    q = 1
    while N % (q * p) == 0:
        q *= p
    table = tables.coset_table(ctx, 1)[0]
    row = tables.coset_argmax(f.num.astype(_sum_dtype(_abs_max(f.num) * N)), ctx, 1)[1]
    rows = table[np.arange(len(table)), row]
    return int(f.num[rows].reshape(len(rows), q, N // q).sum(axis=1).max())


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
    num = f.num if f.den * N < _INT_HEADROOM else f.num.astype(object)  # num * N <= den * N
    return Density(ctx, num=-(-num * N // f.den), den=N)


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
    """The integer-density bound constant at mw = mweight(f, p_1)."""
    return _maxN_at_weight(mweight(f, ctx.factorization[0][0]), ctx)


def _maxN_at_weight(mw: int, ctx: RingContext) -> Fraction:
    """The integer-density bound constant, evaluated factor by factor.

    With N = p_1**k_1 ... p_r**k_r (primes ascending) and weight mw:

        first  = 1 / (2 (ln mw + 1) ceil(log_{p_1} mw + log_{p_1} n))
        last   = 1 / (2 (k_r + ceil(log_{p_r} n)))
        mid_i  = 1 / (2 (k_i ln p_i + 1)(k_i + ceil(log_{p_i} n)))

        C = first**n                      for r = 1
        C = first**n * (last * prod_{i=2}^{r-1} mid_i)**n   otherwise

    (the middle product is empty at r = 2); undefined at mw * n = 1 (ValueError).
    """
    n = ctx.dimension
    factors = ctx.factorization
    p1 = factors[0][0]
    ceil_term = _ceil_log(p1, mw * n)
    if ceil_term == 0:
        raise ValueError(f"the integer-density constant is undefined at weight {mw} and n = {n}")
    first = 1 / (2 * (_ln(mw) + 1) * ceil_term)
    if len(factors) == 1:
        return first**n
    return first**n * _later_primes_block(factors, n)**n


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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

    maxN_reference is the integer-density constant at weight 1, the
    mweight of a single-point indicator: the cleanest reproducible anchor.
    """

    modulus: int
    dimension: int
    maxN_reference: Fraction
    appendix: Fraction
    chain: ChainConstant | None


def constant_ledger(ctx: RingContext, depth: int | None = None) -> ConstantLedger:
    chain = None
    if ctx.dimension >= 3:
        chain = chain_constant(ctx, ctx.num_bands if depth is None else depth)
    return ConstantLedger(ctx.modulus, ctx.dimension, _maxN_at_weight(1, ctx),
                          appendix_constant(ctx.modulus, ctx.dimension), chain)
