"""Fourier and X-ray transforms over (Z/NZ)^n, scale bands, spectral sums.

Conventions (Haar = average):

    integral f = N**(-n) sum_x f(x)
    f^(a)      = N**(-n) sum_x e(+<x,a>/N) f(x)
    f(x)       = sum_a e(-<x,a>/N) f^(a)
    f_u(y)     = N**(-1) sum_t f(section(y) + t u)        (X-ray along u)

Two value lanes: the exact lane is integer linear algebra (densities as
shared-denominator int64 numerators, spectra as integer vectors in
Z[zeta_N], rational values read off with cyclotomic.reduction_matrix(N),
spectral sums over groups of frequency ranks such as tables.perp_index,
every step under an int64 headroom check); the float lane uses numpy
doubles and complexes, and numpy's FFT.  Every verification check runs
in the exact lane; floats run only in the FFT round trip that
plancherel holds beside the exact one, and in `transform --lane float`.
The X-rays, the u^perp masses and each axis pass of the exact transform
sum over index rows through tables.blocked_sums.
"""
from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

import numpy as np

from . import tables
from .cyclotomic import reduction_matrix
from .geometry import ProjDirection, proj_size
from .ring import PAdic, Profinite, RingContext, ScaleSemantics, scale

_INT_HEADROOM = 1 << 61


class ConstancyError(Exception):
    """A band component is not constant on the cosets it should be."""

    def __init__(self, msg: str, violation: Fraction):
        super().__init__(msg)
        self.violation = violation


def _check_headroom(bound: int | float) -> None:
    if bound >= _INT_HEADROOM:
        raise OverflowError(
            "exact-lane intermediate values would overflow int64; "
            "reduce density magnitudes or denominators")


def _abs_sum(x: np.ndarray) -> float:
    """sum |x|, accumulated in float64 so that the bound itself cannot wrap."""
    return float(np.abs(x, dtype=np.float64).sum())


def _abs_max(x: np.ndarray) -> int:
    """max |x| of an integer array as a Python int (abs(-2**63) wraps in int64)."""
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def _negatable(x: np.ndarray) -> np.ndarray:
    """x, unless it holds -2**63, whose int64 negation wraps (OverflowError)."""
    if x.min(initial=0) == np.iinfo(np.int64).min:
        raise OverflowError("-2**63 has no int64 negation")
    return x


def power_sum(x: np.ndarray, p: int, axis: int | None = None):
    """sum |x|**p of an int64 array (along axis), exact.

    The sum runs in int64 when max|x|**p times the number of terms summed
    is under the headroom, and over Python ints (object dtype) past it, so
    the result is an int64 or an object array (or scalar)."""
    count = x.size if axis is None else x.shape[axis]
    vals = x if _abs_max(x) ** p * count < _INT_HEADROOM else x.astype(object)
    return (np.abs(vals) ** p).sum(axis=axis)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


class Density:
    """A function on (Z/NZ)^n, exact-rational or float/complex valued.

    Exact lane: values[i] = num[i] / den with a single positive shared
    denominator.  Float lane: a numpy array (complex permitted, which only
    arises inside band projections).
    """

    __slots__ = ("ctx", "num", "den", "data")

    def __init__(self, ctx: RingContext, *, num=None, den=None, data=None):
        self.ctx = ctx
        if data is None:
            num = np.array(num, dtype=np.int64)  # always copy before freezing
            if num.shape != (ctx.size,):
                raise ValueError(f"expected {ctx.size} values, got {num.shape}")
            g = int(np.gcd.reduce(np.abs(num))) if num.any() else 0
            g = gcd(g, den)
            if g > 1:
                num = num // g
                den = den // g
            num.setflags(write=False)
            self.num, self.den, self.data = num, int(den), None
        else:
            data = np.array(data)
            if data.shape != (ctx.size,):
                raise ValueError(f"expected {ctx.size} values, got {data.shape}")
            data.setflags(write=False)
            self.num, self.den, self.data = None, None, data

    # -- constructors ---------------------------------------------------

    @classmethod
    def exact(cls, ctx: RingContext, values: Iterable) -> "Density":
        fracs = [Fraction(v) for v in values]
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        num = np.array([int(f * den) for f in fracs], dtype=object)
        _check_headroom(int(max(abs(int(x)) for x in num)) if len(fracs) else 0)
        return cls(ctx, num=num.astype(np.int64), den=den)

    @classmethod
    def from_numden(cls, ctx: RingContext, num, den: int) -> "Density":
        return cls(ctx, num=num, den=den)

    @classmethod
    def from_float(cls, ctx: RingContext, data) -> "Density":
        return cls(ctx, data=np.asarray(data, dtype=complex if np.iscomplexobj(data) else np.float64))

    @classmethod
    def constant(cls, ctx: RingContext, value) -> "Density":
        v = Fraction(value)
        return cls(ctx, num=np.full(ctx.size, v.numerator, dtype=np.int64), den=v.denominator)

    @classmethod
    def indicator(cls, ctx: RingContext, points: Iterable[Sequence[int]]) -> "Density":
        num = np.zeros(ctx.size, dtype=np.int64)
        for p in points:
            if len(p) != ctx.dimension:
                raise ValueError(f"point {tuple(p)} has {len(p)} coordinates, need {ctx.dimension}")
            num[ctx.rank(p)] = 1
        return cls(ctx, num=num, den=1)

    # -- basics -----------------------------------------------------------

    @property
    def lane(self) -> str:
        return "float" if self.data is not None else "exact"

    def value(self, x: Sequence[int]):
        i = self.ctx.rank(x)
        if self.lane == "exact":
            return Fraction(int(self.num[i]), self.den)
        return self.data[i]

    def values(self):
        if self.lane == "exact":
            return tuple(Fraction(int(v), self.den) for v in self.num)
        return tuple(self.data)

    def integral(self):
        """integral f = N**(-n) sum_x f(x)."""
        if self.lane == "exact":
            return Fraction(int(self.num.sum()), self.den * self.ctx.size)
        return self.data.sum() / self.ctx.size

    def power_mean(self, p: int):
        """E_x |f(x)|**p, exact for integer p in the exact lane (power_sum)."""
        if self.lane == "exact":
            return Fraction(int(power_sum(self.num, p)), self.den**p * self.ctx.size)
        return (np.abs(self.data) ** p).sum() / self.ctx.size

    def abs(self) -> "Density":
        if self.lane == "exact":
            return Density(self.ctx, num=np.abs(_negatable(self.num)), den=self.den)
        return Density(self.ctx, data=np.abs(self.data))

    def to_float(self) -> "Density":
        if self.lane == "float":
            return self
        return Density(self.ctx, data=self.num.astype(np.float64) / self.den)

    def __add__(self, other: "Density") -> "Density":
        if self.ctx != other.ctx:
            raise ValueError("mismatched ring contexts")
        if self.lane == "exact" and other.lane == "exact":
            d = self.den * other.den // gcd(self.den, other.den)
            sa, sb = d // self.den, d // other.den
            _check_headroom(_abs_max(self.num) * sa + _abs_max(other.num) * sb)
            return Density(self.ctx, num=self.num * sa + other.num * sb, den=d)
        return Density(self.ctx, data=self.to_float().data + other.to_float().data)

    def __neg__(self) -> "Density":
        if self.lane == "exact":
            return Density(self.ctx, num=-_negatable(self.num), den=self.den)
        return Density(self.ctx, data=-self.data)

    def __sub__(self, other: "Density") -> "Density":
        return self + -other

    def __eq__(self, other) -> bool:
        if not isinstance(other, Density):
            return NotImplemented
        if self.ctx != other.ctx or self.lane != other.lane:
            return False
        if self.lane == "exact":
            return self.den == other.den and bool((self.num == other.num).all())
        return bool(np.array_equal(self.data, other.data))

    def __hash__(self):
        if self.lane == "exact":
            return hash((self.ctx, self.den, self.num.tobytes()))
        return hash((self.ctx, self.data.tobytes()))


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


class Spectrum:
    """Fourier coefficients indexed by the dual group (rank order).

    Exact lane: coefficient a is (1/den) * sum_j coeffs[a, j] zeta_N**j
    with integer coeffs.  Float lane: a complex vector.
    """

    __slots__ = ("ctx", "coeffs", "den", "values", "_corr")

    def __init__(self, ctx: RingContext, *, coeffs=None, den=None, values=None):
        self.ctx = ctx
        self._corr = None
        if values is None:
            coeffs = np.array(coeffs, dtype=np.int64)  # always copy before freezing
            g = int(np.gcd.reduce(np.abs(coeffs).ravel())) if coeffs.any() else 0
            g = gcd(g, den)
            if g > 1:
                coeffs = coeffs // g
                den = den // g
            coeffs.setflags(write=False)
            self.coeffs, self.den, self.values = coeffs, int(den), None
        else:
            values = np.array(values, dtype=np.complex128)
            values.setflags(write=False)
            self.coeffs, self.den, self.values = None, None, values

    @property
    def lane(self) -> str:
        return "float" if self.values is not None else "exact"

    def correlations(self) -> np.ndarray:
        """(size, N) integer coefficients of den**2 * |f^(a)|**2 per a:
        corr[a, m] = sum_j C[a, j] C[a, j - m], one gather of the shifted
        coefficients and one integer matmul per block of rows (about
        tables._BLOCK_BYTES; whole, generic(30,3) would take 194 MB)."""
        if self._corr is None:
            C = self.coeffs
            N = self.ctx.modulus
            _check_headroom(_abs_max(C) ** 2 * N * self.ctx.size)
            shifts = (np.arange(N)[:, None] - np.arange(N)) % N  # [j, m] = j - m
            corr = np.empty_like(C)
            step = max(1, tables._BLOCK_BYTES // (8 * N * N))
            for lo in range(0, len(C), step):
                block = C[lo:lo + step]
                corr[lo:lo + step] = (block[:, None, :] @ block[:, shifts])[:, 0]
            corr.setflags(write=False)
            self._corr = corr
        return self._corr

    def masses(self, groups):
        """sum_{a in g} |f^(a)|**2 per group g of frequency ranks: (int64
        numerators, den**2) in the exact lane, (floats, None) in the float lane.

        groups is a sequence of rank arrays, each free of repeats; a 2-D
        array (equal-size groups, such as tables.perp_index) is read through
        tables.blocked_sums.  The float lane sums through the 0/1
        (groups, size) mask, one matrix-vector product."""
        if self.lane == "exact":
            return _rationalize(self.correlations(), self.ctx.modulus, groups), self.den**2
        mask = np.zeros((len(groups), self.ctx.size), dtype=bool)
        for row, g in zip(mask, groups):
            row[g] = True
        return mask @ (np.abs(self.values) ** 2), None

    def plancherel(self):
        """sum_a |f^(a)|**2, exact in the exact lane."""
        nums, den = self.masses(np.arange(self.ctx.size)[None])
        return Fraction(int(nums[0]), den) if self.lane == "exact" else float(nums[0])


def _rationalize(C: np.ndarray, N: int, groups=None) -> np.ndarray:
    """Integer values of rows C (..., N) over zeta_N**j, or of their sums
    over each group of row indexes (see Spectrum.masses); rows are reduced
    before the group sums, which then run over phi(N) columns."""
    R = reduction_matrix(N)
    _check_headroom(_abs_max(C) * int(np.abs(R).sum(axis=0).max()))
    red = C @ R
    if groups is not None:
        _check_headroom(_abs_sum(red))  # bounds every group sum
        red = _group_sums(red, groups)
    if red[..., 1:].any():
        raise ValueError("cyclotomic value is not rational")
    return red[..., 0]


def _group_sums(x: np.ndarray, groups) -> np.ndarray:
    """(G, c) sums x[g].sum(axis=0) per group g of row indexes of x (size, c).

    A 2-D array of equal-size groups is read column by column through
    tables.blocked_sums; any other groups are summed one group at a time."""
    out = np.empty((len(groups), x.shape[1]), dtype=x.dtype)
    if isinstance(groups, np.ndarray) and groups.ndim == 2:
        for c, column in enumerate(np.ascontiguousarray(x.T)):
            for lo, sums in tables.blocked_sums(column, groups):
                out[lo:lo + len(sums), c] = sums
    else:
        for i, g in enumerate(groups):
            out[i] = x[g].sum(axis=0)
    return out


# ---------------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _pass_index(N: int, sign: int) -> np.ndarray:
    """Read-only (N*N, N) int32 index: row a*N + j lists x*N + (j - sign*x*a) mod N
    over x, the (x, coefficient) rows that one pass sums into (a, j)."""
    a, j, x = np.ogrid[:N, :N, :N]
    idx = (x * N + (j - sign * x * a) % N).reshape(N * N, N).astype(np.int32)
    idx.setflags(write=False)
    return idx


def _axis_pass_exact(C: np.ndarray, ctx: RingContext, axis: int, sign: int) -> np.ndarray:
    """One separable stage: out[.., a, ..] = sum_x zeta**(sign*x*a) in[.., x, ..].

    The pass axis and the coefficient axis lead an (N*N, size/N) stack,
    and tables.blocked_sums sums it over the rows of _pass_index."""
    N, n = ctx.modulus, ctx.dimension
    front = np.moveaxis(C.reshape((N,) * (n + 1)), (axis, n), (0, 1))
    values = front.reshape(N * N, -1)
    out = np.empty_like(values)
    for lo, sums in tables.blocked_sums(values, _pass_index(N, sign)):
        out[lo:lo + len(sums)] = sums
    return np.moveaxis(out.reshape(front.shape), (0, 1), (axis, n)).reshape(ctx.size, N)


def fourier_forward(f: Density) -> Spectrum:
    """f^(a) = N**(-n) sum_x e(<x,a>/N) f(x).

    Exact lane: per-axis integer passes over Z[zeta_N].  Float lane:
    numpy.fft.ifftn, whose sign and scaling are this convention.
    """
    ctx = f.ctx
    N, n = ctx.modulus, ctx.dimension
    if f.lane == "exact":
        _check_headroom(_abs_sum(f.num))
        C = np.zeros((ctx.size, N), dtype=np.int64)
        C[:, 0] = f.num
        for axis in range(n):
            C = _axis_pass_exact(C, ctx, axis, +1)
        return Spectrum(ctx, coeffs=C, den=f.den * ctx.size)
    return Spectrum(ctx, values=np.fft.ifftn(f.data.reshape((N,) * n)).reshape(ctx.size))


def fourier_inverse(s: Spectrum) -> Density:
    """f(x) = sum_a e(-<x,a>/N) f^(a).

    Exact lane: integer passes, then one reduction modulo the monic Phi_N
    gives integer values over the spectrum's denominator; a hand-built
    spectrum whose inverse is irrational is rejected.  Float lane: fftn.
    """
    ctx = s.ctx
    N, n = ctx.modulus, ctx.dimension
    if s.lane == "exact":
        _check_headroom(_abs_sum(s.coeffs))
        C = s.coeffs
        for axis in range(n):
            C = _axis_pass_exact(C, ctx, axis, -1)
        return Density(ctx, num=_rationalize(C, N), den=s.den)
    return Density(ctx, data=np.fft.fftn(s.values.reshape((N,) * n)).reshape(ctx.size))


# ---------------------------------------------------------------------------
# X-ray transform
# ---------------------------------------------------------------------------


def xray_transform(f: Density, u: ProjDirection) -> Density:
    """Pushforward of f to Q_u: f_u(y) = N**(-1) sum_t f(section(y) + t u).

    Mass is conserved: integral of f_u over Q_u equals integral of f.
    """
    ctx = f.ctx
    ui = tables.directions(ctx).index(u)
    idx = tables.coset_table(ctx, 1)[0][ui]
    qctx = ctx.quotient()
    if f.lane == "exact":
        _check_headroom(_abs_max(f.num) * ctx.modulus)  # bounds every line sum
        return Density(qctx, num=f.num[idx].sum(axis=1), den=f.den * ctx.modulus)
    return Density(qctx, data=f.data[idx].sum(axis=1) / ctx.modulus)


def xray_all(f: Density):
    """X-ray line sums along every direction at once.

    Exact lane: (P, size/N) int64 numerators over denominator den*N,
    under the headroom check.  Float lane: (P, size/N) values and None.
    The lines are the rows of the line table, summed a block of directions
    at a time by tables.blocked_sums, so no (P, size/N, N) gather is built;
    float sums are bit for bit those of one whole gather.
    """
    N = f.ctx.modulus
    table = tables.coset_table(f.ctx, 1)[0]
    exact = f.lane == "exact"
    if exact:
        _check_headroom(_abs_max(f.num) * N)  # bounds every line sum
    values = f.num if exact else f.data
    sums = np.empty(table.shape[:2], dtype=values.dtype)
    for lo, block in tables.blocked_sums(values, table):
        sums[lo:lo + len(block)] = block
    return (sums, f.den * N) if exact else (sums / N, None)


def xray_l2_spectral(f: Density | Spectrum):
    """sum_a ratio(v(a)) |f^(a)|**2 with ratio(v) = |P(Z/v)^{n-2}| / |P(Z/v)^{n-1}|.

    f may be given by its spectrum, so that a caller which needs the
    transform anyway takes it once.
    """
    s = f if isinstance(f, Spectrum) else fourier_forward(f)
    n = s.ctx.dimension
    vals = tables.valuations(s.ctx)
    levels = np.flatnonzero(np.bincount(vals))  # ascending; np.unique would import numpy.ma
    nums, den = s.masses([np.flatnonzero(vals == v) for v in levels])
    ratios = [Fraction(proj_size(int(v), n - 1), proj_size(int(v), n)) for v in levels]
    if s.lane == "exact":
        return sum(r * int(m) for r, m in zip(ratios, nums)) / den
    return float(sum(float(r) * m for r, m in zip(ratios, nums)))


# ---------------------------------------------------------------------------
# scale bands
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def band_valuation_sets(ctx: RingContext) -> tuple[frozenset[int], ...]:
    """Partition of the dual valuations (divisors of N) into scale bands.

    NUMERIC: band i holds the v with M_i <= v < M_{i+1}.  DIVISIBILITY:
    band i holds the v with v | M_i and v not | M_{i-1}.  The two agree in
    p-adic mode; they differ over factorial scales, where only the
    divisibility reading keeps every band coset-constant.
    """
    divisors = ctx.divisors()
    bands = []
    if ctx.scale_semantics is ScaleSemantics.NUMERIC:
        if isinstance(ctx.mode, Profinite):
            warnings.warn(
                "numeric band semantics over factorial scales: coset constancy "
                "of band components may fail", stacklevel=2)
        for i in range(ctx.num_bands):
            lo = scale(i, ctx)
            hi = scale(i + 1, ctx, beyond_truncation=True)
            bands.append(frozenset(v for v in divisors if lo <= v < hi))
    else:
        prev = 0
        for i in range(ctx.num_bands):
            m = scale(i, ctx)
            members = frozenset(v for v in divisors if m % v == 0 and (i == 0 or prev % v != 0))
            bands.append(members)
            prev = m
    return tuple(bands)


def _band(ctx: RingContext, i: int) -> frozenset[int]:
    """The valuations of band i; an index outside 0..num_bands-1 is refused."""
    if not 0 <= i < ctx.num_bands:
        raise ValueError(f"band index {i} is outside 0..{ctx.num_bands - 1}")
    return band_valuation_sets(ctx)[i]


def _mobius(n: int) -> int:
    from .ring import factorize

    m = 1
    for _, r in factorize(n):
        if r > 1:
            return 0
        m = -m
    return m


def band_project(f: Density, i: int) -> Density:
    """The scale-i component of f (Littlewood-Paley piece).

    The component is the inverse transform of the spectrum restricted to
    frequencies with valuation in band i, which is how the float lane
    computes it (_band_project_spectral).  The exact lane evaluates the
    equal coset-average kernel

        f_i = sum_{v in band(i)} sum_{d | v} mu(v/d) E[f | x mod d],

    which stays in Q.  Bands partition the dual, so sum_i f_i = f exactly.
    """
    ctx = f.ctx
    members = _band(ctx, i)
    if f.lane == "float":
        return _band_project_spectral(f, members)
    N, n = ctx.modulus, ctx.dimension
    weights: dict[int, int] = {}
    for v in members:
        for d in ctx.divisors():
            if v % d == 0:
                weights[d] = weights.get(d, 0) + _mobius(v // d)
    # every coset sum is at most sum |f|
    _check_headroom(_abs_sum(f.num) * sum(abs(w) * d**n for d, w in weights.items()))
    num = np.zeros(ctx.size, dtype=np.int64)
    for d, w in sorted(weights.items()):
        if w == 0:
            continue
        labels = tables.coset_labels(ctx, d)
        sums = np.zeros(d**n, dtype=np.int64)
        np.add.at(sums, labels, f.num)
        num += w * d**n * sums[labels]
    return Density(ctx, num=num, den=f.den * ctx.size)


def _band_project_spectral(f: Density, members: frozenset[int]) -> Density:
    ctx = f.ctx
    vals = tables.valuations(ctx)
    keep = np.isin(vals, sorted(members))
    s = fourier_forward(f)
    if s.lane == "exact":
        coeffs = np.where(keep[:, None], s.coeffs, 0)
        return fourier_inverse(Spectrum(ctx, coeffs=coeffs, den=s.den))
    return fourier_inverse(Spectrum(ctx, values=np.where(keep, s.values, 0)))


def band_constant(i: int, m: int, ctx: RingContext) -> Fraction:
    """max over a in band i of |P(Z/v(a))^{m-2}| / |P(Z/v(a))^{m-1}|.

    In p-adic mode this is the ratio at M_i; an empty band yields 0.  The
    value never exceeds 1/min-band-valuation.
    """
    members = _band(ctx, i)
    if not members:
        return Fraction(0)
    return max(Fraction(proj_size(v, m - 1), proj_size(v, m)) for v in members)


def induce_rows(rows: np.ndarray, ctx: RingContext, M: int):
    """induce_to_modulus for an (R, size) stack of value rows at once.

    Returns (the context at M, an (M**n,) index, (R,) gaps).  The induced
    row r is rows[r, index]: index[x] is the rank in ctx of the point that
    carries the value at point x of the context at M, so the induced stack
    need not be built (coset_maxima reads rows through it).  gaps[r] is
    the largest |rows[r] - its value at the least rank of the coset|, so
    it is zero exactly when row r is constant on the cosets of
    M*(Z/NZ)^n; a row with a nonzero gap has no induced density, and its
    index only picks those least representatives.  A pull-back (N | M)
    has every gap zero.
    """
    N, n = ctx.modulus, ctx.dimension
    new_ctx = _context_at_modulus(ctx, M, n)
    if M % N == 0:
        idx = tables.rank_points(tables.coord_grid(new_ctx) % N, ctx)
        return new_ctx, idx, np.zeros(len(rows), dtype=rows.real.dtype)
    if N % M:
        raise ValueError(f"modulus {M} neither divides nor is divided by {N}")
    labels = tables.coset_labels(ctx, M)
    first = np.unique(labels, return_index=True)[1]  # least rank per coset, in label order
    return new_ctx, first, np.abs(rows[:, first[labels]] - rows).max(axis=1)


def induce_to_modulus(f: Density, M: int) -> Density:
    """Reinterpret an M-periodic density on (Z/MZ)^n (or pull back if N | M).

    Raises ConstancyError when f is not constant on cosets of M*(Z/NZ)^n
    (in the float lane: off by more than 1e-9).
    """
    ctx = f.ctx
    exact = f.lane == "exact"
    row = f.num if exact else f.data
    new_ctx, idx, gaps = induce_rows(row[None], ctx, M)
    gap = gaps[0]
    if gap > (0 if exact else 1e-9):
        worst = Fraction(int(gap), f.den) if exact else Fraction(float(gap)).limit_denominator()
        raise ConstancyError(f"density is not constant on cosets of {M}*(Z/{ctx.modulus}Z)^"
                             f"{ctx.dimension}", worst)
    if exact:
        return Density(new_ctx, num=row[idx], den=f.den)
    return Density(new_ctx, data=row[idx])


def _context_at_modulus(ctx: RingContext, M: int, n: int) -> RingContext:
    if isinstance(ctx.mode, PAdic):
        p = ctx.mode.p
        ell = 0
        m = M
        while m % p == 0:
            m //= p
            ell += 1
        if m == 1 and ell >= 1:
            return RingContext.padic(p, ell, n, ctx.scale_semantics, ctx.cap)
    if isinstance(ctx.mode, Profinite):
        L = 1
        while math.factorial(L + 1) < M:
            L += 1
        if math.factorial(L + 1) == M and L >= 1:
            return RingContext.profinite(L, n, ctx.scale_semantics, ctx.cap)
    return RingContext.generic(M, n, ctx.cap)
