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
The X-rays of xray_all (exact only, over tables.coset_plan: one p-adic
tower of line sums per CRT component, never the whole line table) and
the exact transform's passes, which add shifted rows, one level per prime
factor of N (_radix_levels), and the u^perp masses go through one
kernel, tables.gather_sums.  xray_transform, one
direction in either lane, builds and gathers that direction's chart rows
alone (tables.coset_rows).  Asked for powers, xray_all folds each block
of line sums into per-direction power sums as it is made, so a check that
reads only moments holds no X-ray.  Where the bound that a headroom check
computes is under 2**31 (_sum_dtype), the exact X-rays, coset maxima and
transform passes gather and add int32, half the bytes; their results are
int64 again.

Densities and spectra may be stacks of T rows, each over its own
denominator.  The transforms, xray_all, band_project and Spectrum.masses
run one density as a stack of one, so a check takes each exact step once
per chunk of trials: as many as fit tables._CHUNK_BYTES in the widest
stack that a chunk of the check holds.  Every headroom check bounds each
row on its own.
"""
from __future__ import annotations

import itertools
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
from .ring import PAdic, Profinite, RingContext, ScaleSemantics, factorize, scale

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


def _sum_dtype(bound: int | float) -> np.dtype:
    """The integer dtype of sums bounded by bound in absolute value, under
    the headroom check: int32 below 2**31, which halves the bytes a gather
    moves, and int64 above."""
    _check_headroom(bound)
    return np.dtype(np.int32 if bound < 1 << 31 else np.int64)


def _abs_sum(x: np.ndarray, ndim: int) -> float:
    """Largest sum |x| over the trailing ndim axes, in float64 so it cannot wrap."""
    return float(np.abs(x, dtype=np.float64).sum(axis=tuple(range(-ndim, 0))).max())


def _abs_max(x: np.ndarray) -> int:
    """max |x| of an integer array as a Python int (abs(-2**63) wraps in int64)."""
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def _negatable(x: np.ndarray) -> np.ndarray:
    """x, unless it holds -2**63, whose int64 negation wraps (OverflowError)."""
    if x.min(initial=0) == np.iinfo(np.int64).min:
        raise OverflowError("-2**63 has no int64 negation")
    return x


def _lowest_terms(x: np.ndarray, den):
    """x (divided in place) and den over gcd(den, entries of x), per row of a
    stack (den a sequence; dens back as an object array of Python ints), read
    64, 256, 1024, ... columns at a time until every row's gcd is 1."""
    one = isinstance(den, (int, np.integer))  # np.ndim costs more than a small row's gcd
    dens = [int(d) for d in ([den] if one else den)]
    rows, g, live, lo = x.reshape(len(dens), -1), [abs(d) for d in dens], range(len(dens)), 0
    while (live := [r for r in live if g[r] != 1]) and lo < rows.shape[1]:
        block = rows[:, lo:4 * lo + 64] if len(live) == len(g) else rows[live, lo:4 * lo + 64]
        for r, c in zip(live, np.gcd.reduce(block, axis=1).tolist()):
            g[r] = gcd(g[r], c)
        lo = 4 * lo + 64
    for r, c in enumerate(g):
        if 1 < c < 1 << 63:  # a zero row keeps den as its gcd, which may pass int64
            rows[r] //= c
    x = rows.reshape(x.shape)  # rows is a copy where x is not C-contiguous
    return x, dens[0] // g[0] if one else np.array([d // c for d, c in zip(dens, g)], dtype=object)


def power_sum(x: np.ndarray, p: int, axis: int | None = None):
    """sum |x|**p of an integer or object array (along axis), exact.

    The sum runs in int64 when max|x|**p times the number of terms summed
    is under the headroom: by einsum for p = 2, with no temporary of x's
    size, and otherwise through one int64 copy of |x| raised in place.
    Past the headroom, and for an object array, it runs over Python ints
    (object dtype), a block of terms (about tables._BLOCK_BYTES of int64)
    at a time.  So the result is an int64 or an object array (or scalar)."""
    count = x.size if axis is None else x.shape[axis]
    if axis is None:
        terms = x.reshape(-1)
    else:  # moveaxis costs more than a small sum, so only where it moves one
        terms = x if axis % x.ndim == x.ndim - 1 else np.moveaxis(x, axis, -1)
    if x.dtype != object and _abs_max(x) ** p * count < _INT_HEADROOM:
        if p == 2:
            return np.einsum("...j,...j->...", terms, terms, dtype=np.int64)
        powers = np.abs(terms, dtype=np.int64)
        return np.power(powers, p, out=powers).sum(axis=-1)
    step = max(1, tables._BLOCK_BYTES * count // (8 * x.size))
    return sum((np.abs(terms[..., lo:lo + step].astype(object)) ** p).sum(axis=-1)
               for lo in range(0, count, step))


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


class Density:
    """A function on (Z/NZ)^n, exact-rational or float/complex valued.

    Exact lane: values[i] = num[i] / den with a single positive shared
    denominator.  Float lane: a numpy array (complex permitted, which only
    arises inside band projections).  A stack of T densities has (T, size)
    values and a (T,) object array of dens; the transforms, xray_all,
    band_project and to_float take stacks, the other methods one density.
    """

    __slots__ = ("ctx", "num", "den", "data")

    def __init__(self, ctx: RingContext, *, num=None, den=None, data=None):
        self.ctx = ctx
        exact = data is None
        values = np.array(num if exact else data, dtype=np.int64 if exact else None)  # copied
        if values.shape[-1:] != (ctx.size,) or values.ndim > 2:
            raise ValueError(f"expected {ctx.size} values, got {values.shape}")
        if exact:
            values, den = _lowest_terms(values, den)
        values.setflags(write=False)
        self.num, self.den, self.data = (values, den, None) if exact else (None, None, values)

    # -- constructors ---------------------------------------------------

    @classmethod
    def exact(cls, ctx: RingContext, values: Iterable) -> "Density":
        fracs = [Fraction(v) for v in values]
        den = math.lcm(*(f.denominator for f in fracs))
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
        return Density(self.ctx, data=self.num / np.asarray(self.den, dtype=np.float64)[..., None])

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
    with integer coeffs.  Float lane: a complex vector.  A stack of T
    spectra leads with a T axis and keeps one den per row, as Density does.
    """

    __slots__ = ("ctx", "coeffs", "den", "values", "_corr")

    def __init__(self, ctx: RingContext, *, coeffs=None, den=None, values=None):
        self.ctx = ctx
        self._corr = None
        if values is None:
            coeffs, den = _lowest_terms(np.array(coeffs, dtype=np.int64), den)  # copied
            coeffs.setflags(write=False)
            self.coeffs, self.den, self.values = coeffs, den, None
        else:
            values = np.array(values, dtype=np.complex128)
            values.setflags(write=False)
            self.coeffs, self.den, self.values = None, None, values

    @property
    def lane(self) -> str:
        return "float" if self.values is not None else "exact"

    def correlations(self) -> np.ndarray:
        """(size, N) integer coefficients of den**2 * |f^(a)|**2 per a (per
        row of a stack): corr[a, m] = sum_j C[a, j] C[a, j - m].  The sum
        splits at j = m into two rolled dot products, one einsum each, and
        corr[a, N - m] = corr[a, m], so only the shifts m <= N // 2 are
        summed and the rest copied; no shifted copy of C is made."""
        if self._corr is None:
            N = self.ctx.modulus
            C = self.coeffs.reshape(-1, N)
            _check_headroom(_abs_max(C) ** 2 * N)  # an entry sums N products
            corr = np.empty_like(C)
            np.einsum("aj,aj->a", C, C, out=corr[:, 0])
            for m in range(1, N // 2 + 1):
                np.einsum("aj,aj->a", C[:, m:], C[:, :N - m], out=corr[:, m])
                corr[:, m] += np.einsum("aj,aj->a", C[:, :m], C[:, N - m:])
            corr[:, N // 2 + 1:] = corr[:, (N - 1) // 2:0:-1]  # column N - m is column m
            corr = corr.reshape(self.coeffs.shape)
            corr.setflags(write=False)
            self._corr = corr
        return self._corr

    def masses(self, groups):
        """sum_{a in g} |f^(a)|**2 per group g of frequency ranks: (int64
        numerators, den**2) in the exact lane, (floats, None) in the float
        lane; a stack gives (T, groups) numerators and T denominators.

        groups is a sequence of rank arrays, each free of repeats; a 2-D
        array (equal-size groups, such as tables.perp_index) is summed by
        one tables.gather_sums (see _group_sums).  The float lane sums
        through the 0/1 (groups, size) mask, one matrix product."""
        if self.lane == "exact":
            return _rationalize(self.correlations(), self.ctx.modulus, groups), self.den**2
        mask = np.zeros((len(groups), self.ctx.size), dtype=bool)
        for row, g in zip(mask, groups):
            row[g] = True
        return (mask @ (np.abs(self.values) ** 2).T).T, None

    def plancherel(self):
        """sum_a |f^(a)|**2, exact in the exact lane."""
        nums, den = self.masses([np.arange(self.ctx.size)])
        return Fraction(int(nums[0]), den) if self.lane == "exact" else float(nums[0])


def _rationalize(C: np.ndarray, N: int, groups=None) -> np.ndarray:
    """Integer values of rows C (..., N) over zeta_N**j, or of their sums
    over each group of row indexes per spectrum (see Spectrum.masses); rows
    are reduced before the group sums, which then run over phi(N) columns."""
    R = reduction_matrix(N)
    _check_headroom(_abs_max(C) * int(np.abs(R).sum(axis=0).max()))
    red = C @ R
    if groups is not None:
        _check_headroom(_abs_sum(red, 2))  # bounds every group sum
        sums = _group_sums(red.reshape((-1,) + red.shape[-2:]), groups)
        red = sums.reshape(red.shape[:-2] + sums.shape[1:])
    if red[..., 1:].any():
        raise ValueError("cyclotomic value is not rational")
    return red[..., 0]


def _group_sums(x: np.ndarray, groups) -> np.ndarray:
    """(T, G, c) sums x[t, g].sum(axis=0) per group g of rows of x (T, size, c).

    A 2-D array of equal-size groups is one tables.gather_sums over x read
    point-major, (size, T*c), one group member per slab; any other groups
    are summed one group at a time."""
    T, size, c = x.shape
    if not (isinstance(groups, np.ndarray) and groups.ndim == 2):
        return np.stack([x.take(g, axis=1).sum(axis=1) for g in groups], axis=1)
    out = np.empty((len(groups), T, c), dtype=x.dtype)
    values = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(size, T * c)
    tables.gather_sums(values, groups.T, out.reshape(len(groups), -1))
    return out.transpose(1, 0, 2)


# ---------------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _radix_levels(N: int, sign: int) -> tuple[np.ndarray, ...]:
    """Read-only intp (p, N*N) tables, one per prime factor p of N with
    multiplicity: decimation-in-frequency levels of a DFT over Z[X]/(X**N -
    1), root X**sign, in Stockham order.  With P the product of the earlier
    radices, M = N/P, M' = M/p, row ((B + P*b)*M' + x')*N + j sums over q < p
    the rows (B*M + x' + M'*q)*N + (j - sign*P*b*(x' + M'*q)) mod N of the
    level before: block B + P*b is the frequency read so far, so the last
    level's rows come in the order a*N + j (sum(radices) rows, not N)."""
    levels, P = [], 1
    for p in (p for p, e in factorize(N) for _ in range(e)):
        M = N // P
        q, b, B, x, j = np.ogrid[:p, :p, :P, :M // p, :N]
        x = x + M // p * q
        levels.append(((B * M + x) * N + (j - sign * P * b * x) % N).reshape(p, N * N))
        P *= p
    return tuple(tables._freeze(t.astype(np.intp)) for t in levels)


def _passes_exact(C: np.ndarray, ctx: RingContext, sign: int) -> np.ndarray:
    """out[.., a, ..] = sum_x zeta**(sign*x*a) in[.., x, ..] along each axis of
    a (T, size, N) stack: a pass leads an (N*N, T*size/N) slab with its axis and
    the coefficient axis, and its levels (_radix_levels) sum it back and forth
    between two slabs, one tables.gather_sums each.  Every partial sum sums a
    subset of the terms of one full sum, so the sum |f| and sum |coeffs|
    bounds that chose the dtype hold."""
    N, n = ctx.modulus, ctx.dimension
    grid, axes = C.reshape((-1,) + (N,) * (n + 1)), list(range(n + 2))
    values, spare = np.empty(C.size, C.dtype), np.empty(C.size, C.dtype)
    for axis in range(1, n + 1):
        order = sorted(range(n + 2), key=lambda i: (axes[i] != axis, axes[i] != n + 1))
        shape = [grid.shape[i] for i in order]
        np.copyto(values.reshape(shape), grid.transpose(order))
        for level in _radix_levels(N, sign):
            tables.gather_sums(values.reshape(N * N, -1), level, spare.reshape(N * N, -1))
            values, spare = spare, values
        grid, axes = values.reshape(shape), [axes[i] for i in order]
        values, spare = spare, values  # the next pass copies into the slab grid is not in
    np.copyto(values.reshape((-1,) + (N,) * (n + 1)), grid.transpose(np.argsort(axes)))
    return values.reshape(C.shape)


def fourier_forward(f: Density) -> Spectrum:
    """f^(a) = N**(-n) sum_x e(<x,a>/N) f(x), of one density or a stack.

    Exact lane: per-axis integer passes over Z[zeta_N].  Float lane:
    numpy.fft.ifftn, whose sign and scaling are this convention.
    """
    ctx = f.ctx
    N, n = ctx.modulus, ctx.dimension
    if f.lane == "exact":
        C = np.zeros(f.num.shape + (N,), dtype=_sum_dtype(_abs_sum(f.num, 1)))
        C[..., 0] = f.num
        return Spectrum(ctx, coeffs=_passes_exact(C, ctx, +1), den=f.den * ctx.size)
    grid = f.data.reshape(f.data.shape[:-1] + (N,) * n)
    return Spectrum(ctx, values=np.fft.ifftn(grid, axes=range(-n, 0)).reshape(f.data.shape))


def fourier_inverse(s: Spectrum) -> Density:
    """f(x) = sum_a e(-<x,a>/N) f^(a), of one spectrum or a stack.

    Exact lane: integer passes, then one reduction modulo the monic Phi_N
    gives integer values over the spectrum's denominator; a hand-built
    spectrum whose inverse is irrational is rejected.  Float lane: fftn.
    """
    ctx = s.ctx
    N, n = ctx.modulus, ctx.dimension
    if s.lane == "exact":
        C = _passes_exact(s.coeffs.astype(_sum_dtype(_abs_sum(s.coeffs, 2)), copy=False), ctx, -1)
        return Density(ctx, num=_rationalize(C.astype(np.int64, copy=False), N), den=s.den)
    grid = s.values.reshape(s.values.shape[:-1] + (N,) * n)
    return Density(ctx, data=np.fft.fftn(grid, axes=range(-n, 0)).reshape(s.values.shape))


# ---------------------------------------------------------------------------
# X-ray transform
# ---------------------------------------------------------------------------


def xray_transform(f: Density, u: ProjDirection) -> Density:
    """Pushforward of f to Q_u: f_u(y) = N**(-1) sum_t f(section(y) + t u),
    the X-ray of xray_all along u alone, in either lane.

    The fibers are u's rows of the quotient chart, built for u alone
    (tables.coset_rows) and each gathered whole, so the float sums are
    those of one whole gather.  Mass is conserved: integral of f_u over
    Q_u equals integral of f.
    """
    ctx = f.ctx
    N = ctx.modulus
    u_index = tables.directions(ctx).index(u)
    fibers = tables.coset_rows(ctx, tables.direction_matrix(ctx)[u_index, None, None])[0]
    if f.lane == "float":
        return Density(ctx.quotient(), data=f.data[..., fibers].sum(-1) / N)
    _check_headroom(_abs_max(f.num) * N)
    return Density(ctx.quotient(), num=f.num[..., fibers].sum(-1), den=f.den * N)


def xray_all(f: Density, powers: Sequence[int] | None = None):
    """X-ray line sums along every direction, in the exact lane.

    Returns (P, size/N) int64 numerators ((T, P, size/N) for a stack) over
    denominator den*N, under the headroom check, summed in int32 where that
    bound allows; a stack past physical memory raises TableMemoryError
    before it is allocated.  The lines of every direction are summed
    through tables.coset_plan, one p-adic tower per CRT component, so no
    ring builds its line table here; the rows go a chunk (about
    tables._CHUNK_BYTES) at a time.

    With powers, the X-rays are never held: each block of flats that
    tables.coset_sums yields is folded into sum_y |line sum y|**p per
    direction (power_sum, in int64 under the headroom and over Python ints
    past it, a block at a time), and the result is a list of (P,) ((T, P)
    for a stack) arrays, one per p in powers, over the same denominator.
    A direction's sum does not depend on the order of its lines, so the
    cosets are not put in rank order.
    """
    if f.lane != "exact":
        raise ValueError("xray_all is an exact-lane operation")
    ctx = f.ctx
    # the bound covers every line sum
    dtype = _sum_dtype(_abs_max(f.num) * ctx.modulus)
    rows = f.num.reshape(-1, ctx.size)
    plan = tables.coset_plan(ctx, 1)
    Q = ctx.size // ctx.modulus
    lead = (len(rows),) + plan.flat_shape
    if powers is None:
        tables.check_memory(8 * math.prod(lead) * Q)
        out = [np.empty(lead + (Q,), dtype=np.int64)]
    else:
        out = [np.empty(lead, dtype=np.int64) for _ in powers]
    step = max(1, tables._CHUNK_BYTES // (dtype.itemsize * plan.width))
    for r0 in range(0, len(rows), step):
        chunk = rows[r0:r0 + step].astype(dtype, copy=False)
        for lo, block in tables.coset_sums(chunk, plan):
            at = (slice(r0, r0 + len(chunk)), Ellipsis, slice(lo, lo + block.shape[len(plan.towers)]))
            if powers is None:
                out[0][at + (slice(None),)] = plan.in_rank_order(block)
                continue
            lines = block.reshape(block.shape[:len(lead)] + (Q,))
            for q, p in enumerate(powers):
                sums = power_sum(lines, p, axis=-1)
                if sums.dtype == object and out[q].dtype != object:
                    out[q] = out[q].astype(object)
                out[q][at] = sums
    shape = f.num.shape[:-1] + (-1,)
    if powers is None:
        return out[0].reshape(shape + (Q,)), f.den * ctx.modulus
    return [s.reshape(shape) for s in out], f.den * ctx.modulus


def xray_l2_spectral(f: Density | Spectrum):
    """sum_a ratio(v(a)) |f^(a)|**2 with ratio(v) = |P(Z/v)^{n-2}| / |P(Z/v)^{n-1}|.

    f may be given by its spectrum, so that a caller which needs the
    transform anyway takes it once.  A stack gives an array, one value per
    row (Fractions in the exact lane).
    """
    s = f if isinstance(f, Spectrum) else fourier_forward(f)
    n = s.ctx.dimension
    vals = tables.valuations(s.ctx)
    levels = np.flatnonzero(np.bincount(vals))  # ascending; np.unique would import numpy.ma
    nums, den = s.masses([np.flatnonzero(vals == v) for v in levels])
    ratios = [Fraction(proj_size(int(v), n - 1), proj_size(int(v), n)) for v in levels]
    if s.lane == "exact":
        nums = nums.astype(object)
        return sum(r * nums[..., j] for j, r in enumerate(ratios)) / den
    return sum(float(r) * nums[..., j] for j, r in enumerate(ratios))


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
    primes = factorize(n)
    return 0 if any(r > 1 for _, r in primes) else (-1) ** len(primes)


@lru_cache(maxsize=None)
def _band_weights(ctx: RingContext, bands: tuple[int, ...]):
    """[(d, w)] per divisor d weighed, w[b] = d**n sum mu(v/d) over the v in band bands[b]
    that d divides; and max_b sum_d |w[b]|, which bounds a band's values by sum |f|."""
    w = np.array([[sum(_mobius(v // d) for v in _band(ctx, b) if v % d == 0) * d**ctx.dimension
                   for d in ctx.divisors()] for b in bands], dtype=np.int64)
    weighed = [(d, col) for d, col in zip(ctx.divisors(), w.T) if col.any()]
    return weighed, int(np.abs(w).sum(axis=1).max())


def band_project(f: Density, i) -> Density:
    """The scale-i component of f (Littlewood-Paley piece), per row of a
    stack.  The exact lane also takes a sequence of bands i, whose result
    holds row t's component in band i[b] at row t * len(i) + b.

    The component is the inverse transform of the spectrum restricted to
    frequencies with valuation in band i, which is how the float lane
    computes it (_band_project_spectral).  The exact lane evaluates the
    equal coset-average kernel

        f_i = sum_{v in band(i)} sum_{d | v} mu(v/d) E[f | x mod d],

    which stays in Q, with one coset sum per divisor d for all bands and
    rows: on (N/d, d) per coordinate, the sums over x mod d are sums over
    the N/d axes.  Bands partition the dual, so sum_i f_i = f exactly.
    """
    ctx = f.ctx
    if f.lane == "float":
        return _band_project_spectral(f, _band(ctx, i))
    bands = tuple(np.atleast_1d(i).tolist())
    weights, bound = _band_weights(ctx, bands)
    _check_headroom(_abs_sum(f.num, 1) * bound)  # every coset sum is at most sum |f|
    N, n = ctx.modulus, ctx.dimension
    rows = f.num.reshape(-1, 1, ctx.size)
    num = np.zeros((len(rows), len(bands), ctx.size), dtype=np.int64)
    for d, w in weights:
        cells = (N // d, d) * n  # x_k = q d + r: the sum over each q axis is over x mod d
        sums = rows.reshape(rows.shape[:2] + cells).sum(axis=tuple(range(2, 2 * n + 2, 2)),
                                                        keepdims=True)
        view = num.reshape(num.shape[:2] + cells)
        view += w.reshape((-1,) + (1,) * 2 * n) * sums
    if f.num.ndim + np.ndim(i) == 1:
        return Density(ctx, num=num.reshape(ctx.size), den=f.den * ctx.size)
    dens = np.repeat(np.array(f.den, ndmin=1, dtype=object) * ctx.size, len(bands))
    return Density(ctx, num=num.reshape(-1, ctx.size), den=dens)


def _band_project_spectral(f: Density, members: frozenset[int]) -> Density:
    keep = np.isin(tables.valuations(f.ctx), sorted(members))
    s = fourier_forward(f)
    if s.lane == "exact":
        coeffs = np.where(keep[:, None], s.coeffs, 0)
        return fourier_inverse(Spectrum(f.ctx, coeffs=coeffs, den=s.den))
    return fourier_inverse(Spectrum(f.ctx, values=np.where(keep, s.values, 0)))


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
    # for M | N, the least rank of the coset of x is that of x mod M
    index = tables.rank_points(tables.coord_grid(new_ctx) % N, ctx)
    if M % N == 0:
        return new_ctx, index, np.zeros(len(rows), dtype=rows.real.dtype)
    if N % M:
        raise ValueError(f"modulus {M} neither divides nor is divided by {N}")
    least = tables.rank_points(tables.coord_grid(ctx) % M, ctx)
    return new_ctx, index, np.abs(rows[:, least] - rows).max(axis=1)


def induce_to_modulus(f: Density, M: int) -> Density:
    """Reinterpret an M-periodic density on (Z/MZ)^n (or pull back if N | M).

    Raises ConstancyError when f is not constant on cosets of M*(Z/NZ)^n
    (in the float lane: off by more than 1e-9).
    """
    ctx = f.ctx
    exact = f.lane == "exact"
    row = f.num if exact else f.data
    new_ctx, idx, (gap,) = induce_rows(row[None], ctx, M)
    if gap > (0 if exact else 1e-9):
        worst = Fraction(int(gap), f.den) if exact else Fraction(float(gap)).limit_denominator()
        raise ConstancyError(f"density is not constant on cosets of {M}*(Z/{ctx.modulus}Z)^"
                             f"{ctx.dimension}", worst)
    return Density(new_ctx, num=row[idx], den=f.den) if exact else Density(new_ctx, data=row[idx])


def _context_at_modulus(ctx: RingContext, M: int, n: int) -> RingContext:
    if isinstance(ctx.mode, PAdic):
        p, ell = ctx.mode.p, round(math.log(M, ctx.mode.p))
        if ell >= 1 and p**ell == M:
            return RingContext.padic(p, ell, n, ctx.scale_semantics)
    if isinstance(ctx.mode, Profinite):
        L = next(L for L in itertools.count(1) if math.factorial(L + 1) >= M)
        if math.factorial(L + 1) == M:
            return RingContext.profinite(L, n, ctx.scale_semantics)
    return RingContext.generic(M, n)
