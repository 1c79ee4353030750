"""Fourier and X-ray transforms over (Z/NZ)^n, scale bands, spectral sums.

Conventions (Haar = average):

    integral f = N**(-n) sum_x f(x)
    f^(a)      = N**(-n) sum_x e(+<x,a>/N) f(x)
    f(x)       = sum_a e(-<x,a>/N) f^(a)
    f_u(y)     = N**(-1) sum_t f(section(y) + t u)        (X-ray along u)

Two value lanes: the exact lane is integer linear algebra (densities as
shared-denominator int64 numerators, spectra as integer vectors in
Z[zeta_N], rational values read off with cyclotomic.reduction_matrix(N),
every step under an int64 headroom check); the float lane uses numpy
doubles and complexes, and numpy's FFT, for large sweeps.
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
from .ring import DualFrequency, PAdic, Profinite, RingContext, ScaleSemantics, scale

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
    def constant(cls, ctx: RingContext, value, lane: str = "exact") -> "Density":
        if lane == "exact":
            v = Fraction(value)
            return cls(ctx, num=np.full(ctx.size, v.numerator, dtype=np.int64), den=v.denominator)
        return cls(ctx, data=np.full(ctx.size, float(value)))

    @classmethod
    def indicator(cls, ctx: RingContext, points: Iterable[Sequence[int]], lane: str = "exact") -> "Density":
        num = np.zeros(ctx.size, dtype=np.int64)
        for p in points:
            if len(p) != ctx.dimension:
                raise ValueError(f"point {tuple(p)} has {len(p)} coordinates, need {ctx.dimension}")
            num[ctx.rank(p)] = 1
        if lane == "exact":
            return cls(ctx, num=num, den=1)
        return cls(ctx, data=num.astype(np.float64))

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
        """E_x |f(x)|**p, exact for integer p in the exact lane.

        The exact sum runs in int64 when size * max|num|**p is under the
        headroom, and over Python ints (object dtype) past it."""
        if self.lane == "exact":
            top = max(int(self.num.max(initial=0)), -int(self.num.min(initial=0)))
            vals = self.num if top**p * self.ctx.size < _INT_HEADROOM else self.num.astype(object)
            total = int((np.abs(vals) ** p).sum())
            return Fraction(total, self.den**p * self.ctx.size)
        return (np.abs(self.data) ** p).sum() / self.ctx.size

    def abs(self) -> "Density":
        if self.lane == "exact":
            return Density(self.ctx, num=np.abs(self.num), den=self.den)
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
            _check_headroom(int(np.abs(self.num).max()) * sa + int(np.abs(other.num).max()) * sb)
            return Density(self.ctx, num=self.num * sa + other.num * sb, den=d)
        return Density(self.ctx, data=self.to_float().data + other.to_float().data)

    def __neg__(self) -> "Density":
        if self.lane == "exact":
            return Density(self.ctx, num=-self.num, den=self.den)
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

    def frequencies(self) -> tuple[DualFrequency, ...]:
        vals = tables.valuations(self.ctx)
        grid = tables.coord_grid(self.ctx)
        return tuple(DualFrequency(tuple(int(c) for c in grid[i]), int(vals[i]))
                     for i in range(self.ctx.size))

    def correlations(self) -> np.ndarray:
        """(size, N) integer coefficients of den**2 * |f^(a)|**2 per a."""
        if self._corr is None:
            C = self.coeffs
            N = self.ctx.modulus
            _check_headroom(int(np.abs(C).max(initial=0)) ** 2 * N * self.ctx.size)
            corr = np.empty_like(C)
            for m in range(N):
                corr[:, m] = (C * np.roll(C, m, axis=1)).sum(axis=1)
            corr.setflags(write=False)
            self._corr = corr
        return self._corr

    def masses(self, masks: np.ndarray):
        """sum_{a in mask} |f^(a)|**2 per row of a boolean (rows, size) mask:
        (int64 numerators, den**2) in the exact lane, (floats, None) in the float lane."""
        if self.lane == "exact":
            return _rationalize(self.correlations(), self.ctx.modulus, masks), self.den**2
        return masks @ (np.abs(self.values) ** 2), None

    def plancherel(self):
        """sum_a |f^(a)|**2, exact in the exact lane."""
        nums, den = self.masses(np.ones((1, self.ctx.size), dtype=bool))
        return Fraction(int(nums[0]), den) if self.lane == "exact" else float(nums[0])


def _rationalize(C: np.ndarray, N: int, masks: np.ndarray | None = None) -> np.ndarray:
    """Integer values of rows C (..., N) over zeta_N**j, or of masks @ C; rows
    are reduced before the masked sum, which then runs over phi(N) columns."""
    R = reduction_matrix(N)
    _check_headroom(int(np.abs(C).max(initial=0)) * int(np.abs(R).sum(axis=0).max()))
    red = C @ R
    if masks is not None:
        _check_headroom(_abs_sum(red))  # bounds every masked sum
        red = masks.astype(np.int64) @ red
    if red[..., 1:].any():
        raise ValueError("cyclotomic value is not rational")
    return red[..., 0]


# ---------------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _pass_index(N: int, sign: int) -> np.ndarray:
    """Read-only (N, N, N) gather index [a, x, j] = x*N + (j - sign*x*a) mod N."""
    a, x, j = np.ogrid[:N, :N, :N]
    idx = x * N + (j - sign * x * a) % N
    idx.setflags(write=False)
    return idx


def _axis_pass_exact(C: np.ndarray, ctx: RingContext, axis: int, sign: int) -> np.ndarray:
    """One separable stage: out[.., a, ..] = sum_x zeta**(sign*x*a) in[.., x, ..],
    as one gather of the shifted (x, j) coefficients per output frequency a."""
    N, n = ctx.modulus, ctx.dimension
    moved = np.moveaxis(C.reshape((N,) * (n + 1)), axis, n - 1)
    flat = moved.reshape(-1, N * N)
    out = np.empty((flat.shape[0], N, N), dtype=C.dtype)
    # gathering every a at once costs N times the memory and is slower on large rings
    for a, index in enumerate(_pass_index(N, sign)):
        out[:, a] = flat.take(index, axis=1).sum(axis=1)
    return np.moveaxis(out.reshape(moved.shape), n - 1, axis).reshape(ctx.size, N)


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


def xray_transform(f: Density, u: ProjDirection, pivot_rule: str = "first") -> Density:
    """Pushforward of f to Q_u: f_u(y) = N**(-1) sum_t f(section(y) + t u).

    Mass is conserved: integral of f_u over Q_u equals integral of f.
    """
    ctx = f.ctx
    ui = tables.directions(ctx).index(u)
    idx = tables.coset_table(ctx, 1, pivot_rule)[0][ui]
    qctx = ctx.quotient()
    if f.lane == "exact":
        return Density(qctx, num=f.num[idx].sum(axis=1), den=f.den * ctx.modulus)
    return Density(qctx, data=f.data[idx].sum(axis=1) / ctx.modulus)


def xray_all(f: Density, pivot_rule: str = "first"):
    """X-ray numerators along every direction at once.

    Exact lane: (P, size/N) int64 numerators over denominator den*N.
    Float lane: (P, size/N) values.
    """
    idx = tables.coset_table(f.ctx, 1, pivot_rule)[0]
    if f.lane == "exact":
        return f.num[idx].sum(axis=2), f.den * f.ctx.modulus
    return f.data[idx].sum(axis=2) / f.ctx.modulus, None


def xray_l2_spectral(f: Density | Spectrum):
    """sum_a ratio(v(a)) |f^(a)|**2 with ratio(v) = |P(Z/v)^{n-2}| / |P(Z/v)^{n-1}|.

    f may be given by its spectrum, so that a caller which needs the
    transform anyway takes it once.
    """
    s = f if isinstance(f, Spectrum) else fourier_forward(f)
    n = s.ctx.dimension
    vals = tables.valuations(s.ctx)
    levels = np.unique(vals)
    nums, den = s.masses(vals == levels[:, None])
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
    members = band_valuation_sets(ctx)[i]
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
    members = band_valuation_sets(ctx)[i]
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
