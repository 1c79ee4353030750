"""Slow, direct oracles for the tests: every one restates a definition
that the package computes a faster way, so the tests can compare the two.

Exact values here are Python ints and Fractions, which cannot wrap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from kakeyalab import tables
from kakeyalab.cyclotomic import reduce_mod_cyclotomic
from kakeyalab.geometry import ProjDirection, lift_direction
from kakeyalab.harmonic import (Density, Spectrum, band_valuation_sets, fourier_forward,
                                xray_all, xray_transform)
from kakeyalab.maximal import flat_maximal, line_maximal


# ---------------------------------------------------------------------------
# Q(zeta_N)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cyclotomic:
    """An element of Q(zeta_N) with exact Fraction coefficients."""

    order: int
    coeffs: tuple[Fraction, ...]

    @classmethod
    def zero(cls, order: int) -> "Cyclotomic":
        return cls(order, tuple(Fraction(0) for _ in range(order)))

    @classmethod
    def from_rational(cls, order: int, value) -> "Cyclotomic":
        c = [Fraction(0)] * order
        c[0] = Fraction(value)
        return cls(order, tuple(c))

    @classmethod
    def root(cls, order: int, power: int, weight=1) -> "Cyclotomic":
        """weight * zeta_order**power."""
        c = [Fraction(0)] * order
        c[power % order] = Fraction(weight)
        return cls(order, tuple(c))

    def _check(self, other: "Cyclotomic") -> None:
        if self.order != other.order:
            raise ValueError("mixed cyclotomic orders")

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, Cyclotomic):
            self._check(other)
            N = self.order
            out = [Fraction(0)] * N
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        if b:
                            out[(i + j) % N] += a * b
            return Cyclotomic(N, tuple(out))
        return Cyclotomic(self.order, tuple(a * Fraction(other) for a in self.coeffs))

    __rmul__ = __mul__

    def shift(self, power: int) -> "Cyclotomic":
        """Multiply by zeta**power (a cyclic shift of the coefficients)."""
        N = self.order
        power %= N
        return Cyclotomic(N, self.coeffs[N - power:] + self.coeffs[:N - power])

    def conjugate(self) -> "Cyclotomic":
        N = self.order
        return Cyclotomic(N, tuple(self.coeffs[(N - j) % N] for j in range(N)))

    def norm_squared(self) -> "Cyclotomic":
        return self * self.conjugate()

    def reduced(self) -> tuple[Fraction, ...]:
        return reduce_mod_cyclotomic(self.coeffs, self.order)

    def is_zero(self) -> bool:
        return not any(self.reduced())

    def is_rational(self) -> bool:
        r = self.reduced()
        return not any(r[1:])

    def rational_value(self) -> Fraction:
        r = self.reduced()
        if any(r[1:]):
            raise ValueError("value is not rational")
        return r[0] if r else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclotomic):
            if self.order != other.order:
                return NotImplemented
            return (self - other).is_zero()
        try:
            q = Fraction(other)
        except (TypeError, ValueError):
            return NotImplemented
        return (self - Cyclotomic.from_rational(self.order, q)).is_zero()

    def __hash__(self):
        return hash((self.order, self.reduced()))


def coefficient(s: Spectrum, a: Sequence[int]):
    """The coefficient f^(a) of a spectrum: a Cyclotomic in the exact lane,
    a complex number in the float lane."""
    i = s.ctx.rank(a)
    if s.lane == "exact":
        N = s.ctx.modulus
        return Cyclotomic(N, tuple(Fraction(int(c), s.den) for c in s.coeffs[i]))
    return complex(s.values[i])


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def fourier_forward_naive(f: Density):
    """O(N**(2n)) direct character sums f^(a) = N**(-n) sum_x e(<x,a>/N) f(x).

    Exact lane: (coeffs, den), an (size, N) object array of Python ints
    with coefficient a = (1/den) sum_j coeffs[a, j] zeta_N**j, in lowest
    terms as Spectrum keeps them.  Float lane: the complex values.
    """
    ctx = f.ctx
    N = ctx.modulus
    grid = tables.coord_grid(ctx)
    if f.lane == "exact":
        points, num = grid.tolist(), [int(v) for v in f.num]
        C = np.zeros((ctx.size, N), dtype=object)
        for ia, a in enumerate(points):
            for x, v in zip(points, num):
                C[ia, sum(xi * ai for xi, ai in zip(x, a)) % N] += v
        den = f.den * ctx.size
        g = math.gcd(den, *C.ravel())
        return C // g, den // g
    vals = np.zeros(ctx.size, dtype=np.complex128)
    for ia in range(ctx.size):
        phases = np.exp(2j * np.pi * (grid @ grid[ia] % N) / N)
        vals[ia] = (phases * f.data).sum() / ctx.size
    return vals


def band_project_naive(f: Density, i: int) -> tuple[Fraction, ...]:
    """The exact scale-i component from its definition: the inverse transform
    f_i(x) = sum_{a in band i} e(-<x,a>/N) f^(a) of fourier_forward_naive,
    each value reduced modulo Phi_N in Python ints."""
    ctx = f.ctx
    N = ctx.modulus
    coeffs, den = fourier_forward_naive(f)
    members = band_valuation_sets(ctx)[i]
    vals = tables.valuations(ctx)
    grid = tables.coord_grid(ctx).tolist()
    band = [(grid[ia], coeffs[ia]) for ia in range(ctx.size) if int(vals[ia]) in members]
    out = []
    for x in grid:
        acc = [0] * N
        for a, row in band:
            shift = sum(xi * ai for xi, ai in zip(x, a))
            for j, c in enumerate(row):
                acc[(j - shift) % N] += c
        red = reduce_mod_cyclotomic(acc, N)
        if any(red[1:]):
            raise ValueError("band component is not rational")
        out.append(Fraction(red[0], den))
    return tuple(out)


# ---------------------------------------------------------------------------
# X-ray identities
# ---------------------------------------------------------------------------


def uperp_sum(f: Density, u: ProjDirection):
    """sum over a with <u,a> = 0 of |f^(a)|**2.

    Equals the quotient-side mass integral of |f_u|**2 and the spatial
    double sum N**(-n-1) sum_{z,t} f(z) conj f(z+tu).
    """
    ctx = f.ctx
    ui = tables.directions(ctx).index(u)
    nums, den = fourier_forward(f).masses(tables.orthogonality_mask(ctx)[ui:ui + 1])
    return Fraction(int(nums[0]), den) if f.lane == "exact" else float(nums[0])


def uperp_sum_spatial(f: Density, u: ProjDirection):
    """The spatial form N**(-n-1) sum_{z,t} f(z) conj f(z + t u).

    Grouping z by its line z + <u> turns the double sum into
    N**(-n-1) sum_c |S_c|**2 over the line sums S_c.
    """
    ctx = f.ctx
    ui = tables.directions(ctx).index(u)
    idx = tables.coset_table(ctx, 1)[0][ui]
    if f.lane == "exact":
        sums = f.num[idx].sum(axis=1).astype(object)
        return Fraction(int((sums * sums).sum()), f.den**2 * ctx.size * ctx.modulus)
    sums = f.data[idx].sum(axis=1)
    return float((np.abs(sums) ** 2).sum()) / (ctx.size * ctx.modulus)


def xray_l2_spatial(f: Density, pivot_rule: str = "first"):
    """avg over u in P of integral |f_u|**2, computed on the quotient side."""
    nums, den = xray_all(f, pivot_rule)
    ctx = f.ctx
    qsize = ctx.size // ctx.modulus
    if f.lane == "exact":
        total = int((nums.astype(object) ** 2).sum())
        return Fraction(total, den**2 * qsize * nums.shape[0])
    return float((np.abs(nums) ** 2).sum() / (qsize * nums.shape[0]))


def orthogonal_fraction(a: Sequence[int], ctx) -> Fraction:
    """Enumerated fraction of directions u with <u, a> = 0 mod N."""
    dirs = tables.direction_matrix(ctx)
    dots = dirs @ np.array([c % ctx.modulus for c in a], dtype=np.int64) % ctx.modulus
    return Fraction(int((dots == 0).sum()), len(dirs))


# ---------------------------------------------------------------------------
# maximal operators
# ---------------------------------------------------------------------------


def projmax_identity_check(f_band: Density, u) -> dict:
    """Check maxop_2 |f_band| (lift(u, w)) = maxop_1 (|f_band|)_u (w) per w.

    f_band is a scale-band component (possibly signed); both sides run on
    its absolute value, matching the operators' built-in absolute values.
    Returns per-quotient-direction values and the worst discrepancy,
    which is exactly zero in the exact lane.
    """
    ctx = f_band.ctx
    g = f_band.abs()
    prof2 = flat_maximal(g, 2)
    gu = xray_transform(g, u)
    prof1 = line_maximal(gu)
    qctx = ctx.quotient()
    rows = []
    worst = Fraction(0) if g.lane == "exact" else 0.0
    for w in tables.directions(qctx):
        lifted = lift_direction(u, w, ctx)
        lhs = prof2.value(lifted)
        rhs = prof1.value(w)
        worst = max(worst, abs(lhs - rhs))
        rows.append({"quotient_direction": w.rep, "plane_value": lhs, "line_value": rhs})
    return {"direction": u.rep, "entries": rows, "worst_discrepancy": worst,
            "equal": worst == 0}
