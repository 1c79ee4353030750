"""Slow, direct oracles for the tests: every one restates a definition
that the package computes a faster way, so the tests can compare the two.

Exact values here are Python ints and Fractions, which cannot wrap.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from kakeyalab import tables
from kakeyalab.cyclotomic import reduce_mod_cyclotomic, reduction_matrix
from kakeyalab.geometry import Flat, ProjDirection, _component_flats
from kakeyalab.harmonic import (Density, Spectrum, band_constant, band_project,
                                band_valuation_sets, fourier_forward, fourier_inverse,
                                power_sum, xray_all, xray_l2_spectral, xray_transform)
from kakeyalab.maximal import (appendix_constant, chain_constant, coset_maxima, flat_maximal,
                               line_maximal)
from kakeyalab.ring import _crt_basis, scale
from kakeyalab.search import BudgetExceeded, KakeyaCertificate, translate_options
from kakeyalab.verify import VerificationReport, _rng_for


# ---------------------------------------------------------------------------
# flats
# ---------------------------------------------------------------------------


def flat_points(flat: Flat) -> frozenset[tuple[int, ...]]:
    """The N**k points basepoint + t_1 g_1 + ... + t_k g_k of a flat."""
    N = flat.modulus
    n = flat.dimension
    pts = set()
    for ts in itertools.product(range(N), repeat=flat.k):
        pt = list(flat.basepoint)
        for t, g in zip(ts, flat.generators):
            for i in range(n):
                pt[i] = (pt[i] + t * g[i]) % N
        pts.add(tuple(pt))
    if len(pts) != N**flat.k:
        raise ValueError(f"flat spans {len(pts)} points, expected {N**flat.k}")
    return frozenset(pts)


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
# quotient charts
# ---------------------------------------------------------------------------


def crt_combine_scalar(parts: Sequence[int], N: int) -> int:
    """sum_c e_c x_c mod N of one residue x_c per CRT component of N."""
    basis = _crt_basis(N)
    if len(parts) != len(basis):
        raise ValueError("component count does not match factorization")
    return sum(c * e for c, (_, e) in zip(parts, basis)) % N


def chart_section(u: ProjDirection, y: Sequence[int], ctx) -> tuple[int, ...]:
    """The section of the quotient chart of u at a point y of (Z/NZ)^(n-1),
    point by point: per CRT component q = p**e, y mod q with 0 inserted at
    u's first unit coordinate mod p, recombined with crt_combine_scalar."""
    comps = []
    for p, e in ctx.factorization:
        lifted = [c % p**e for c in y]
        lifted.insert(next(j for j, c in enumerate(u.rep) if c % p), 0)
        comps.append(lifted)
    return tuple(crt_combine_scalar([c[i] for c in comps], ctx.modulus)
                 for i in range(ctx.dimension))


def enumerate_proj_per_coordinate(ctx) -> list[ProjDirection]:
    """geometry.enumerate_proj with the CRT components combined one
    coordinate at a time by crt_combine_scalar."""
    N, n = ctx.modulus, ctx.dimension
    per_component = [[g[0] for g in _component_flats(p**r, p, n, 1)] for p, r in ctx.factorization]
    return [ProjDirection(N, tuple(crt_combine_scalar([c[i] for c in combo], N) for i in range(n)))
            for combo in itertools.product(*per_component)]


def enumerate_grassmannian_per_coordinate(ctx, k: int) -> list[Flat]:
    """geometry.enumerate_grassmannian with the CRT components combined one
    coordinate at a time by crt_combine_scalar."""
    N, n = ctx.modulus, ctx.dimension
    per_component = [list(_component_flats(p**r, p, n, k)) for p, r in ctx.factorization]
    return [Flat(N, k, tuple(tuple(crt_combine_scalar([c[row][i] for c in combo], N)
                                   for i in range(n)) for row in range(k)), (0,) * n)
            for combo in itertools.product(*per_component)]


def coset_table_per_flat(ctx, k: int) -> tuple[np.ndarray, np.ndarray]:
    """tables.coset_table built one flat at a time, as int32: each flat's
    sections put the quotient points on its non-pivot columns with
    np.delete, and its (Q, N**k, n) int64 coordinate stack is ranked by
    the place-value product."""
    N, n = ctx.modulus, ctx.dimension
    if k == 1:
        gens = tables.direction_matrix(ctx)[:, None, :]
    else:
        gens = np.array([f.generators for f in tables.flats(ctx, k)], dtype=np.int64)
    offsets = tables._lex_grid(N, k) @ gens % N
    quotient = tables._lex_grid(N, n - k)
    components = []
    for (p, _), (q, e) in zip(ctx.factorization, _crt_basis(N)):
        components.append((e, quotient % q, (gens % p != 0).argmax(axis=2)))
    table = np.empty((len(gens), len(quotient), N**k), dtype=np.int32)
    for i in range(len(gens)):
        sections = np.zeros((len(quotient), n), dtype=np.int64)
        for e, y, pivots in components:
            sections[:, np.delete(np.arange(n), pivots[i])] += e * y
        table[i] = tables.rank_points((sections[:, None, :] + offsets[i]) % N, ctx)
    return table, table.min(axis=2)


def lift_points(u: ProjDirection, w: ProjDirection, ctx) -> frozenset[tuple[int, ...]]:
    """The lift of (u, w), the 2-flat through u whose image in the quotient
    chart of u is <w>, as the span {t u + s section(w)}."""
    N = ctx.modulus
    sec = chart_section(u, w.rep, ctx)
    return frozenset(tuple((t * a + s * b) % N for a, b in zip(u.rep, sec))
                     for t in range(N) for s in range(N))


def lift_map_gather(ctx) -> np.ndarray:
    """tables.lift_map by matching rank sets: the lift of (u, w) is the
    union of the rows of u's line table at the quotient points t w, sorted
    and looked up, by its bytes, among the sorted origin rows of the plane
    table.  Gathers a (P, Pq, N*N) stack of ranks."""
    N = ctx.modulus
    qctx = ctx.quotient()
    planes = np.sort(tables.coset_table(ctx, 2)[0][:, 0], axis=1)
    lines = tables.coset_table(ctx, 1)[0]
    t = np.arange(N)[None, :, None]
    qlines = tables.rank_points(t * tables.direction_matrix(qctx)[:, None, :] % N, qctx)
    lifts = np.sort(lines[:, qlines].reshape(len(lines), len(qlines), N * N), axis=2)
    flat_index = {plane.tobytes(): i for i, plane in enumerate(planes)}
    return np.array([[flat_index[lift.tobytes()] for lift in row] for row in lifts],
                    dtype=np.int64)


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
        num = np.array([int(v) for v in f.num], dtype=object)
        C = np.zeros((ctx.size, N), dtype=object)
        for ia, a in enumerate(grid):
            phase = grid @ a % N  # <x, a> mod N for every x
            for j in range(N):
                C[ia, j] = num[phase == j].sum()
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


def correlations_roll(s: Spectrum) -> np.ndarray:
    """den**2 |f^(a)|**2 coefficients by N shifted copies of the spectrum:
    corr[:, m] = sum_j C[:, j] C[:, j - m], summed as Python ints."""
    C = s.coeffs.astype(object)
    return np.stack([(C * np.roll(C, m, axis=1)).sum(axis=1)
                     for m in range(s.ctx.modulus)], axis=1)


def masses_dense(s: Spectrum, masks: np.ndarray):
    """Spectrum.masses through a boolean (rows, size) mask: the reduced
    correlations times the mask in the exact lane, mask @ |f^(a)|**2 in the
    float lane (the product whose bits the float lane keeps)."""
    if s.lane == "float":
        return masks @ (np.abs(s.values) ** 2), None
    red = masks.astype(object) @ (correlations_roll(s) @ reduction_matrix(s.ctx.modulus).astype(object))
    if red[:, 1:].any():
        raise ValueError("cyclotomic value is not rational")
    return red[:, 0], s.den**2


# ---------------------------------------------------------------------------
# X-ray identities
# ---------------------------------------------------------------------------


def orthogonality_mask(ctx) -> np.ndarray:
    """(P, size) boolean: <u, a> = 0 mod N per direction u and frequency a,
    from the dense dot product of every direction with every frequency."""
    dots = tables.direction_matrix(ctx) @ tables.coord_grid(ctx).T % ctx.modulus
    return dots == 0


def xray_all_gather(f: Density) -> np.ndarray:
    """Exact X-ray numerators of every direction as Python ints, from the
    whole (P, size/N, N) gather of the line table."""
    return f.num.astype(object)[tables.coset_table(f.ctx, 1)[0]].sum(axis=2)


def uperp_sum(f: Density, u: ProjDirection):
    """sum over a with <u,a> = 0 of |f^(a)|**2, the frequencies read off the
    dense orthogonality mask.

    Equals the quotient-side mass integral of |f_u|**2 and the spatial
    double sum N**(-n-1) sum_{z,t} f(z) conj f(z+tu).
    """
    ctx = f.ctx
    ui = tables.directions(ctx).index(u)
    nums, den = fourier_forward(f).masses([np.flatnonzero(orthogonality_mask(ctx)[ui])])
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


def xray_l2_spatial(f: Density):
    """avg over u in P of integral |f_u|**2, computed on the quotient side."""
    nums, den = xray_all(f)
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
    planes = {flat_points(F): F for F in tables.flats(ctx, 2)}
    rows = []
    worst = Fraction(0) if g.lane == "exact" else 0.0
    for w in tables.directions(qctx):
        lhs = prof2.value(planes[lift_points(u, w, ctx)])
        rhs = prof1.value(w)
        worst = max(worst, abs(lhs - rhs))
        rows.append({"quotient_direction": w.rep, "plane_value": lhs, "line_value": rhs})
    return {"direction": u.rep, "entries": rows, "worst_discrepancy": worst,
            "equal": worst == 0}


def mweight_lines(f: Density, p: int) -> int:
    """mweight by its definition, point by point over Python ints: the
    f_star witness line split into its mod-p**k and mod-N0 point sets,
    each point of a sub-line rebuilt from its two components by the CRT."""
    ctx = f.ctx
    N, n = ctx.modulus, ctx.dimension
    q, rest = 1, N
    while rest % p == 0:
        rest //= p
        q *= p

    def line_points(a, u, m):
        seen = []
        for t in range(m):
            pt = tuple((a[i] + t * u[i]) % m for i in range(n))
            if pt not in seen:
                seen.append(pt)
        return seen

    def combine(x, z):
        if rest == 1:
            return tuple(x)
        return tuple((x[i] * rest * pow(rest, -1, q) + z[i] * q * pow(q, -1, rest)) % N
                     for i in range(n))

    prof = line_maximal(f)
    best = 0
    for u, a in zip(prof.keys, prof.witnesses):
        for z in line_points(a, u.rep, rest):
            best = max(best, sum(int(f.num[ctx.rank(combine(x, z))])
                                 for x in line_points(a, u.rep, q)))
    return best


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------


def randints_loop(rng, n: int, count: int) -> np.ndarray:
    """count values of rng.randint(0, n - 1), one call each."""
    return np.array([rng.randint(0, n - 1) for _ in range(count)], dtype=np.int64)


def random_density_loop(ctx, seed: int, dist: str = "uniform-rational", trial: int = 0) -> Density:
    """verify.random_density drawn point by point: one rng.randint per
    sparse value, rng.choice of the flat, its points from flat_points and
    the indicators through Density.indicator."""
    rng = _rng_for(ctx, seed, dist, trial)
    size = ctx.size
    if dist == "uniform-rational":
        den = rng.choice((2, 3, 4, 6, 8, 12))
        return Density.from_numden(ctx, randints_loop(rng, 4 * den + 1, size), den)
    if dist == "sparse":
        num = np.zeros(size, dtype=np.int64)
        for i in rng.sample(range(size), max(1, size // 8)):
            num[i] = rng.randint(1, 9)
        return Density.from_numden(ctx, num, 1)
    if dist == "flat-supported":
        k = rng.randint(1, min(2, ctx.dimension))
        flat = rng.choice(tables.flats(ctx, k))
        shift = ctx.unrank(rng.randrange(size))
        return Density.indicator(ctx, [tuple((a + b) % ctx.modulus for a, b in zip(p, shift))
                                       for p in flat_points(flat)])
    if dist == "ball":
        return Density.indicator(ctx, [ctx.unrank(rng.randrange(size))])
    raise ValueError(f"unknown distribution {dist!r}")


# ---------------------------------------------------------------------------
# spectral checks one trial at a time
# ---------------------------------------------------------------------------
# verify_plancherel, verify_xray_l2 and verify_freqbound as they ran before
# they took stacks of trials: one transform, one X-ray and one band
# projection per trial (and band), each over the trial's own density.


def plancherel_rows(ctx, densities) -> VerificationReport:
    worst_exact, worst_float, witness = Fraction(0), 0.0, None
    for t, f in enumerate(densities):
        s = fourier_forward(f)
        diff = abs(f.power_mean(2) - s.plancherel())
        back = fourier_inverse(s)
        if diff > worst_exact or back != f:
            if back != f:
                diff = max(diff, Fraction(1))
            worst_exact = max(worst_exact, diff)
            witness = {"trial": t, "lane": "exact"}
        ff = f.to_float()
        sf = fourier_forward(ff)
        fdiff = abs(ff.power_mean(2) - sf.plancherel())
        fdiff = max(fdiff, float(np.abs(fourier_inverse(sf).data - ff.data).max()))
        if fdiff > worst_float:
            worst_float = fdiff
            if fdiff > 1e-10:
                witness = {"trial": t, "lane": "float"}
    passed = worst_exact == 0 and worst_float <= 1e-10
    return VerificationReport("plancherel", ctx.describe(), len(densities), "eq-exact",
                              worst_exact, passed, witness, details={"float_worst": worst_float})


def xray_l2_rows(ctx, densities) -> VerificationReport:
    worst, witness = Fraction(0), None
    perp = tables.perp_index(ctx)
    qsize = ctx.size // ctx.modulus
    for t, f in enumerate(densities):
        s = fourier_forward(f)
        nums, den = xray_all(f)
        xray_den = den**2 * qsize
        row_l2 = power_sum(nums, 2, axis=1).astype(object)
        spatial = Fraction(int(row_l2.sum()), xray_den * len(nums))
        diff = abs(spatial - xray_l2_spectral(s))
        if diff > worst:
            worst, witness = diff, {"trial": t, "side": "identity"}
        spec, spec_den = s.masses(perp)
        common = math.lcm(spec_den, xray_den)
        diffs = np.abs(spec.astype(object) * (common // spec_den) - row_l2 * (common // xray_den))
        ui = int(np.argmax(diffs))
        diff = Fraction(int(diffs[ui]), common)
        if diff > worst:
            worst, witness = diff, {"trial": t, "direction": ui, "side": "orthogonal sum"}
    return VerificationReport("xray-l2", ctx.describe(), len(densities), "eq-exact",
                              worst, worst == 0, witness)


def freqbound_rows(ctx, p: int, densities) -> VerificationReport:
    n = ctx.dimension
    qsize = ctx.size // ctx.modulus
    worst, witness = Fraction(10**9), None
    for t, f in enumerate(densities):
        rhs_base = f.power_mean(p)
        for i in range(ctx.num_bands):
            nums, den = xray_all(band_project(f, i))
            lhs = Fraction(int(power_sum(nums, p)), den**p * qsize * len(nums))
            slack = band_constant(i, n, ctx) * rhs_base - lhs
            if slack < worst:
                worst, witness = slack, {"trial": t, "band": i}
    return VerificationReport(f"freqbound[p={p}]", ctx.describe(), len(densities), "ge-exact",
                              worst, worst >= 0, witness)


# ---------------------------------------------------------------------------
# maximal-side checks one trial at a time
# ---------------------------------------------------------------------------
# verify_main_theorem, verify_maxest and verify_projmax as they ran before
# they took stacks of trials: one maximal profile per trial (and band),
# its values one Fraction per flat, averaged by frac_mean.


def frac_mean(values, power: int = 1) -> Fraction:
    """Mean of v**power, summed as integers over one common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    total = sum((v.numerator * (den // v.denominator)) ** power for v in values)
    return Fraction(total, den**power * len(values))


def main_theorem_rows(ctx, densities, ball) -> VerificationReport:
    """The check on densities, with ball as its tightness probe."""
    n = ctx.dimension
    chain = chain_constant(ctx, ctx.num_bands)
    worst, witness, ok = Fraction(10**9), None, True
    band_consts = [appendix_constant(scale(i + 1, ctx, beyond_truncation=True), n - 1)
                   for i in range(ctx.num_bands)]
    band_ratios = [band_constant(i, n, ctx) for i in range(ctx.num_bands)]
    for t, f in enumerate(densities):
        rhs = f.power_mean(n - 1)
        slack = rhs - chain.effective * frac_mean(flat_maximal(f, 2).values, n - 1)
        if slack < worst:
            worst, witness = slack, {"trial": t, "stage": "chain"}
        if slack < 0:
            ok = False
        for i in range(ctx.num_bands):
            prof_i = flat_maximal(band_project(f, i).abs(), 2)
            band_slack = band_ratios[i] * rhs - band_consts[i] * frac_mean(prof_i.values, n - 1)
            if band_slack < worst:
                worst, witness = band_slack, {"trial": t, "stage": f"band {i}"}
            if band_slack < 0:
                ok = False
    probe_lhs = chain.effective * frac_mean(flat_maximal(ball, 2).values, n - 1)
    probe_rhs = ball.power_mean(n - 1)
    return VerificationReport("main-theorem", ctx.describe(), len(densities), "ge-exact",
                              worst, ok, witness,
                              details={"chain_sum": chain.partial_sums[-1],
                                       "ball_probe_lhs_over_rhs": float(probe_lhs / probe_rhs)})


def maxest_rows(ctx, densities) -> VerificationReport:
    n = ctx.dimension
    c = appendix_constant(ctx.modulus, n)
    worst, witness, ok = Fraction(10**9), None, True
    for t, f in enumerate(densities):
        slack = f.power_mean(n) - c * frac_mean(line_maximal(f).values, n)
        if slack < worst:
            worst, witness = slack, {"trial": t}
        if slack < 0:
            ok = False
            witness = {"trial": t, "failure": "inequality violated"}
    return VerificationReport("maxest", ctx.describe(), len(densities), "ge-exact",
                              worst, ok, witness,
                              details={"constant": str(c.limit_denominator(10**12))})


def projmax_rows(ctx, densities) -> VerificationReport:
    """One coset_maxima call per side and trial."""
    lift = tables.lift_map(ctx)
    qctx = ctx.quotient()
    worst, witness = Fraction(0), None
    for t, f in enumerate(densities):
        g = band_project(f, t % ctx.num_bands).abs()
        plane = coset_maxima(g.num[None], ctx, 2)[0]
        nums, _ = xray_all(g)
        gaps = np.abs(plane[lift] - coset_maxima(nums, qctx, 1))
        j = int(np.argmax(gaps))
        diff = Fraction(int(gaps.flat[j]), g.den * ctx.modulus**2)
        if diff > worst:
            ui, wi = divmod(j, lift.shape[1])
            worst, witness = diff, {"trial": t, "direction": ui, "quotient_direction": wi}
    return VerificationReport("projmax", ctx.describe(), len(densities), "eq-exact",
                              worst, worst == 0, witness)


# ---------------------------------------------------------------------------
# Kakeya searches on bitmasks
# ---------------------------------------------------------------------------
# The searches as they ran before they read coverage counts: every
# translate a Python int bitmask (search.translate_options), unions and
# costs big-int ORs, ANDs and popcounts.  Choices are (flat, mask, shift).


def _certificate_bitmask(ctx, k: int, chosen, optimal: bool):
    flats = tables.flats(ctx, k)
    union = 0
    witnesses = []
    for fi, mask, shift in sorted(chosen):
        union |= mask
        witnesses.append((flats[fi], shift))
    pts = tuple(ctx.unrank(i) for i in range(ctx.size) if union >> i & 1)
    return KakeyaCertificate(k, ctx, pts, tuple(witnesses), optimal)


def greedy_bitmask_choices(options) -> list:
    """The greedy choices, in the order they were committed: each step
    scans every translate of every remaining flat for the fewest new
    points, the first such in (flat, shift) order."""
    remaining = list(range(len(options)))
    union = 0
    chosen = []
    while remaining:
        free = ~union
        best = None
        for fi in remaining:
            for mask, shift in options[fi]:
                cost = (mask & free).bit_count()
                if best is None or cost < best[0]:
                    best = (cost, fi, mask, shift)
            if best[0] == 0:
                break
        _, fi, mask, shift = best
        chosen.append((fi, mask, shift))
        union |= mask
        remaining.remove(fi)
    return chosen


def greedy_bitmask(ctx, k: int):
    return _certificate_bitmask(ctx, k, greedy_bitmask_choices(translate_options(ctx, k)),
                                optimal=False)


def orbit_minima_bitmask(ctx, options, order) -> list:
    """Per position of order, per translate of flat order[pos] in shift
    order, the least position in its orbit under translation by S_pos, the
    intersection of the flats order[:pos] through the origin (S_0 the
    whole group); each orbit is found by translating the translate's
    points by every point of S_pos and looking the moved bitmask up among
    the flat's translates."""
    N = ctx.modulus
    origin = 1 << ctx.rank((0,) * ctx.dimension)
    inside = set(ctx.points())
    minima = []
    for fi in order:
        position = {mask: i for i, (mask, _) in enumerate(options[fi])}
        least = []
        for mask, _ in options[fi]:
            pts = _mask_points(ctx, mask)
            orbit = set()
            for s in inside:
                moved = 0
                for pt in pts:
                    moved |= 1 << ctx.rank(tuple((a + b) % N for a, b in zip(pt, s)))
                orbit.add(position[moved])
            least.append(min(orbit))
        minima.append(least)
        inside &= set(_mask_points(ctx, next(m for m, _ in options[fi] if m & origin)))
    return minima


def dilates_bitmask(ctx, options, units) -> list:
    """Per flat, {lam: the position of lam x for each translate x of the
    flat} over lam in units; each dilate is found by multiplying the
    translate's points by lam and looking the moved bitmask up among the
    flat's translates."""
    N = ctx.modulus
    out = []
    for opts in options:
        position = {mask: i for i, (mask, _) in enumerate(opts)}
        per_unit = {}
        for lam in units:
            moved = []
            for mask, _ in opts:
                dilate = 0
                for pt in _mask_points(ctx, mask):
                    dilate |= 1 << ctx.rank(tuple(lam * a % N for a in pt))
                moved.append(position[dilate])
            per_unit[lam] = moved
        out.append(per_unit)
    return out


def _mask_points(ctx, mask) -> list:
    return [ctx.unrank(r) for r in range(ctx.size) if mask >> r & 1]


def exact_bitmask(ctx, k: int, budget: int = 5_000_000, orbits: bool = True):
    """(certificate, nodes expanded) of the branch and bound on bitmasks;
    raises BudgetExceeded, as search.exact_min_kakeya does, when the
    budget runs out.

    With orbits, flat order[pos] branches only on the translates that come
    first, in shift order, in their orbit under the maps x -> lam x + s, s
    in S_pos and lam in Lambda: the units of Z/N whose dilation maps every
    chosen translate that added points onto itself.  Without, every
    translate is branched on except at the root, which keeps the
    translate through the origin alone."""
    if k == ctx.dimension:
        cert = _certificate_bitmask(ctx, k, [(0, (1 << ctx.size) - 1, (0,) * ctx.dimension)], True)
        return cert, 0
    options = translate_options(ctx, k)
    masks = [[m for m, _ in opts] for opts in options]
    best_chosen = greedy_bitmask_choices(options)
    union = 0
    for _, mask, _ in best_chosen:
        union |= mask
    best_size = union.bit_count()
    nodes = 0
    order = sorted(range(len(options)), key=lambda fi: -min(m.bit_count() for m in masks[fi]))
    if orbits:
        units = [lam for lam in range(1, ctx.modulus) if math.gcd(lam, ctx.modulus) == 1]
        minima = orbit_minima_bitmask(ctx, options, order)
        dilates = dilates_bitmask(ctx, options, units)

    def branches(pos, added):
        # (position, mask, shift) of each translate flat order[pos] branches
        # on; added holds the (flat, position) of each chosen translate that
        # added points
        fi = order[pos]
        every = [(j, mask, shift) for j, (mask, shift) in enumerate(options[fi])]
        if not orbits:
            return every
        fixing = [lam for lam in units if all(dilates[f][lam][j] == j for f, j in added)]
        return [b for b in every
                if min(minima[pos][dilates[fi][lam][b[0]]] for lam in fixing) == b[0]]

    class Exhausted(Exception):
        pass

    def lower_bound(union, pos):
        have = union.bit_count()
        free = ~union
        worst = 0
        for fi in order[pos:]:
            worst = max(worst, min((m & free).bit_count() for m in masks[fi]))
            if have + worst >= best_size:
                break
        return have + worst

    def dfs(pos, union, chosen, added):
        nonlocal nodes, best_size, best_chosen
        if nodes >= budget:
            raise Exhausted()
        nodes += 1
        if pos == len(order):
            if union.bit_count() < best_size:
                best_size = union.bit_count()
                best_chosen = list(chosen)
            return
        if lower_bound(union, pos) >= best_size:
            return
        fi = order[pos]
        free = ~union
        ranked = sorted(branches(pos, added), key=lambda b: (b[1] & free).bit_count())
        if (pos == 0 and not orbits) or ranked[0][1] & free == 0:
            ranked = ranked[:1]
        for j, mask, shift in ranked:
            chosen.append((fi, mask, shift))
            dfs(pos + 1, union | mask, chosen, added + [(fi, j)] if mask & free else added)
            chosen.pop()

    try:
        dfs(0, 0, [], [])
    except Exhausted:
        raise BudgetExceeded(_certificate_bitmask(ctx, k, best_chosen, False)) from None
    return _certificate_bitmask(ctx, k, best_chosen, True), nodes


def certify_bitmask(points, ctx, k: int):
    """search.certify on bitmasks: the first translate in shift order of
    each flat whose mask lies inside the set's mask."""
    mask = 0
    pts = []
    for p in points:
        if len(p) != ctx.dimension:
            raise ValueError(f"point {tuple(p)} has {len(p)} coordinates, need {ctx.dimension}")
        reduced = tuple(c % ctx.modulus for c in p)
        r = ctx.rank(reduced)
        if not mask >> r & 1:
            pts.append(reduced)
        mask |= 1 << r
    witnesses = []
    for flat, opts in zip(tables.flats(ctx, k), translate_options(ctx, k)):
        hit = next((shift for tmask, shift in opts if tmask & ~mask == 0), None)
        if hit is None:
            raise ValueError(f"no translate of {flat.generators} lies inside the set")
        witnesses.append((flat, hit))
    return KakeyaCertificate(k, ctx, tuple(sorted(pts)), tuple(witnesses), optimal=False)
