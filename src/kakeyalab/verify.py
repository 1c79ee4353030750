"""Executable checks for the identities and inequalities the package implements.

Each check returns a VerificationReport, compared on exact rationals:
equalities carry zero tolerance and inequalities need slack >= 0.  The
float lane runs only inside plancherel, whose numpy FFT round trip is
held to 1e-10 beside the exact one.  Reports are pure functions of
(check, ring, seed, trials), so a rerun with the same configuration
reproduces them byte for byte.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import search, tables
from .geometry import proj_size
from .harmonic import (_INT_HEADROOM, Density, Spectrum, _abs_max, band_constant,
                       band_project, fourier_forward, fourier_inverse, induce_rows,
                       power_sum, xray_all, xray_l2_spectral)
from .maximal import appendix_constant, chain_constant, coset_maxima, flat_maximal, rounding_g
from .ring import Generic, RingContext, scale


@dataclass
class VerificationReport:
    """Machine-checkable outcome of one lemma/theorem check on one ring."""

    check: str
    ring: str
    trials: int
    comparator: str  # "eq-exact" | "ge-exact" | "n/a" (skipped)
    worst_slack: Fraction | None
    passed: bool
    witness: dict | None = None
    details: dict = field(default_factory=dict)
    wall_time: float = 0.0  # set by run_checks

    @property
    def status(self) -> str:
        if self.details.get("skipped"):
            return "skipped"
        return "pass" if self.passed else "FAIL"


def _skip(check: str, ctx: RingContext, reason: str) -> VerificationReport:
    return VerificationReport(check, ctx.describe(), 0, "n/a", None, True,
                              details={"skipped": reason})


# ---------------------------------------------------------------------------
# seeded density generators
# ---------------------------------------------------------------------------

DISTRIBUTIONS = ("uniform-rational", "sparse", "flat-supported", "ball")


def _rng_for(ctx: RingContext, seed: int, dist: str, trial: int) -> random.Random:
    key = f"{seed}|{dist}|{trial}|{ctx.modulus}|{ctx.dimension}|{ctx.mode.describe()}"
    digest = hashlib.sha256(key.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _randints(rng: random.Random, n: int, count: int) -> np.ndarray:
    """count values of rng.randint(0, n - 1), the same as a loop of them.

    CPython draws each from one 32-bit word, keeps its top n.bit_length()
    bits and draws again while that is n or more.  The words are read from
    getrandbits(32 * m), least significant word first, which is their
    order in the stream.  The last call may draw words past the last value
    kept, so the rng must not be drawn from afterwards.
    """
    bits = n.bit_length()
    out = np.empty(0, dtype=np.int64)
    while len(out) < count:
        m = ((count - len(out)) << bits) // n + 1  # about enough words to finish
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4")
        values = words >> (32 - bits)
        out = np.concatenate([out, values[values < n]])
    return out[:count]


def random_density(ctx: RingContext, seed: int, dist: str = "uniform-rational",
                   trial: int = 0) -> Density:
    """Deterministic seeded density; sparse and flat-supported bias toward
    adversarial structure, ball is a single radius-1/N point."""
    return Density.from_numden(ctx, *_draw(ctx, seed, dist, trial))


def _draw(ctx: RingContext, seed: int, dist: str, trial: int) -> tuple[np.ndarray, int]:
    """The numerators and denominator of random_density, not yet in lowest terms."""
    rng = _rng_for(ctx, seed, dist, trial)
    size = ctx.size
    if dist == "uniform-rational":
        den = rng.choice((2, 3, 4, 6, 8, 12))
        return _randints(rng, 4 * den + 1, size), den
    num = np.zeros(size, dtype=np.int64)
    if dist == "sparse":
        support = rng.sample(range(size), max(1, size // 8))
        num[support] = _randints(rng, 9, len(support)) + 1
    elif dist == "flat-supported":
        k = rng.randint(1, min(2, ctx.dimension))
        flats = tables.flats(ctx, k)
        gens = np.array(flats[rng.randrange(len(flats))].generators)
        pts = tables._lex_grid(ctx.modulus, k) @ gens + tables.coord_grid(ctx)[rng.randrange(size)]
        num[tables.rank_points(pts % ctx.modulus, ctx)] = 1
    elif dist == "ball":
        num[rng.randrange(size)] = 1
    else:
        raise ValueError(f"unknown distribution {dist!r}")
    return num, 1


def _corpus(ctx: RingContext, seed: int, trials: int) -> Iterable[tuple[np.ndarray, int]]:
    return (_draw(ctx, seed, DISTRIBUTIONS[t % len(DISTRIBUTIONS)], t) for t in range(trials))


def _stacks(ctx: RingContext, seed: int, trials: int, width: int,
            extra: Sequence[Density] = ()) -> Iterator[tuple[int, Density]]:
    """The corpus, drawn once, then extra, as (first trial, Density) chunks of as
    many trials as fit the widest stack that a chunk of the check holds, width
    int64s a trial, in tables._STACK_BYTES (one at least), by tables.blocks.
    A first chunk past physical memory raises TableMemoryError before any is drawn."""
    draws = itertools.chain(_corpus(ctx, seed, trials), ((f.num, f.den) for f in extra))
    total = trials + len(extra)
    for chunk in tables.blocks(total, 8 * width, tables._STACK_BYTES, held=8 * width):
        nums, dens = zip(*itertools.islice(draws, chunk.stop - chunk.start))
        yield chunk.start, Density(ctx, num=nums, den=dens)


def _power_means(f: Density, power: int) -> list[Fraction]:
    """E_x |f(x)|**power per row of a stack, exact."""
    sums = power_sum(f.num, power, axis=1)
    return [Fraction(int(m), d**power * f.ctx.size) for m, d in zip(sums, f.den)]


def _maximal_means(rows: np.ndarray, dens, ctx: RingContext, k: int, power: int) -> list[Fraction]:
    """E_U (maxop_k row(U))**power per row over its den, exact: a k-flat
    maximum is best / (den * N**k), so the mean is a power sum of best."""
    best = coset_maxima(rows, ctx, k)
    return [Fraction(int(m), (d * ctx.modulus**k)**power * best.shape[1])
            for m, d in zip(power_sum(best, power, axis=1), dens)]


def _line_moments(rows: np.ndarray, ctx: RingContext, power: int,
                  index: np.ndarray | None = None) -> np.ndarray:
    """sum_w (largest line sum of |row| in direction w)**power per row, as
    Python ints (object dtype), so that scaling them cannot wrap.  With an
    index the rows are read through it (see coset_maxima)."""
    return power_sum(coset_maxima(rows, ctx, 1, index=index), power, axis=1).astype(object)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def verify_radius_lemma(ctx: RingContext) -> VerificationReport:
    """Enumerated orthogonal-direction fraction equals the projective ratio
    proj_size(v(a), n-1) / proj_size(v(a), n) for every dual frequency.

    The directions orthogonal to each frequency are counted off the u^perp
    index in one bincount; per valuation level v the counts are compared as
    the integers counts * proj_size(v, n) and P * proj_size(v, n-1).  The
    witness is the first frequency with the largest gap."""
    n = ctx.dimension
    perp = tables.perp_index(ctx)
    counts = np.bincount(perp.ravel(), minlength=ctx.size)
    vals = tables.valuations(ctx)
    P = len(perp)
    worst = Fraction(0)
    first = ctx.size  # rank of the witness
    for v in np.flatnonzero(np.bincount(vals)).tolist():  # ascending levels, as np.unique
        ranks = np.flatnonzero(vals == v)
        gaps = np.abs(counts[ranks] * proj_size(v, n) - P * proj_size(v, n - 1))
        j = int(np.argmax(gaps))
        diff = Fraction(int(gaps[j]), P * proj_size(v, n))
        if diff > worst or (diff == worst != 0 and ranks[j] < first):
            worst, first = diff, int(ranks[j])
    witness = None
    if worst:
        witness = {"frequency": list(map(int, tables.coord_grid(ctx)[first])),
                   "valuation": int(vals[first])}
    return VerificationReport("radiusN", ctx.describe(), ctx.size, "eq-exact",
                              worst, worst == 0, witness)


def verify_plancherel(ctx: RingContext, trials: int, seed: int) -> VerificationReport:
    """Plancherel and the Fourier round trip: exact in the rational lane,
    within 1e-10 in the float lane.  Each chunk of trials (_stacks) takes
    one exact transform and one FFT each way; float sums stay per trial."""
    worst_exact, worst_float, witness = Fraction(0), 0.0, None
    for lo, f in _stacks(ctx, seed, trials, ctx.size * ctx.modulus):
        s = fourier_forward(f)
        masses, den = s.masses([slice(None)])
        back = fourier_inverse(s)
        same = (back.num == f.num).all(axis=1) & (back.den == f.den)
        power = power_sum(f.num, 2, axis=1)
        ff = f.to_float()
        sf = fourier_forward(ff)
        fpower = (np.abs(ff.data) ** 2).sum(axis=1) / ctx.size
        fback = np.abs(fourier_inverse(sf).data - ff.data).max(axis=1)
        for j in range(len(f.num)):
            diff = abs(Fraction(int(power[j]), f.den[j]**2 * ctx.size)
                       - Fraction(int(masses[j, 0]), den[j]))
            if diff > worst_exact or not same[j]:
                if not same[j]:
                    diff = max(diff, Fraction(1))
                worst_exact = max(worst_exact, diff)
                witness = {"trial": lo + j, "lane": "exact"}
            fdiff = abs(fpower[j] - Spectrum(ctx, values=sf.values[j]).plancherel())
            fdiff = max(fdiff, float(fback[j]))
            if fdiff > worst_float:
                worst_float = fdiff
                if fdiff > 1e-10:
                    witness = {"trial": lo + j, "lane": "float"}
    passed = worst_exact == 0 and worst_float <= 1e-10
    return VerificationReport("plancherel", ctx.describe(), trials, "eq-exact",
                              worst_exact, passed, witness,
                              details={"float_worst": worst_float})


def verify_xray_l2(ctx: RingContext, trials: int, seed: int) -> VerificationReport:
    """The X-ray l2 identity: avg_u integral |f_u|^2 equals the
    valuation-weighted spectral sum, and per direction the orthogonal-sum identity
    sum_{a in u-perp} |f^(a)|^2 = integral |f_u|^2, all exact.  Each chunk
    of trials (_stacks, sized by its spectrum) takes one transform and one
    X-ray pass, which both identities share; the pass folds each block of
    line sums into per-direction sums of squares, so no X-ray is held."""
    worst, witness = Fraction(0), None
    perp, qsize = tables.perp_index(ctx), ctx.size // ctx.modulus
    for lo, f in _stacks(ctx, seed, trials, ctx.size * ctx.modulus):
        s = fourier_forward(f)
        (row_l2,), den = xray_all(f, (2,))  # integral |f_u|^2 * xray_den per direction
        row_l2 = row_l2.astype(object)
        spectral = xray_l2_spectral(s)
        spec, spec_den = s.masses(perp)
        for j in range(len(row_l2)):
            xray_den = den[j]**2 * qsize
            spatial = Fraction(int(row_l2[j].sum()), xray_den * len(perp))
            diff = abs(spatial - spectral[j])
            if diff > worst:
                worst, witness = diff, {"trial": lo + j, "side": "identity"}
            common = math.lcm(spec_den[j], xray_den)
            diffs = np.abs(spec[j].astype(object) * (common // spec_den[j])
                           - row_l2[j] * (common // xray_den))
            ui = int(np.argmax(diffs))  # all directions at once; the first largest gap
            diff = Fraction(int(diffs[ui]), common)
            if diff > worst:
                worst, witness = diff, {"trial": lo + j, "direction": ui, "side": "orthogonal sum"}
    return VerificationReport("xray-l2", ctx.describe(), trials, "eq-exact",
                              worst, worst == 0, witness)


def verify_freqbound(ctx: RingContext, p: int, trials: int, seed: int) -> VerificationReport:
    """Band-limited X-ray p-th moment bound: for every band i,

        avg_u integral |f_{i,u}|^p <= band_constant(i, n) * integral |f|^p.

    The band components of a rational density are rational and p is an
    integer, so both sides are exact power sums for every p >= 2; a p < 2
    is skipped."""
    return verify_freqbounds(ctx, (p,), trials, seed)[0]


def verify_freqbounds(ctx: RingContext, ps: Sequence[int], trials: int,
                      seed: int) -> list[VerificationReport]:
    """verify_freqbound at every p of ps, one report per p, skipped where
    p < 2.  Each chunk of trials (_stacks, sized by the density and its
    band components) takes one projection into all bands and one X-ray
    pass, which folds each block of line sums into per-direction power
    sums for every p >= 2 at once, so no X-ray is held."""
    n, bands = ctx.dimension, ctx.num_bands
    P, qsize = len(tables.directions(ctx)), ctx.size // ctx.modulus
    constants = [band_constant(i, n, ctx) for i in range(bands)]
    kept = [p for p in ps if p >= 2]
    worst, witness = [Fraction(10**9)] * len(kept), [None] * len(kept)
    for lo, f in _stacks(ctx, seed, trials, (1 + bands) * ctx.size) if kept else ():
        moments, den = xray_all(band_project(f, range(bands)), kept)
        for q, p in enumerate(kept):
            rhs = power_sum(f.num, p, axis=1)
            lhs = power_sum(moments[q], 1, axis=1)  # over the directions
            for r in range(len(lhs)):
                j, i = divmod(r, bands)
                rhs_base = Fraction(int(rhs[j]), f.den[j]**p * ctx.size)
                slack = constants[i] * rhs_base - Fraction(int(lhs[r]), den[r]**p * qsize * P)
                if slack < worst[q]:
                    worst[q], witness[q] = slack, {"trial": lo + j, "band": i}
    done = {p: VerificationReport(f"freqbound[p={p}]", ctx.describe(), trials, "ge-exact",
                                  w, w >= 0, wit) for p, w, wit in zip(kept, worst, witness)}
    return [done[p] if p >= 2 else _skip(f"freqbound[p={p}]", ctx, "needs p >= 2") for p in ps]


def verify_divisor_reduction(ctx: RingContext, band: int | None, trials: int,
                             seed: int) -> VerificationReport:
    """Quotient-side maximal moment equals its finite-scale average:

        avg_{w in P Q_u} maxop_1 f_{i,u}(w)^{n-1}
            = avg_{w in P Q_{i,u}} maxop_1 f'_{i,u}(w)^{n-1}

    with f'_{i,u} the scale-M_{i+1} version of the X-ray of the band
    component.  If the band is not coset-constant (numeric semantics over
    factorial scales), the constancy violation is reported instead.

    A chunk of trials (_stacks, by its X-ray stack) takes one projection
    into its bands, one X-ray pass and one quotient-side coset_maxima over
    its (trial, band) rows, and per band (M_{i+1} differs) one induce_rows
    and one finite-scale coset_maxima over that band's rows; past
    tables._STACK_BYTES, a chunk is as many bands of one trial as fit
    (tables.blocks plans both).  The power sums are Python ints, compared
    over a common denominator in (trial, band, direction) order: the
    witness is the first largest gap."""
    if ctx.dimension < 2:
        return _skip("divisor-reduction", ctx, "needs n >= 2")
    n, P, qctx = ctx.dimension, len(tables.directions(ctx)), ctx.quotient()
    bands = list(range(ctx.num_bands)) if band is None else [band]
    Q = qctx.size  # parts: the bands that a chunk projects at once
    parts = [bands[b] for b in tables.blocks(len(bands), 8 * P * Q, tables._STACK_BYTES)]
    # a line maximum at modulus M is best / (den * M): a side's mean is over den**(n-1) * scale
    lhs_scale = qctx.modulus ** (n - 1) * len(tables.directions(qctx))
    worst, witness, violations = Fraction(0), None, []
    for lo, f in _stacks(ctx, seed, trials, len(parts[0]) * P * Q):
        for part in parts:
            nums, den = xray_all(band_project(f, part))  # row t * G + b: band part[b] of trial t
            nums, G = nums.reshape(len(f.num), len(part), P, Q), len(part)
            lhs = _line_moments(nums.reshape(-1, Q), qctx, n - 1).reshape(-1, G, P)
            sides = []
            for b, i in enumerate(part):
                rows = nums[:, b].reshape(-1, Q)
                mctx, index, gaps = induce_rows(rows, qctx, scale(i + 1, ctx, beyond_truncation=True))
                rhs_scale = mctx.modulus ** (n - 1) * len(tables.directions(mctx))
                common, gaps = math.lcm(lhs_scale, rhs_scale), gaps.reshape(-1, P)
                rhs = _line_moments(rows, mctx, n - 1, index).reshape(-1, P) * (common // rhs_scale)
                diffs = np.abs(lhs[:, b] * (common // lhs_scale) - rhs)
                sides.append((np.where(gaps == 0, diffs, -1), gaps, common))  # -1: not compared
            for t, (b, i) in itertools.product(range(len(nums)), enumerate(part)):
                diffs, gaps, common = sides[b]
                violations += [{"trial": lo + t, "band": i, "direction": ui,
                                "violation": str(Fraction(int(gaps[t, ui]), den[t * G + b]))}
                               for ui in np.flatnonzero(gaps[t]).tolist()]
                j = int(np.argmax(diffs[t]))  # the first direction with the largest gap
                diff = Fraction(int(diffs[t, j]), den[t * G + b] ** (n - 1) * common)
                if gaps[t, j] == 0 and diff > worst:
                    worst, witness = diff, {"trial": lo + t, "band": i, "direction": j}
    details = {}
    if violations:
        details["constancy_violations"] = violations[:5]
        details["violation_count"] = len(violations)
    return VerificationReport("divisor-reduction", ctx.describe(), trials, "eq-exact",
                              worst, worst == 0 and not violations, witness, details)


def verify_projmax(ctx: RingContext, trials: int, seed: int) -> VerificationReport:
    """The plane-to-line projection identity: for band-limited g = |f_i|,
    maxop_2 g at the lift of (u, w) equals maxop_1 of the X-ray g_u at w,
    exactly.

    Per trial both sides are integer arrays over one denominator: the
    plane maxima read at the flats of tables.lift_map against the line
    maxima of every X-ray row.  Each chunk of trials (_stacks) takes one
    coset_maxima per side and one X-ray pass; each trial is projected into
    its band on its own, under that band's headroom check."""
    if ctx.dimension < 2:
        return _skip("projmax", ctx, "needs n >= 2")
    lift = tables.lift_map(ctx)
    qctx = ctx.quotient()
    worst, witness = Fraction(0), None
    nbands, (P, Pq) = ctx.num_bands, lift.shape
    for lo, f in _stacks(ctx, seed, trials, P * (ctx.size // ctx.modulus)):
        g = [band_project(Density(ctx, num=num, den=den), (lo + j) % nbands)
             for j, (num, den) in enumerate(zip(f.num, f.den))]
        g = Density(ctx, num=[h.num for h in g], den=[h.den for h in g]).abs()
        plane = coset_maxima(g.num, ctx, 2)
        nums, _ = xray_all(g)
        lines = coset_maxima(nums.reshape(-1, nums.shape[-1]), qctx, 1).reshape(len(nums), P, Pq)
        # plane maxima are over g.den * N**2 (N**2 points a plane); X-ray rows
        # are over g.den * N and a line has N points, so both share it
        gaps = np.abs(plane[:, lift] - lines).reshape(len(nums), -1)
        for j, i in enumerate(np.argmax(gaps, axis=1).tolist()):  # the first largest gap in (u, w) order
            diff = Fraction(int(gaps[j, i]), g.den[j] * ctx.modulus**2)
            if diff > worst:
                ui, wi = divmod(i, Pq)
                worst, witness = diff, {"trial": lo + j, "direction": ui, "quotient_direction": wi}
    return VerificationReport("projmax", ctx.describe(), trials, "eq-exact",
                              worst, worst == 0, witness)


def verify_rounding(ctx: RingContext, trials: int, seed: int) -> VerificationReport:
    """Grid rounding: g >= f pointwise and sum g^n <= (2^n + 1) sum f^n on
    densities normalized to carry at least unit power mass."""
    n = ctx.dimension
    worst = Fraction(10**9)
    witness = None
    ok = True
    for t in range(trials):
        f = _unit_box_density(ctx, seed, t)
        g = rounding_g(f)
        gn, fn = g.num, f.num  # g >= f is g.num * f.den >= f.num * g.den
        if max(_abs_max(gn) * f.den, _abs_max(fn) * g.den) >= _INT_HEADROOM:
            gn, fn = gn.astype(object), fn.astype(object)
        if not (gn * f.den >= fn * g.den).all():
            ok = False
            witness = {"trial": t, "failure": "g < f somewhere"}
        lhs = g.power_mean(n) * ctx.size
        rhs = (2**n + 1) * f.power_mean(n) * ctx.size
        slack = rhs - lhs
        if slack < worst:
            worst, witness = slack, witness or {"trial": t}
        if slack < 0:
            ok = False
            witness = {"trial": t, "failure": "mass bound"}
    return VerificationReport("rounding", ctx.describe(), trials, "ge-exact", worst, ok, witness)


def _unit_box_density(ctx: RingContext, seed: int, trial: int) -> Density:
    """Random rational f with 0 <= f <= 1 and max f = 1 (so sum f^n >= 1,
    the exact-rational surrogate for the unit-mass normalization)."""
    rng = _rng_for(ctx, seed, "unit-box", trial)
    den = rng.choice((7, 11, 13, 16, 24))
    num = np.array([rng.randint(0, den) for _ in range(ctx.size)], dtype=np.int64)
    num[rng.randrange(ctx.size)] = den
    return Density.from_numden(ctx, num, den)


def verify_maxest(ctx: RingContext, trials: int, seed: int,
                  extra: Sequence[Density] = ()) -> VerificationReport:
    """Line maximal bound with the explicit rounding constant:

        E_x |f|^n >= appendix_constant(N, n) * E_u (maxop_1 f(u))^n.

    Each chunk of the corpus and extra (_stacks) takes one coset_maxima."""
    n = ctx.dimension
    c = appendix_constant(ctx.modulus, n)
    worst, witness = Fraction(10**9), None  # passes iff no slack is negative
    for lo, f in _stacks(ctx, seed, trials, ctx.size, extra):
        lhs, rhs = _power_means(f, n), _maximal_means(f.num, f.den, ctx, 1, n)
        for j in range(len(lhs)):
            slack = lhs[j] - c * rhs[j]
            if slack < worst:
                worst, witness = slack, {"trial": lo + j}
            if slack < 0:
                witness = {"trial": lo + j, "failure": "inequality violated"}
    return VerificationReport("maxest", ctx.describe(), trials + len(extra), "ge-exact",
                              worst, worst >= 0, witness,
                              details={"constant": str(c.limit_denominator(10**12))})


def verify_main_theorem(ctx: RingContext, trials: int, seed: int) -> VerificationReport:
    """The 2-flat norm inequality at truncation:

        effective_chain_constant * avg_U (maxop_2 f)^{n-1} <= avg_x f^{n-1}

    plus the per-band intermediate inequality

        C_{M_{i+1},n-1} * avg_U (maxop_2 |f_i|)^{n-1}
            <= band_ratio_i * avg_x f^{n-1}.

    The ball indicator's two sides are recorded as a tightness probe but
    not asserted.

    Each chunk of trials (_stacks, the ball last) takes one projection into
    all bands and one coset_maxima over its densities and their bands."""
    n = ctx.dimension
    if n < 3:
        return _skip("main-theorem", ctx, "needs n >= 3")
    if ctx.num_bands < 2:
        return _skip("main-theorem", ctx, "needs >= 2 bands in truncation")
    bands = ctx.num_bands
    chain = chain_constant(ctx, bands)
    worst, witness = Fraction(10**9), None  # passes iff no slack is negative
    band_consts = [appendix_constant(scale(i + 1, ctx, beyond_truncation=True), n - 1)
                   for i in range(bands)]
    band_ratios = [band_constant(i, n, ctx) for i in range(bands)]
    ball = random_density(ctx, seed, "ball")
    for lo, f in _stacks(ctx, seed, trials, (1 + bands) * ctx.size, (ball,)):
        T = min(len(f.num), trials - lo)  # the chunk's trials; the ball's bands are not needed
        g = band_project(f, range(bands))  # row t * bands + i: band i of row t
        means = _maximal_means(np.concatenate([f.num, g.num[:T * bands]]),
                               [*f.den, *g.den[:T * bands]], ctx, 2, n - 1)
        rhs = _power_means(f, n - 1)
        for j in range(T):
            slack = rhs[j] - chain.effective * means[j]
            if slack < worst:
                worst, witness = slack, {"trial": lo + j, "stage": "chain"}
            for i, band_mean in enumerate(means[len(f.num) + j * bands:][:bands]):
                band_slack = band_ratios[i] * rhs[j] - band_consts[i] * band_mean
                if band_slack < worst:
                    worst, witness = band_slack, {"trial": lo + j, "stage": f"band {i}"}
    return VerificationReport("main-theorem", ctx.describe(), trials, "ge-exact",
                              worst, worst >= 0, witness,
                              details={
                                  "chain_sum": chain.partial_sums[-1],
                                  # the last chunk ends with the ball
                                  "ball_probe_lhs_over_rhs": float(chain.effective * means[T] / rhs[T]),
                              })


def verify_besicovitch(points: Sequence[Sequence[int]], ctx: RingContext) -> VerificationReport:
    """The quantitative corollary applied to an indicator: with
    delta_sq = min_U maxop_2(1_S)(U),

        measure(S) >= effective_chain_constant * delta_sq^(n-1)."""
    n = ctx.dimension
    if n < 3:
        return _skip("besicovitch", ctx, "needs n >= 3")
    chain = chain_constant(ctx, ctx.num_bands)
    f = Density.indicator(ctx, points)
    prof = flat_maximal(f, 2)
    delta_sq = prof.min_value()
    measure = Fraction(len({tuple(c % ctx.modulus for c in p) for p in points}), ctx.size)
    bound = chain.effective * delta_sq ** (n - 1)
    slack = measure - bound
    return VerificationReport("besicovitch", ctx.describe(), 1, "ge-exact", slack,
                              slack >= 0, None,
                              details={"delta_sq": str(delta_sq), "measure": str(measure)})


# ---------------------------------------------------------------------------
# suite orchestration
# ---------------------------------------------------------------------------


def corpus_rings() -> list[RingContext]:
    """The documented default rings: N in {4, 6, 8, 9, 12}, n in {2, 3}."""
    return [ring for n in (2, 3) for ring in (RingContext.padic(2, 2, n), RingContext.profinite(2, n),
            RingContext.padic(2, 3, n), RingContext.padic(3, 2, n), RingContext.generic(12, n))]


def projmax_rings() -> list[RingContext]:
    return [RingContext.padic(2, 2, 3), RingContext.padic(2, 3, 3)]


def main_theorem_rings() -> list[RingContext]:
    return [RingContext.padic(2, 3, 3), RingContext.padic(3, 2, 3)]


def besicovitch_rings() -> list[RingContext]:
    return [RingContext.padic(2, 1, 3), RingContext.padic(3, 1, 3)]


@lru_cache(maxsize=None)
def search_certificates() -> tuple[tuple[search.KakeyaCertificate, ...],
                                   tuple[search.KakeyaCertificate, ...]]:
    """Search products for the adversarial corpus: exact 2-flat minima over
    the tiny prime rings and greedy line certificates over prime rings.
    Built once per process and shared by the checks that read them."""
    rings_line = [RingContext.padic(2, 1, 2), RingContext.padic(3, 1, 2),
                  RingContext.padic(2, 1, 3), RingContext.padic(3, 1, 3)]
    return (tuple(search.exact_min_kakeya(ctx, 2) for ctx in besicovitch_rings()),
            tuple(search.greedy_kakeya(ctx, 1) for ctx in rings_line))


def verify_besicovitch_suite() -> list[VerificationReport]:
    """Criterion bundle: every exact minimum 2-flat certificate satisfies the
    quantitative lower bound at full containment, and every line certificate
    over a prime modulus satisfies |S| >= N**n / 2**(n-1)."""
    exact_certs, greedy_certs = search_certificates()
    reports = []
    for cert in exact_certs:
        rep = verify_besicovitch(cert.points, cert.ctx)
        rep.details["certificate_size"] = cert.size
        rep.details["optimal"] = cert.optimal
        reports.append(rep)
    worst = Fraction(10**9)
    witness = None
    ok = True
    for cert in greedy_certs:
        N, n = cert.ctx.modulus, cert.ctx.dimension
        bound = Fraction(N**n, 2 ** (n - 1))
        slack = Fraction(cert.size) - bound
        if slack < worst:
            worst, witness = slack, {"ring": cert.ctx.describe(), "size": cert.size}
        if slack < 0:
            ok = False
    reports.append(VerificationReport("besicovitch[k=1 size bound]", "prime rings",
                                      len(greedy_certs), "ge-exact", worst, ok, witness))
    return reports


def _needs_bands(ctx: RingContext) -> str | None:
    return "no scale sequence" if isinstance(ctx.mode, Generic) else None


def _needs_bands_n3(ctx: RingContext) -> str | None:
    if isinstance(ctx.mode, Generic) or ctx.dimension < 3:
        return "needs bands and n >= 3"
    return None


def _small(trials: int) -> int:
    return max(1, trials // 5)


def _certificate_maxest(trials: int, seed: int) -> Iterator[VerificationReport]:
    """maxest once more per search ring, with the certificates' indicators
    added to its corpus."""
    exact_certs, greedy_certs = search_certificates()
    by_ring: dict[RingContext, list[Density]] = {}
    for cert in exact_certs + greedy_certs:
        by_ring.setdefault(cert.ctx, []).append(Density.indicator(cert.ctx, cert.points))
    for c, extra in by_ring.items():
        yield verify_maxest(c, _small(trials), seed, tuple(extra))


def _greedy_besicovitch(ctx: RingContext) -> list[VerificationReport]:
    cert = search.greedy_kakeya(ctx, 2)
    return [verify_besicovitch(cert.points, ctx)]


@dataclass(frozen=True)
class Check:
    """One row of CHECKS.

    rings: the default rings, those that meet needs.  needs: the reason a
    ring is skipped, or None.  small: runs trials // 5 (at least 1), not
    trials.  run: (ring, trials, seed) -> its reports.  default: (trials,
    seed) -> further reports of a run on the default rings.  The rows call
    the checks by their names in this module, so a patched or traced check
    is the one that runs.
    """

    rings: Callable[[], Sequence[RingContext]]
    run: Callable[[RingContext, int, int], Iterable[VerificationReport]]
    needs: Callable[[RingContext], str | None] = lambda ctx: None
    small: bool = False
    default: Callable[[int, int], Iterable[VerificationReport]] | None = None


CHECKS = {
    "radiusN": Check(lambda: corpus_rings(), lambda c, t, s: [verify_radius_lemma(c)]),
    "plancherel": Check(lambda: corpus_rings(), lambda c, t, s: [verify_plancherel(c, t, s)]),
    "xray-l2": Check(lambda: corpus_rings(), lambda c, t, s: [verify_xray_l2(c, t, s)]),
    # moments p = 2, 3 and n - 1, the main theorem's exponent
    "freqbound": Check(lambda: corpus_rings(),
                       lambda c, t, s: verify_freqbounds(c, sorted({2, 3, max(2, c.dimension - 1)}),
                                                         t, s),
                       _needs_bands),
    "divisor-reduction": Check(lambda: projmax_rings(),
                               lambda c, t, s: [verify_divisor_reduction(c, None, t, s)],
                               _needs_bands, small=True),
    "projmax": Check(lambda: projmax_rings(), lambda c, t, s: [verify_projmax(c, t, s)],
                     _needs_bands, small=True),
    "rounding": Check(lambda: corpus_rings(), lambda c, t, s: [verify_rounding(c, t, s)],
                      small=True),
    "maxest": Check(lambda: corpus_rings(), lambda c, t, s: [verify_maxest(c, t, s)],
                    default=_certificate_maxest),
    "main-theorem": Check(lambda: main_theorem_rings(),
                          lambda c, t, s: [verify_main_theorem(c, t, s)], _needs_bands_n3),
    # the default run checks the search certificates, not rings of its own
    "besicovitch": Check(lambda: (), lambda c, t, s: _greedy_besicovitch(c), _needs_bands_n3,
                         default=lambda t, s: verify_besicovitch_suite()),
}
CHECK_IDS = tuple(CHECKS)


def _ring_reports(cid: str, check: Check, ctx: RingContext, trials: int,
                  seed: int) -> Iterable[VerificationReport]:
    reason = check.needs(ctx)
    return [_skip(cid, ctx, reason)] if reason else check.run(ctx, trials, seed)


def run_checks(check_ids: Sequence[str], seed: int = 0, trials: int = 100,
               ctx: RingContext | None = None) -> list[VerificationReport]:
    """Run named checks over their default rings (or one explicit ring).

    Each check runs on each of its rings with its row's trial count
    (trials, or trials // 5 for the maximal-operator profile checks); an
    explicit ring that does not meet a check's needs gets a skip report.
    Each report's wall_time is the time since its job started or yielded
    the report before it, so it covers all the work done for it, searches
    included.
    """
    checks = [(cid, CHECKS[cid]) for cid in check_ids]  # KeyError before any check runs
    reports: list[VerificationReport] = []
    for cid, check in checks:
        count = _small(trials) if check.small else trials
        rings = [ctx] if ctx is not None else [c for c in check.rings() if not check.needs(c)]
        jobs = [partial(_ring_reports, cid, check, c, count, seed) for c in rings]
        if ctx is None and check.default is not None:
            jobs.append(partial(check.default, trials, seed))
        for job in jobs:
            started = time.perf_counter()
            for rep in job():
                now = time.perf_counter()
                rep.wall_time, started = now - started, now
                reports.append(rep)
    return reports
