"""Executable checks for the identities and inequalities the package implements.

Each check returns a VerificationReport.  Rational-lane equalities carry
zero tolerance; float-lane equalities allow 1e-9; inequalities need
slack >= 0 exactly, or >= -1e-12 in the float lane.  Reports are pure
functions of (check, ring, seed, trials), so a rerun with the same
configuration reproduces them byte for byte.
"""
from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import search, tables
from .geometry import proj_size
from .harmonic import (Density, band_constant, band_project, fourier_forward,
                       fourier_inverse, induce_rows, xray_all, xray_l2_spectral)
from .maximal import (appendix_constant, chain_constant, coset_maxima,
                      flat_maximal, line_maximal, rounding_g)
from .ring import Generic, RingContext, scale

FLOAT_EQ_TOL = 1e-9
FLOAT_INEQ_TOL = -1e-12


@dataclass
class VerificationReport:
    """Machine-checkable outcome of one lemma/theorem check on one ring."""

    check: str
    ring: str
    trials: int
    comparator: str  # "eq-exact" | "eq-float" | "ge-exact" | "ge-float"
    worst_slack: object
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


def random_density(ctx: RingContext, seed: int, dist: str = "uniform-rational",
                   lane: str = "exact", trial: int = 0) -> Density:
    """Deterministic seeded density; sparse and flat-supported bias toward
    adversarial structure, ball is a single radius-1/N point."""
    rng = _rng_for(ctx, seed, dist, trial)
    size = ctx.size
    if dist == "uniform-rational":
        den = rng.choice((2, 3, 4, 6, 8, 12))
        num = np.array([rng.randint(0, 4 * den) for _ in range(size)], dtype=np.int64)
        f = Density.from_numden(ctx, num, den)
    elif dist == "sparse":
        num = np.zeros(size, dtype=np.int64)
        support = rng.sample(range(size), max(1, size // 8))
        for i in support:
            num[i] = rng.randint(1, 9)
        f = Density.from_numden(ctx, num, 1)
    elif dist == "flat-supported":
        k = rng.randint(1, min(2, ctx.dimension))
        flat = rng.choice(tables.flats(ctx, k))
        shift = ctx.unrank(rng.randrange(size))
        from .geometry import flat_points

        pts = [tuple((a + b) % ctx.modulus for a, b in zip(p, shift)) for p in flat_points(flat)]
        f = Density.indicator(ctx, pts)
    elif dist == "ball":
        f = Density.indicator(ctx, [ctx.unrank(rng.randrange(size))])
    else:
        raise ValueError(f"unknown distribution {dist!r}")
    return f.to_float() if lane == "float" else f


def _corpus(ctx: RingContext, seed: int, trials: int, lane: str = "exact") -> Iterable[Density]:
    for t in range(trials):
        dist = DISTRIBUTIONS[t % len(DISTRIBUTIONS)]
        yield random_density(ctx, seed, dist, lane, trial=t)


def _frac_mean(values: Sequence[Fraction], power: int = 1) -> Fraction:
    """Mean of v**power, summed as integers over one common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    total = sum((v.numerator * (den // v.denominator)) ** power for v in values)
    return Fraction(total, den**power * len(values))


def _line_moments(rows: np.ndarray, ctx: RingContext, power: int,
                  index: np.ndarray | None = None) -> np.ndarray:
    """sum_w (largest line sum of |row| in direction w)**power per row, as
    Python ints (object dtype), so the powers cannot wrap.  With an index
    the rows are read through it (see coset_maxima)."""
    return (coset_maxima(rows, ctx, 1, index=index).astype(object) ** power).sum(axis=1)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def verify_radius_lemma(ctx: RingContext) -> VerificationReport:
    """Enumerated orthogonal-direction fraction equals the projective ratio
    proj_size(v(a), n-1) / proj_size(v(a), n) for every dual frequency."""
    n = ctx.dimension
    mask = tables.orthogonality_mask(ctx)
    counts = mask.sum(axis=0)
    vals = tables.valuations(ctx)
    P = mask.shape[0]
    worst = Fraction(0)
    witness = None
    for i in range(ctx.size):
        v = int(vals[i])
        diff = Fraction(int(counts[i]), P) - Fraction(proj_size(v, n - 1), proj_size(v, n))
        if abs(diff) > worst:
            worst = abs(diff)
            witness = {"frequency": list(map(int, tables.coord_grid(ctx)[i])), "valuation": v}
    return VerificationReport("radiusN", ctx.describe(), ctx.size, "eq-exact",
                              worst, worst == 0, witness)


def verify_plancherel(ctx: RingContext, trials: int, seed: int) -> VerificationReport:
    """Plancherel and the Fourier round trip: exact in the rational lane,
    within 1e-10 in the float lane."""
    worst_exact = Fraction(0)
    worst_float = 0.0
    witness = None
    for t, f in enumerate(_corpus(ctx, seed, trials)):
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
        fback = fourier_inverse(sf)
        fdiff = max(fdiff, float(np.abs(fback.data - ff.data).max()))
        if fdiff > worst_float:
            worst_float = fdiff
            if fdiff > 1e-10:
                witness = {"trial": t, "lane": "float"}
    passed = worst_exact == 0 and worst_float <= 1e-10
    return VerificationReport("plancherel", ctx.describe(), trials, "eq-exact",
                              worst_exact, passed, witness,
                              details={"float_worst": worst_float})


def verify_xray_l2(ctx: RingContext, trials: int, seed: int) -> VerificationReport:
    """The X-ray l2 identity: avg_u integral |f_u|^2 equals the
    valuation-weighted spectral sum, and per direction the orthogonal-sum identity
    sum_{a in u-perp} |f^(a)|^2 = integral |f_u|^2, all exact.  Each trial
    takes one transform and one set of X-rays, which both identities share."""
    worst = Fraction(0)
    witness = None
    mask = tables.orthogonality_mask(ctx)
    qsize = ctx.size // ctx.modulus
    for t, f in enumerate(_corpus(ctx, seed, trials)):
        s = fourier_forward(f)
        nums, den = xray_all(f)
        xray_den = den**2 * qsize
        row_l2 = (nums.astype(object) ** 2).sum(axis=1)  # integral |f_u|^2 * xray_den
        spatial = Fraction(int(row_l2.sum()), xray_den * len(nums))
        diff = abs(spatial - xray_l2_spectral(s))
        if diff > worst:
            worst, witness = diff, {"trial": t, "side": "identity"}
        spec, spec_den = s.masses(mask)
        common = math.lcm(spec_den, xray_den)
        diffs = np.abs(spec.astype(object) * (common // spec_den) - row_l2 * (common // xray_den))
        ui = int(np.argmax(diffs))  # all directions at once; the first largest gap
        diff = Fraction(int(diffs[ui]), common)
        if diff > worst:
            worst, witness = diff, {"trial": t, "direction": ui, "side": "orthogonal sum"}
    return VerificationReport("xray-l2", ctx.describe(), trials, "eq-exact",
                              worst, worst == 0, witness)


def verify_freqbound(ctx: RingContext, p: int, trials: int, seed: int) -> VerificationReport:
    """Band-limited X-ray p-th moment bound: for every band i,

        avg_u integral |f_{i,u}|^p <= band_constant(i, n) * integral |f|^p.

    p = 2 is checked exactly; p > 2 runs in the float lane with slack
    logged (the interpolation consequence)."""
    if p < 2:
        return _skip(f"freqbound[p={p}]", ctx, "needs p >= 2")
    n = ctx.dimension
    nbands = ctx.num_bands
    exact = p == 2
    worst = Fraction(10**9) if exact else float("inf")
    witness = None
    ok = True
    for t, f in enumerate(_corpus(ctx, seed, trials)):
        rhs_base = f.power_mean(p) if exact else f.to_float().power_mean(p)
        for i in range(nbands):
            bc = band_constant(i, n, ctx)
            if exact:
                fi = band_project(f, i)
                lhs = _xray_power_mean_exact(fi, 2)
                slack = bc * rhs_base - lhs
            else:
                fi = band_project(f.to_float(), i)
                lhs = _xray_power_mean_float(fi, p)
                slack = float(bc) * rhs_base - lhs
            if slack < worst:
                worst, witness = slack, {"trial": t, "band": i}
            if (exact and slack < 0) or (not exact and slack < FLOAT_INEQ_TOL):
                ok = False
    return VerificationReport(f"freqbound[p={p}]", ctx.describe(), trials,
                              "ge-exact" if exact else "ge-float", worst, ok, witness)


def _xray_power_mean_exact(f: Density, p: int) -> Fraction:
    nums, den = xray_all(f)
    qsize = f.ctx.size // f.ctx.modulus
    total = int((np.abs(nums.astype(object)) ** p).sum())
    return Fraction(total, den**p * qsize * nums.shape[0])


def _xray_power_mean_float(f: Density, p: int) -> float:
    nums, _ = xray_all(f)
    qsize = f.ctx.size // f.ctx.modulus
    return float((np.abs(nums) ** p).sum() / (qsize * nums.shape[0]))


def verify_divisor_reduction(ctx: RingContext, band: int | None, trials: int,
                             seed: int) -> VerificationReport:
    """Quotient-side maximal moment equals its finite-scale average:

        avg_{w in P Q_u} maxop_1 f_{i,u}(w)^{n-1}
            = avg_{w in P Q_{i,u}} maxop_1 f'_{i,u}(w)^{n-1}

    with f'_{i,u} the scale-M_{i+1} version of the X-ray of the band
    component.  If the band is not coset-constant (numeric semantics over
    factorial scales), the constancy violation is reported instead.

    Per trial and band every X-ray row is checked at once: one constancy
    check over the stack (induce_rows), one coset_maxima per side, and the
    (n-1)-th power sums as Python ints, compared over a common denominator.
    The witness is the first direction with the largest gap."""
    n = ctx.dimension
    bands = range(ctx.num_bands) if band is None else [band]
    qctx = ctx.quotient()
    worst = Fraction(0)
    witness = None
    violations = []
    for t, f in enumerate(_corpus(ctx, seed, trials)):
        for i in bands:
            nums, den = xray_all(band_project(f, i))
            m_next = scale(i + 1, ctx, beyond_truncation=True)
            mctx, index, gaps = induce_rows(nums, qctx, m_next)
            for ui in np.flatnonzero(gaps):
                violations.append({"trial": t, "band": i, "direction": int(ui),
                                   "violation": str(Fraction(int(gaps[ui]), den))})
            kept = np.flatnonzero(gaps == 0)
            if not len(kept):
                continue
            # a line maximum at modulus M is best / (den * M), so each side's
            # mean of (n-1)-th powers is a moment over (den * M)**(n-1) * #directions;
            # every row is summed (a violating row only wastes its sums), so
            # only the small moment arrays are indexed, not the row stacks
            lhs = _line_moments(nums, qctx, n - 1)
            lhs_den = (den * qctx.modulus) ** (n - 1) * len(tables.directions(qctx))
            rhs = _line_moments(nums, mctx, n - 1, index)
            rhs_den = (den * mctx.modulus) ** (n - 1) * len(tables.directions(mctx))
            common = math.lcm(lhs_den, rhs_den)
            diffs = np.abs(lhs[kept] * (common // lhs_den) - rhs[kept] * (common // rhs_den)).tolist()
            j = diffs.index(max(diffs))  # the first direction with the largest gap
            diff = Fraction(diffs[j], common)
            if diff > worst:
                worst, witness = diff, {"trial": t, "band": i, "direction": int(kept[j])}
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
    maxima of every X-ray row, taken in one coset_maxima call."""
    if ctx.dimension < 2:
        return _skip("projmax", ctx, "needs n >= 2")
    lift = tables.lift_map(ctx)
    qctx = ctx.quotient()
    nq = len(tables.directions(qctx))
    lifted = np.array([[lift[(ui, wi)] for wi in range(nq)]
                       for ui in range(len(tables.directions(ctx)))])
    worst = Fraction(0)
    witness = None
    nbands = ctx.num_bands
    for t, f in enumerate(_corpus(ctx, seed, trials)):
        g = band_project(f, t % nbands).abs()
        plane = coset_maxima(g.num[None], ctx, 2)[0]
        nums, _ = xray_all(g)
        # plane maxima are over g.den * N**2 (N**2 points a plane); X-ray rows
        # are over g.den * N and a line has N points, so both share it
        gaps = np.abs(plane[lifted] - coset_maxima(nums, qctx, 1))
        j = int(np.argmax(gaps))  # the first largest gap in (u, w) order
        diff = Fraction(int(gaps.flat[j]), g.den * ctx.modulus**2)
        if diff > worst:
            ui, wi = divmod(j, nq)
            worst, witness = diff, {"trial": t, "direction": ui, "quotient_direction": wi}
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
        if not all(gv >= fv for gv, fv in zip(g.values(), f.values())):
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

        E_x |f|^n >= appendix_constant(N, n) * E_u (maxop_1 f(u))^n."""
    n = ctx.dimension
    c = appendix_constant(ctx.modulus, n)
    worst = Fraction(10**9)
    witness = None
    ok = True
    densities = list(_corpus(ctx, seed, trials))
    densities.extend(extra)
    for t, f in enumerate(densities):
        prof = line_maximal(f)
        lhs = f.power_mean(n)
        rhs = c * _frac_mean(prof.values, n)
        slack = lhs - rhs
        if slack < worst:
            worst, witness = slack, {"trial": t}
        if slack < 0:
            ok = False
            witness = {"trial": t, "failure": "inequality violated"}
    return VerificationReport("maxest", ctx.describe(), len(densities), "ge-exact",
                              worst, ok, witness,
                              details={"constant": str(c.limit_denominator(10**12))})


def verify_main_theorem(ctx: RingContext, trials: int, seed: int) -> VerificationReport:
    """The 2-flat norm inequality at truncation:

        effective_chain_constant * avg_U (maxop_2 f)^{n-1} <= avg_x f^{n-1}

    plus the per-band intermediate inequality

        C_{M_{i+1},n-1} * avg_U (maxop_2 |f_i|)^{n-1}
            <= band_ratio_i * avg_x f^{n-1}.

    The ball indicator's two sides are recorded as a tightness probe but
    not asserted."""
    n = ctx.dimension
    if n < 3:
        return _skip("main-theorem", ctx, "needs n >= 3")
    if ctx.num_bands < 2:
        return _skip("main-theorem", ctx, "needs >= 2 bands in truncation")
    chain = chain_constant(ctx, ctx.num_bands)
    worst = Fraction(10**9)
    witness = None
    ok = True
    band_consts = [appendix_constant(scale(i + 1, ctx, beyond_truncation=True), n - 1)
                   for i in range(ctx.num_bands)]
    band_ratios = [band_constant(i, n, ctx) for i in range(ctx.num_bands)]
    for t, f in enumerate(_corpus(ctx, seed, trials)):
        rhs = f.power_mean(n - 1)
        prof = flat_maximal(f, 2)
        slack = rhs - chain.effective * _frac_mean(prof.values, n - 1)
        if slack < worst:
            worst, witness = slack, {"trial": t, "stage": "chain"}
        if slack < 0:
            ok = False
        for i in range(ctx.num_bands):
            g = band_project(f, i).abs()
            prof_i = flat_maximal(g, 2)
            band_slack = band_ratios[i] * rhs - band_consts[i] * _frac_mean(prof_i.values, n - 1)
            if band_slack < worst:
                worst, witness = band_slack, {"trial": t, "stage": f"band {i}"}
            if band_slack < 0:
                ok = False
    ball = random_density(ctx, seed, "ball")
    prof = flat_maximal(ball, 2)
    probe_lhs = chain.effective * _frac_mean(prof.values, n - 1)
    probe_rhs = ball.power_mean(n - 1)
    return VerificationReport("main-theorem", ctx.describe(), trials, "ge-exact",
                              worst, ok, witness,
                              details={
                                  "chain_sum": chain.partial_sums[-1],
                                  "ball_probe_lhs_over_rhs": float(probe_lhs / probe_rhs),
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
    out = []
    for n in (2, 3):
        out.extend([
            RingContext.padic(2, 2, n),
            RingContext.profinite(2, n),
            RingContext.padic(2, 3, n),
            RingContext.padic(3, 2, n),
            RingContext.generic(12, n),
        ])
    return out


def projmax_rings() -> list[RingContext]:
    return [RingContext.padic(2, 2, 3), RingContext.padic(2, 3, 3)]


def main_theorem_rings() -> list[RingContext]:
    return [RingContext.padic(2, 3, 3), RingContext.padic(3, 2, 3)]


def besicovitch_rings() -> list[RingContext]:
    return [RingContext.padic(2, 1, 3), RingContext.padic(3, 1, 3)]


def search_certificates(rings_2flat: Sequence[RingContext] | None = None,
                        rings_line: Sequence[RingContext] | None = None):
    """Search products for the adversarial corpus: exact 2-flat minima over
    the tiny prime rings and greedy line certificates over prime rings."""
    rings_2flat = besicovitch_rings() if rings_2flat is None else rings_2flat
    if rings_line is None:
        rings_line = [RingContext.padic(2, 1, 2), RingContext.padic(3, 1, 2),
                      RingContext.padic(2, 1, 3), RingContext.padic(3, 1, 3)]
    exact_certs = [search.exact_min_kakeya(ctx, 2) for ctx in rings_2flat]
    greedy_certs = [search.greedy_kakeya(ctx, 1) for ctx in rings_line]
    return exact_certs, greedy_certs


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
    # moments p = 2 (the exact lane), 3 and n - 1, the main theorem's exponent
    "freqbound": Check(lambda: corpus_rings(),
                       lambda c, t, s: (verify_freqbound(c, p, t, s)
                                        for p in sorted({2, 3, max(2, c.dimension - 1)})),
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
