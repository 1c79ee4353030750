"""Negative controls: corrupt one ingredient and the checks must fail.

A verification suite that can never fail verifies nothing, so each test
here monkeypatches a single internal (a transform, a constant, a maximal
scan) and asserts the affected check reports the damage.
"""
from fractions import Fraction

import numpy as np
import pytest

import kakeyalab.harmonic as harmonic
import kakeyalab.maximal as maximal
import kakeyalab.verify as verify
from kakeyalab.harmonic import Density, Spectrum
from kakeyalab.ring import RingContext

CTX = RingContext.padic(2, 2, 2)
CTX3D = RingContext.padic(2, 2, 3)


def test_plancherel_detects_corrupt_spectrum(monkeypatch):
    true_forward = harmonic.fourier_forward

    def corrupt(f):
        # doubling every coefficient keeps the inverse rational (it is 2f)
        # but breaks both Plancherel and the round trip
        s = true_forward(f)
        if s.lane == "exact":
            return Spectrum(s.ctx, coeffs=s.coeffs * 2, den=s.den)
        return Spectrum(s.ctx, values=s.values * 2)

    monkeypatch.setattr(verify, "fourier_forward", corrupt)
    rep = verify.verify_plancherel(CTX, trials=3, seed=0)
    assert not rep.passed


def test_xray_l2_detects_wrong_valuation_weight(monkeypatch):
    true_spectral = harmonic.xray_l2_spectral

    def skewed(f):
        return true_spectral(f) + Fraction(1, 10**6)

    monkeypatch.setattr(verify, "xray_l2_spectral", skewed)
    rep = verify.verify_xray_l2(CTX, trials=2, seed=0)
    assert not rep.passed and rep.worst_slack >= Fraction(1, 10**6)


def test_radius_lemma_detects_wrong_count(monkeypatch):
    from kakeyalab import geometry

    true_size = geometry.proj_size

    def wrong(N, m):
        value = true_size(N, m)
        return value + 1 if (N, m) == (2, 2) else value

    monkeypatch.setattr(verify, "proj_size", wrong)
    rep = verify.verify_radius_lemma(CTX)
    assert not rep.passed


def inflated_maxima(rows, ctx, k, **kwargs):
    return maximal.coset_maxima(rows, ctx, k, **kwargs) * 10**6


def test_maxest_detects_overstated_maximal_values(monkeypatch):
    # the explicit constant is tiny, so the inflation must exceed the real
    # slack scale (1/constant)**(1/n) before the inequality can flip
    monkeypatch.setattr(verify, "coset_maxima", inflated_maxima)
    rep = verify.verify_maxest(CTX, trials=3, seed=0)
    assert not rep.passed


def test_main_theorem_detects_overstated_maximal_values(monkeypatch):
    monkeypatch.setattr(verify, "coset_maxima", inflated_maxima)
    rep = verify.verify_main_theorem(CTX3D, trials=3, seed=0)
    assert not rep.passed and rep.worst_slack < 0


def test_projmax_detects_wrong_lift(monkeypatch):
    from kakeyalab import tables

    true_lift = tables.lift_map.__wrapped__

    def scrambled(ctx):
        lift = true_lift(ctx).copy()
        # swap two image flats so one (u, w) pair points at the wrong plane
        lift[0, [0, 1]] = lift[0, [1, 0]]
        return lift

    monkeypatch.setattr(verify.tables, "lift_map", scrambled)
    rep = verify.verify_projmax(CTX3D, trials=3, seed=0)
    assert not rep.passed


def test_freqbound_detects_shrunken_constant(monkeypatch):
    true_constant = harmonic.band_constant

    def shrunken(i, m, ctx):
        return true_constant(i, m, ctx) / 10**9

    monkeypatch.setattr(verify, "band_constant", shrunken)
    rep = verify.verify_freqbound(CTX, 2, trials=3, seed=0)
    assert not rep.passed


def test_rounding_detects_downward_rounding(monkeypatch):
    def floor_version(f):
        N = f.ctx.modulus
        scaled = np.array([(int(v) * N) // f.den for v in f.num], dtype=np.int64)
        return Density(f.ctx, num=scaled, den=N)

    monkeypatch.setattr(verify, "rounding_g", floor_version)
    rep = verify.verify_rounding(CTX, trials=5, seed=0)
    assert not rep.passed


def test_besicovitch_detects_missing_points():
    # a set too small to contain a translate of every plane direction has
    # delta_sq below 1; the bound still holds, but delta must reflect it
    ctx = RingContext.padic(2, 1, 3)
    rep = verify.verify_besicovitch([(0, 0, 0)], ctx)
    assert rep.details["delta_sq"] == "1/4"
