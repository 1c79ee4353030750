import json
from fractions import Fraction

import numpy as np
import pytest

from kakeyalab.harmonic import Density, fourier_forward
from kakeyalab.maximal import constant_ledger, flat_maximal, line_maximal
from kakeyalab.ring import RingContext
from kakeyalab.search import greedy_kakeya
from kakeyalab.serialize import (canonical_json, certificate_to_json,
                                 density_from_json,
                                 density_to_csv, density_to_json, frac_str,
                                 ledger_to_obj, parse_value, profile_to_csv,
                                 profile_to_json, spectrum_from_json,
                                 spectrum_to_json)
from kakeyalab.verify import random_density

CTX = RingContext.padic(2, 2, 2)


def test_value_parsing():
    assert parse_value("3/4") == Fraction(3, 4)
    assert parse_value("0.25") == Fraction(1, 4)
    assert parse_value(" 7 ") == 7
    with pytest.raises(ValueError):
        parse_value("1/0")
    with pytest.raises(ValueError):
        parse_value("x")


def test_frac_str_round_trip():
    for v in (Fraction(3, 7), Fraction(-2, 5), Fraction(4)):
        assert parse_value(frac_str(v)) == v


def test_density_json_round_trip_exact():
    f = random_density(CTX, seed=1, dist="uniform-rational")
    assert density_from_json(density_to_json(f), CTX) == f


def test_density_json_rejects_wrong_ring():
    f = random_density(CTX, seed=1, dist="uniform-rational")
    other = RingContext.padic(3, 1, 2)
    with pytest.raises(ValueError):
        density_from_json(density_to_json(f), other)


def test_density_csv_rejects_complex():
    data = np.array([1j] * CTX.size)
    with pytest.raises(ValueError, match="complex"):
        density_to_csv(Density.from_float(CTX, data))


def test_spectrum_json_round_trip_exact():
    f = random_density(CTX, seed=2, dist="sparse")
    s = fourier_forward(f)
    s2 = spectrum_from_json(spectrum_to_json(s), CTX)
    assert s2.den == s.den and (s2.coeffs == s.coeffs).all()


def test_spectrum_json_float():
    f = random_density(CTX, seed=3, dist="uniform-rational").to_float()
    s = fourier_forward(f)
    s2 = spectrum_from_json(spectrum_to_json(s), CTX)
    assert np.abs(s2.values - s.values).max() < 1e-12
    payload = json.loads(spectrum_to_json(s))
    assert all("valuation" in entry for entry in payload["coefficients"])


def test_profile_serialization():
    f = random_density(CTX, seed=4, dist="uniform-rational")
    prof = line_maximal(f)
    payload = json.loads(profile_to_json(prof))
    assert payload["order"] == 1 and len(payload["entries"]) == len(prof.keys)
    csv_text = profile_to_csv(flat_maximal(f, 2))
    assert csv_text.splitlines()[0] == "flat,value,witness"


def test_certificate_serialization():
    ctx = RingContext.padic(2, 1, 2)
    cert = greedy_kakeya(ctx, 1)
    payload = json.loads(certificate_to_json(cert))
    assert payload["size"] == cert.size
    assert len(payload["witnesses"]) == 3


def test_ledger_serialization():
    ledger = constant_ledger(RingContext.padic(2, 2, 3))
    obj = ledger_to_obj(ledger)
    assert obj["chain"]["depth"] == 3
    assert parse_value(obj["appendix_constant"]) > 0


def test_canonical_json_is_stable():
    obj = {"b": 1, "a": [1, 2]}
    assert canonical_json(obj) == canonical_json({"a": [1, 2], "b": 1})
    assert canonical_json(obj).endswith("\n")
