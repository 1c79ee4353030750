"""File formats: densities (CSV/JSON), spectra, profiles, certificates, reports.

Exact rationals are rendered as "p/q" strings so JSON round trips never
pass through floats.  JSON output is canonical (sorted keys, fixed
separators, trailing newline), which is what makes byte-identical report
comparisons meaningful.
"""
from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from . import tables
from .geometry import Flat, ProjDirection
from .harmonic import Density, Spectrum
from .maximal import ChainConstant, MaximalProfile
from .ring import RingContext
from .search import KakeyaCertificate
from .verify import VerificationReport

SCHEMA_VERSION = 1


def frac_str(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    return repr(float(value))


def parse_value(text: str) -> Fraction:
    """Parse 'p/q', an integer, or a decimal literal into a Fraction."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"cannot parse value {text!r}: {err}") from None


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


def density_to_csv(f: Density) -> str:
    n = f.ctx.dimension
    if f.lane == "float" and np.iscomplexobj(f.data) and np.abs(f.data.imag).max() > 0:
        raise ValueError("CSV cannot hold complex values; use the JSON format")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f"x{i+1}" for i in range(n)] + ["value"])
    values = f.values()
    for i, x in enumerate(f.ctx.points()):
        cell = frac_str(values[i]) if f.lane == "exact" else repr(float(np.real(values[i])))
        writer.writerow(list(x) + [cell])
    return out.getvalue()


def density_from_csv(text: str, ctx: RingContext) -> Density:
    """The exact density of a CSV file with one row per point; a point
    outside 0..N-1 or given twice raises ValueError naming its row."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if not header or header[-1] != "value" or len(header) != ctx.dimension + 1:
        raise ValueError(f"bad density header {header!r}: expected x1,...,x{ctx.dimension},value")
    values = [Fraction(0)] * ctx.size
    seen = set()
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != ctx.dimension + 1:
            raise ValueError(f"row {row_no}: expected {ctx.dimension + 1} fields, got {len(row)}")
        try:
            point = tuple(int(c) for c in row[:-1])
            value = parse_value(row[-1])
        except ValueError as err:
            raise ValueError(f"row {row_no}: {err}") from None
        if not all(0 <= c < ctx.modulus for c in point):
            raise ValueError(f"row {row_no}: point {point} is outside 0..{ctx.modulus - 1}")
        if point in seen:
            raise ValueError(f"row {row_no}: point {point} is given twice")
        seen.add(point)
        values[ctx.rank(point)] = value
    return Density.exact(ctx, values)


def density_to_json(f: Density) -> str:
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "density",
        "modulus": f.ctx.modulus,
        "dimension": f.ctx.dimension,
        "lane": f.lane,
        "values": [frac_str(v) for v in f.values()] if f.lane == "exact"
                  else [[float(np.real(v)), float(np.imag(v))] for v in f.values()],
    }
    return canonical_json(payload)


def _read_payload(text: str, ctx: RingContext, kind: str, body: str) -> dict:
    """The JSON object of a density or spectrum file for ctx; a file of
    another kind or ring, or one missing a field, raises ValueError."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or payload.get("kind") != kind:
        raise ValueError(f"not a {kind} file")
    missing = [key for key in ("modulus", "dimension", "lane", body) if key not in payload]
    if missing:
        raise ValueError(f"{kind} file lacks {', '.join(missing)}")
    if payload["modulus"] != ctx.modulus or payload["dimension"] != ctx.dimension:
        raise ValueError(f"{kind} file does not match the configured ring")
    return payload


def _complex(value, where: str) -> complex:
    """An [re, im] pair of JSON numbers as a complex; ValueError otherwise."""
    if not (isinstance(value, list) and len(value) == 2 and all(isinstance(c, (int, float)) for c in value)):
        raise ValueError(f"{where}: {value!r} is not an [re, im] pair of numbers")
    return complex(*value)


def _rational(value, where: str) -> Fraction:
    """A JSON string of a rational as a Fraction; ValueError otherwise."""
    if not isinstance(value, str):
        raise ValueError(f"{where}: {value!r} is not a rational string")
    try:
        return parse_value(value)
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None


def density_from_json(text: str, ctx: RingContext) -> Density:
    """The density of a JSON file; values not a list of the lane's entries
    (rational strings, or [re, im] pairs) raise ValueError."""
    payload = _read_payload(text, ctx, "density", "values")
    values = payload["values"]
    if not isinstance(values, list):
        raise ValueError(f"density values: {values!r} is not a list")
    if payload["lane"] == "exact":
        return Density.exact(ctx, [_rational(v, f"density value {i}") for i, v in enumerate(values)])
    return Density.from_float(ctx, np.array([_complex(v, f"density value {i}")
                                             for i, v in enumerate(values)]))


def spectrum_to_json(s: Spectrum) -> str:
    freqs = zip(tables.coord_grid(s.ctx).tolist(), tables.valuations(s.ctx).tolist())
    if s.lane == "exact":
        coeffs = [{
            "frequency": a,
            "valuation": v,
            "root_coefficients": [frac_str(Fraction(int(c), s.den)) for c in s.coeffs[i]],
        } for i, (a, v) in enumerate(freqs)]
    else:
        coeffs = [{
            "frequency": a,
            "valuation": v,
            "value": [float(s.values[i].real), float(s.values[i].imag)],
        } for i, (a, v) in enumerate(freqs)]
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "spectrum",
        "modulus": s.ctx.modulus,
        "dimension": s.ctx.dimension,
        "lane": s.lane,
        "coefficients": coeffs,
    }
    return canonical_json(payload)


# ---------------------------------------------------------------------------
# geometry / profiles / certificates
# ---------------------------------------------------------------------------


def flat_to_obj(flat: Flat) -> dict:
    return {"generators": [list(g) for g in flat.generators], "basepoint": list(flat.basepoint)}


def direction_to_obj(d: ProjDirection) -> list[int]:
    return list(d.rep)


def _key_to_obj(key) -> object:
    return direction_to_obj(key) if isinstance(key, ProjDirection) else flat_to_obj(key)


def profile_to_json(profile: MaximalProfile) -> str:
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "maximal-profile",
        "order": profile.k,
        "entries": [{
            "flat": _key_to_obj(key),
            "value": frac_str(v),
            "witness": list(w),
        } for key, v, w in zip(profile.keys, profile.values, profile.witnesses)],
    }
    return canonical_json(payload)


def profile_to_csv(profile: MaximalProfile) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["flat", "value", "witness"])
    for key, v, w in zip(profile.keys, profile.values, profile.witnesses):
        if isinstance(key, ProjDirection):
            fid = ",".join(map(str, key.rep))
        else:
            fid = ";".join(",".join(map(str, g)) for g in key.generators)
        writer.writerow([fid, frac_str(v), ",".join(map(str, w))])
    return out.getvalue()


def certificate_to_json(cert: KakeyaCertificate) -> str:
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "kakeya-certificate",
        "modulus": cert.ctx.modulus,
        "dimension": cert.ctx.dimension,
        "k": cert.k,
        "optimal": cert.optimal,
        "size": cert.size,
        "measure": frac_str(cert.measure),
        "points": [list(p) for p in cert.points],
        "witnesses": [{"flat": flat_to_obj(flat), "shift": list(shift)}
                      for flat, shift in cert.witnesses],
    }
    return canonical_json(payload)


def spectrum_from_json(text: str, ctx: RingContext) -> Spectrum:
    """The spectrum of a JSON file; an entry that is not an object with a
    frequency (n coordinates in 0..N-1, in no other entry) and its lane's
    value (N root coefficients as rational strings, or an [re, im] pair)
    raises ValueError."""
    payload = _read_payload(text, ctx, "spectrum", "coefficients")
    N, n = ctx.modulus, ctx.dimension
    exact = payload["lane"] == "exact"
    key = "root_coefficients" if exact else "value"
    entries = {}  # by rank
    for pos, entry in enumerate(payload["coefficients"]):
        where = f"spectrum coefficient {pos}"
        if not isinstance(entry, dict) or "frequency" not in entry or key not in entry:
            raise ValueError(f"{where} is not an object with frequency and {key}")
        a, value = entry["frequency"], entry[key]
        if not (isinstance(a, list) and len(a) == n and all(isinstance(c, int) and 0 <= c < N for c in a)):
            raise ValueError(f"{where}: frequency {a!r} is not {n} coordinates in 0..{N - 1}")
        if ctx.rank(a) in entries:
            raise ValueError(f"{where}: frequency {a} is given twice")
        if exact and not (isinstance(value, list) and len(value) == N):
            raise ValueError(f"{where}: {value!r} is not {N} root coefficients")
        entries[ctx.rank(a)] = [_rational(c, where) for c in value] if exact else _complex(value, where)
    if exact:
        den = lcm(*(c.denominator for coeffs in entries.values() for c in coeffs))
        mat = np.zeros((ctx.size, ctx.modulus), dtype=np.int64)
        for rank, coeffs in entries.items():
            mat[rank] = [int(c * den) for c in coeffs]
        return Spectrum(ctx, coeffs=mat, den=den)
    values = np.zeros(ctx.size, dtype=np.complex128)
    values[list(entries)] = list(entries.values())
    return Spectrum(ctx, values=values)


def certificate_points_from_json(text: str) -> tuple[int, int, int, list[tuple[int, ...]]]:
    payload = json.loads(text)
    if payload.get("kind") != "kakeya-certificate":
        raise ValueError("not a certificate file")
    return (payload["modulus"], payload["dimension"], payload["k"],
            [tuple(p) for p in payload["points"]])


# ---------------------------------------------------------------------------
# reports and constants
# ---------------------------------------------------------------------------


def report_to_obj(report: VerificationReport, include_timings: bool = False) -> dict:
    obj = {
        "check": report.check,
        "ring": report.ring,
        "trials": report.trials,
        "comparator": report.comparator,
        "worst_slack": None if report.worst_slack is None else frac_str(report.worst_slack),
        "status": report.status,
        "witness": report.witness,
        "details": report.details,
    }
    if include_timings:
        obj["wall_time_s"] = round(report.wall_time, 3)
    return obj


def reports_to_json(reports: Sequence[VerificationReport], include_timings: bool = False) -> str:
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "verification-reports",
        "reports": [report_to_obj(r, include_timings) for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    return canonical_json(payload)


def _slack_text(value: Fraction | None) -> str:
    if value is None:
        return "-"
    if value == 0:
        return "0 (exact)"
    text = frac_str(value)
    return text if len(text) <= 20 else f"~{float(value):.3e}"


def reports_to_table(reports: Sequence[VerificationReport]) -> str:
    headers = ("check", "ring", "trials", "status", "worst slack", "time")
    rows = [(r.check, r.ring, str(r.trials), r.status,
             _slack_text(r.worst_slack), f"{r.wall_time:.2f}s") for r in reports]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def chain_to_obj(chain: ChainConstant) -> dict:
    return {
        "dimension": chain.dimension,
        "depth": chain.depth,
        "scales": list(chain.scales),
        "terms": [float(t) for t in chain.terms],
        "partial_sums": [float(s) for s in chain.partial_sums],
        "sum_raised": float(chain.sum_raised),
        "effective_constant": frac_str(chain.effective),
    }


def ledger_to_obj(ledger) -> dict:
    return {
        "modulus": ledger.modulus,
        "dimension": ledger.dimension,
        "maxN_reference": frac_str(ledger.maxN_reference),
        "appendix_constant": frac_str(ledger.appendix),
        "chain": chain_to_obj(ledger.chain) if ledger.chain is not None else None,
    }
