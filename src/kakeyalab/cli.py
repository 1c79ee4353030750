"""Command-line surface: verification suites, constants, searches, transforms.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage/config error,
3 resource limit (a table, directions or flats past physical memory, all
refused by tables.check_memory; a MemoryError; int64 headroom; search budget).
Identical config and seed produce byte-identical outputs; wall times are
only written when --timings is given so default reports stay reproducible.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import serialize, verify
from .geometry import EnumerationCapError, canonical_direction
from .harmonic import (Density, band_constant, band_project, band_valuation_sets,
                       fourier_forward, fourier_inverse, xray_transform)
from .maximal import appendix_constant, chain_constant, flat_maximal, line_maximal
from .ring import RingContext, ScaleSemantics, ScaleUndefinedError
from .search import BudgetExceeded, exact_min_kakeya, greedy_kakeya

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kakeyalab",
                                     description="verification lab for maximal Kakeya estimates over Z/NZ")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ring_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mode", choices=("padic", "profinite", "generic"))
        p.add_argument("-p", type=int, help="prime (padic mode)")
        p.add_argument("-l", "--ell", type=int, help="truncation depth (padic mode)")
        p.add_argument("-L", type=int, help="truncation level (profinite mode)")
        p.add_argument("-N", type=int, help="modulus (generic mode)")
        p.add_argument("-n", type=int, help="ambient dimension")
        p.add_argument("--semantics", choices=("numeric", "divisibility"))
        p.add_argument("--output", type=Path)

    pv = sub.add_parser("verify", help="run lemma/theorem checks")
    add_ring_args(pv)
    pv.add_argument("--seed", type=int)
    pv.add_argument("--trials", type=int, default=100)
    pv.add_argument("--ci", action="store_true", help="require an explicit --seed")
    pv.add_argument("--timings", action="store_true")
    # accepted and ignored: checks run sequentially, and the benchmark's
    # suite workload still passes --workers 1
    pv.add_argument("--workers", type=int, help=argparse.SUPPRESS)
    pv.add_argument("--format", choices=("json", "text"), default="json")
    pv.add_argument("checks", nargs="+", help=f"check ids or 'all'; ids: {', '.join(verify.CHECK_IDS)}")

    pc = sub.add_parser("constants", help="tabulate explicit constants per band")
    add_ring_args(pc)
    pc.add_argument("--format", choices=("json", "csv"), default="json")
    pc.add_argument("--depth", type=int, default=None)

    ps = sub.add_parser("search", help="search for small Kakeya-type sets")
    add_ring_args(ps)
    ps.add_argument("-k", type=int, required=True)
    ps.add_argument("--strategy", choices=("greedy", "exact"), default="greedy")
    ps.add_argument("--budget", type=int, default=5_000_000)

    pt = sub.add_parser("transform", help="apply a transform to a density file")
    add_ring_args(pt)
    pt.add_argument("--lane", choices=("exact", "float"), default="exact",
                    help="lane the input density is read into")
    pt.add_argument("--format", choices=("json", "csv"), default="json",
                    help="csv is for --op maximal only")
    pt.add_argument("--op", choices=("fourier", "ifourier", "xray", "band", "maximal"), required=True)
    pt.add_argument("--input", type=Path, required=True)
    pt.add_argument("--direction", help="comma-separated direction for xray")
    pt.add_argument("--index", type=int, help="band index")
    pt.add_argument("-k", type=int, help="maximal operator order")
    return parser


def _ctx_from_args(args) -> RingContext | None:
    if args.mode is None:
        return None
    if args.n is None:
        raise SystemExit2("missing -n (ambient dimension)")
    semantics = None
    if args.semantics:
        semantics = ScaleSemantics(args.semantics)
    if args.mode == "padic":
        if args.p is None or args.ell is None:
            raise SystemExit2("padic mode needs -p and -l")
        return RingContext.padic(args.p, args.ell, args.n,
                                 semantics or ScaleSemantics.NUMERIC)
    if args.mode == "profinite":
        if args.L is None:
            raise SystemExit2("profinite mode needs -L")
        return RingContext.profinite(args.L, args.n,
                                     semantics or ScaleSemantics.DIVISIBILITY)
    if args.N is None:
        raise SystemExit2("generic mode needs -N")
    if args.N < 2:
        raise SystemExit2(f"-N must be at least 2, got {args.N}")
    return RingContext.generic(args.N, args.n)


class SystemExit2(Exception):
    """Usage/config error carrying the exit-2 contract."""


def _emit(text: str, args) -> None:
    if args.output:
        args.output.write_text(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    ctx = _ctx_from_args(args)
    if args.seed is None and args.ci:
        raise SystemExit2("--seed is required in CI mode")
    if args.trials < 1:
        raise SystemExit2("--trials must be at least 1")
    seed = 0 if args.seed is None else args.seed
    checks = list(args.checks)
    if checks == ["all"]:
        checks = list(verify.CHECK_IDS)
    try:
        reports = verify.run_checks(checks, seed=seed, trials=args.trials, ctx=ctx)
    except KeyError as err:
        raise SystemExit2(f"unknown check id {err.args[0]!r}; known: {', '.join(verify.CHECK_IDS)}")
    if args.format == "text":
        _emit(serialize.reports_to_table(reports), args)
    else:
        _emit(serialize.reports_to_json(reports, include_timings=args.timings), args)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _constants_rows(ctx: RingContext, depth: int, semantics: ScaleSemantics) -> list[dict]:
    view = replace(ctx, scale_semantics=semantics)
    n = view.dimension
    chain = chain_constant(view, depth) if n >= 3 else None
    rows = []
    for i in range(depth):
        m_i = view.scale(i, beyond_truncation=True)
        m_next = view.scale(i + 1, beyond_truncation=True)
        row = {
            "band": i,
            "semantics": semantics.value,
            "scale": m_i,
            "band_valuations": sorted(band_valuation_sets(view)[i]) if i < view.num_bands else None,
            "band_constant": serialize.frac_str(band_constant(i, n, view)) if i < view.num_bands else None,
            "appendix_constant_next_scale": serialize.frac_str(
                appendix_constant(m_next, max(2, n - 1))),
        }
        if chain is not None:
            row["chain_term"] = chain.terms[i]
            row["chain_partial_sum"] = chain.partial_sums[i]
        rows.append(row)
    return rows


def cmd_constants(args) -> int:
    ctx = _ctx_from_args(args)
    if ctx is None:
        raise SystemExit2("constants needs an explicit ring (--mode ...)")
    from .ring import Generic, Profinite

    if isinstance(ctx.mode, Generic):
        raise SystemExit2("constants needs a ring with a scale sequence")
    depth = args.depth if args.depth is not None else ctx.num_bands
    if depth < 1:
        raise SystemExit2("--depth must be >= 1")
    semantics_list = [ctx.scale_semantics]
    if isinstance(ctx.mode, Profinite) and args.semantics is None:
        semantics_list = [ScaleSemantics.NUMERIC, ScaleSemantics.DIVISIBILITY]
    from .maximal import constant_ledger

    ledger = constant_ledger(ctx, depth)  # refuses an n = 1 ring before any table is made
    tables_out = {sem.value: _constants_rows(ctx, depth, sem) for sem in semantics_list}
    payload = {
        "schema": serialize.SCHEMA_VERSION,
        "kind": "constants",
        "ring": ctx.describe(),
        "depth": depth,
        "ledger": serialize.ledger_to_obj(ledger),
        "tables": tables_out,
    }
    if args.format == "csv":
        lines = ["semantics,band,scale,band_constant,appendix_constant_next_scale,chain_term,chain_partial_sum"]
        for sem, rows in tables_out.items():
            for r in rows:
                lines.append(",".join(str(r.get(k, "")) for k in
                                      ("semantics", "band", "scale", "band_constant",
                                       "appendix_constant_next_scale", "chain_term",
                                       "chain_partial_sum")))
        _emit("\n".join(lines) + "\n", args)
    else:
        _emit(serialize.canonical_json(payload), args)
    return EXIT_OK


def cmd_search(args) -> int:
    ctx = _ctx_from_args(args)
    if ctx is None:
        raise SystemExit2("search needs an explicit ring (--mode ...)")
    if not 1 <= args.k <= ctx.dimension:
        raise SystemExit2(f"k must satisfy 1 <= k <= n = {ctx.dimension}")
    exit_code = EXIT_OK
    if args.strategy == "greedy":
        cert = greedy_kakeya(ctx, args.k)
    else:
        try:
            cert = exact_min_kakeya(ctx, args.k, budget=args.budget)
        except BudgetExceeded as err:
            cert = err.certificate
            exit_code = EXIT_RESOURCE
    text = serialize.certificate_to_json(cert)
    if args.output:
        args.output.write_text(text)
    summary = [f"size={cert.size}", f"measure={serialize.frac_str(cert.measure)}",
               f"optimal={cert.optimal}"]
    N, n = ctx.modulus, ctx.dimension
    if args.k == 1 and len(ctx.factorization) == 1 and ctx.factorization[0][1] == 1:
        from fractions import Fraction

        bound = Fraction(N**n, 2 ** (n - 1))
        summary.append(f"line_bound={serialize.frac_str(bound)} (size must be >= bound)")
    sys.stdout.write(" ".join(summary) + "\n")
    if not args.output:
        sys.stdout.write(text)
    return exit_code


def _read_density(path: Path, ctx: RingContext) -> Density:
    text = path.read_text()
    if path.suffix == ".json":
        return serialize.density_from_json(text, ctx)
    return serialize.density_from_csv(text, ctx)


def cmd_transform(args) -> int:
    ctx = _ctx_from_args(args)
    if ctx is None:
        raise SystemExit2("transform needs an explicit ring (--mode ...)")
    if args.format == "csv" and args.op != "maximal":
        raise SystemExit2("--format csv is only for --op maximal")
    if args.op == "ifourier":
        spectrum = serialize.spectrum_from_json(args.input.read_text(), ctx)
        density = fourier_inverse(spectrum)
        _emit(serialize.density_to_json(density), args)
        return EXIT_OK
    f = _read_density(args.input, ctx)
    if args.lane == "float":
        f = f.to_float()
    if args.op == "fourier":
        _emit(serialize.spectrum_to_json(fourier_forward(f)), args)
    elif args.op == "xray":
        if not args.direction:
            raise SystemExit2("xray needs --direction c1,c2,...")
        u = canonical_direction([int(c) for c in args.direction.split(",")], ctx)
        _emit(serialize.density_to_json(xray_transform(f, u)), args)
    elif args.op == "band":
        if args.index is None:
            raise SystemExit2("band needs --index")
        _emit(serialize.density_to_json(band_project(f, args.index)), args)
    elif args.op == "maximal":
        if args.k is None:
            raise SystemExit2("maximal needs -k")
        profile = line_maximal(f) if args.k == 1 else flat_maximal(f, args.k)
        if args.format == "csv":
            _emit(serialize.profile_to_csv(profile), args)
        else:
            _emit(serialize.profile_to_json(profile), args)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    handlers = {"verify": cmd_verify, "constants": cmd_constants,
                "search": cmd_search, "transform": cmd_transform}
    try:
        return handlers[args.command](args)
    except SystemExit2 as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    except (EnumerationCapError, MemoryError, OverflowError) as err:  # a table, memory, int64
        sys.stderr.write(f"error: {str(err) or type(err).__name__}\n")
        return EXIT_RESOURCE
    except (ValueError, OSError, ScaleUndefinedError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
