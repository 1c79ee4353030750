"""The benchmark's workloads: fixed work lists built from a seed.

A workload is a list of operations making up one pass, plus a warm-up
run once after import.  An operation runs one unit of work that a user
would ask for (one check on one ring, one search or certify call, one CLI
command) and checks its output; it returns ``None`` when the output is
correct and a one-line reason otherwise.

Trial counts are smaller than a full ``verify all`` so that one pass takes
a second or a few, and a run of a fixed length holds several passes whose
median is steady.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

from kakeyalab import search, tables, verify
from kakeyalab.ring import Generic, RingContext
from tracing import clear_caches

Op = Callable[[], "str | None"]

# Sizes of the minimum certificates, measured at the benchmark's first
# commit.  Each must come back with optimal=True.
EXACT_REFERENCE = {
    ("padic(p=7, ell=1) n=2", 1): 31,
    ("padic(p=2, ell=2) n=3", 2): 55,
}
# Size of the deterministic greedy certificate, measured likewise.
GREEDY_REFERENCE = {("generic(N=6) n=3", 1): 85}

SPECTRAL_TRIALS = 5
MAXIMAL_TRIALS = {"main-theorem": 2, "projmax": 2, "divisor-reduction": 1, "maxest": 4}
SUITE_TRIALS = 1
# A pass of every workload stays far below the run time, so this only
# stops a hung command.
SUITE_TIMEOUT_S = 120


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]
    # report digests seen by the suite, to check byte-identical reruns
    digests: set[str] = field(default_factory=set)


def program_seed(seed: int) -> int:
    """The seed handed to kakeyalab, derived from the benchmark seed."""
    return random.Random(f"kakeyalab-bench|{seed}").randrange(2**31)


def report_failure(reports) -> str | None:
    """Why a check's report(s) are wrong, or None.  An exact equality must
    hold with zero slack, not merely be marked passed."""
    for rep in reports if isinstance(reports, list) else [reports]:
        if not rep.passed:
            return f"{rep.check} on {rep.ring} failed: slack {rep.worst_slack}"
        if rep.comparator == "eq-exact" and rep.worst_slack != 0:
            return f"{rep.check} on {rep.ring} has nonzero exact slack {rep.worst_slack}"
    return None


def _check_op(check: Callable[[int], object]) -> Callable[[int], Op]:
    """Turn ``trials -> report`` into ``trials -> op``."""
    return lambda trials: (lambda: report_failure(check(trials)))


def spectral(seed: int, smoke: bool) -> Workload:
    """Fourier/X-ray identities on the ten corpus rings."""
    s = program_seed(seed)
    checks = []
    for ctx in verify.corpus_rings():
        checks.append(_check_op(lambda t, c=ctx: verify.verify_plancherel(c, t, s)))
        checks.append(_check_op(lambda t, c=ctx: verify.verify_xray_l2(c, t, s)))
        if not isinstance(ctx.mode, Generic):
            for p in (2, 3):
                checks.append(_check_op(
                    lambda t, c=ctx, p=p: verify.verify_freqbound(c, p, t, s)))
    trials = 1 if smoke else SPECTRAL_TRIALS
    return Workload([c(trials) for c in checks], [c(1) for c in checks])


def maximal(seed: int, smoke: bool) -> Workload:
    """Maximal-operator checks on the two main-theorem rings and generic(12,3)."""
    s = program_seed(seed)
    runs = {
        "main-theorem": lambda c, t: verify.verify_main_theorem(c, t, s),
        "projmax": lambda c, t: verify.verify_projmax(c, t, s),
        "divisor-reduction": lambda c, t: verify.verify_divisor_reduction(c, None, t, s),
    }
    checks = []
    for ctx in (RingContext.padic(2, 3, 3), RingContext.padic(3, 2, 3)):
        for name, run in runs.items():
            checks.append((name, _check_op(lambda t, c=ctx, run=run: run(c, t))))
    g = RingContext.generic(12, 3)
    checks.append(("maxest", _check_op(lambda t: verify.verify_maxest(g, t, s))))
    return Workload([c(1 if smoke else MAXIMAL_TRIALS[name]) for name, c in checks],
                    [c(1) for _, c in checks])


def _exact_op(ctx: RingContext, k: int) -> Op:
    def op():
        cert = search.exact_min_kakeya(ctx, k)
        want = EXACT_REFERENCE[(ctx.describe(), k)]
        if cert.size != want or not cert.optimal:
            return f"exact {ctx.describe()} k={k}: size {cert.size} optimal={cert.optimal}, want {want}"
        again = search.certify(cert.points, ctx, k)
        if again.points != cert.points:
            return f"certify changed the exact certificate on {ctx.describe()}"
        return None
    return op


def _greedy_op(ctx: RingContext, k: int, extras: list[tuple[int, ...]]) -> Op:
    def op():
        cert = search.greedy_kakeya(ctx, k)
        want = GREEDY_REFERENCE[(ctx.describe(), k)]
        if cert.size != want:
            return f"greedy {ctx.describe()} k={k}: size {cert.size}, want {want}"
        grown = search.certify(list(cert.points) + extras, ctx, k)
        if grown.points != tuple(sorted(set(cert.points) | set(extras))):
            return f"certify returned the wrong point set on {ctx.describe()}"
        return None
    return op


def search_workload(seed: int) -> Workload:
    """Exact branch and bound, greedy search and certify."""
    g = RingContext.generic(6, 3)
    rng = random.Random(f"search-extras|{seed}")
    extras = [tuple(rng.randrange(g.modulus) for _ in range(g.dimension))
              for _ in range(rng.randint(1, 8))]
    plan = [(RingContext.padic(7, 1, 2), 1), (RingContext.padic(2, 2, 3), 2)]
    ops = [_exact_op(c, k) for c, k in plan] + [_greedy_op(g, 1, extras)]

    def enumerate_flats():
        for c, k in plan + [(g, 1)]:
            tables.flats(c, k)

    return Workload(ops, [enumerate_flats])


def suite(seed: int, in_process: bool) -> Workload:
    """``kakeyalab verify all`` as one command.  ``in_process`` runs
    ``cli.main`` in this process with every cache emptied first, which is
    what the traced run needs; otherwise each pass is a fresh process."""
    argv = ["verify", "all", "--trials", str(SUITE_TRIALS), "--workers", "1",
            "--seed", str(program_seed(seed))]
    work = Workload([], [])

    def run_command() -> tuple[int, bytes]:
        if in_process:
            from kakeyalab import cli

            clear_caches()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue().encode()
        proc = subprocess.run([sys.executable, "-m", "kakeyalab", *argv],
                              capture_output=True, timeout=SUITE_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def op():
        code, out = run_command()
        if code != 0:
            return f"verify all exited {code}"
        work.digests.add(hashlib.sha256(out).hexdigest())
        if len(work.digests) > 1:
            return "verify all output differs between identical commands"
        doc = json.loads(out)
        if not doc["all_passed"]:
            return "verify all reports a failed check"
        for rep in doc["reports"]:
            if rep["comparator"] == "eq-exact" and rep["worst_slack"] != "0":
                return f"{rep['check']} on {rep['ring']} has nonzero exact slack"
        return None

    work.ops.append(op)
    return work


def build(name: str, seed: int, smoke: bool, in_process: bool) -> Workload:
    """The named workload; ``smoke`` cuts checks to one trial and
    ``in_process`` makes the suite call ``cli.main`` in this process."""
    if name == "spectral":
        return spectral(seed, smoke)
    if name == "maximal":
        return maximal(seed, smoke)
    if name == "search":
        return search_workload(seed)
    return suite(seed, in_process)
