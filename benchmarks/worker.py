"""One fresh process of a benchmark run; ``run.py`` starts it.

    python3 benchmarks/worker.py --workload W --seed S --mode setup
    python3 benchmarks/worker.py --workload W --seed S --mode measure --seconds T [--trace 1]

``setup`` imports kakeyalab, runs the workload's warm-up and reports the
time from before the import until the warm-up ends.  ``measure`` does the
same and then runs passes over the work list for T seconds.  With
``--trace 1`` the warm-up and the later passes are traced, a third of the
time goes to untraced passes for the overhead figure, and the spans are
written to ``.benchmark-out/trace-W.jsonl``.  The last line of standard
output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

OUT_DIR = Path(".benchmark-out")
MAX_FAILURES_SHOWN = 5
# Probes run right after the warm-up; they scale setup_s.
SETUP_PROBES = 20


def run_op(op) -> str | None:
    try:
        return op()
    except Exception as err:  # an operation that raises has failed; keep going
        frame = traceback.extract_tb(err.__traceback__)[-1]
        return f"{type(err).__name__}: {err} ({Path(frame.filename).name}:{frame.lineno})"


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, ops, tracer=None, label: str = "", timer=None) -> float:
        """Run ``ops`` once; with a ``timer``, return the sum of their times,
        which leaves out the timer's probes."""
        total = 0.0
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.item = f"{label}/{i}"
            self.attempted += 1
            if timer is None:
                reason = run_op(op)
            else:
                seconds, reason = timer.time(lambda: run_op(op))
                total += seconds
            if reason is not None:
                self.failures.append(reason)
        return total

    def passes(self, ops, seconds: float, tracer=None, timer=None,
               label: str = "pass") -> list[float]:
        """Whole passes until ``seconds`` have gone by (at least one)."""
        times: list[float] = []
        start = perf_counter()
        while not times or perf_counter() - start < seconds:
            t = perf_counter()
            timed = self.run(ops, tracer, f"{label}{len(times)}", timer)
            times.append(timed if timer else perf_counter() - t)
        return times


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    started = perf_counter()
    if args.trace:
        import kakeyalab.cli  # noqa: F401  (reported as cli.import_s)
    import kakeyalab
    import_s = perf_counter() - started
    src = Path("src").resolve()
    if not Path(kakeyalab.__file__).resolve().is_relative_to(src):
        sys.exit(f"kakeyalab imported from {kakeyalab.__file__}, not from {src}")
    import calibrate
    import tracing
    import workloads

    work = workloads.build(args.workload, args.seed, args.smoke, in_process=bool(args.trace))
    tally = Tally()
    out: dict = {}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tally.run(work.warmup, tracer, "setup")
        tracer.uninstall()
        plain = tally.passes(work.ops, args.seconds / 3)
        tracer.install()
        tracer.phase = "pass"
        traced = tally.passes(work.ops, args.seconds * 2 / 3, tracer)
        tracer.uninstall()
        metrics = tracer.metrics(len(traced))
        metrics["cli.import_s"] = import_s
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / statistics.median(plain)
        metrics["trace.spans"] = len(tracer.spans)
        tracer.dump(OUT_DIR / f"trace-{args.workload}.jsonl")
        out.update(metrics=metrics, traced_s=traced, plain_s=plain)
    else:
        tally.run(work.warmup)
        out["setup_s"] = perf_counter() - started
        out["setup_probe_s"] = calibrate.probe(SETUP_PROBES)
        if args.mode == "measure":
            timer = calibrate.Timer()
            out["pass_s"] = tally.passes(work.ops, args.seconds, timer=timer)
            out["probe_s"] = timer.probes
            who = resource.RUSAGE_CHILDREN if args.workload == "suite" else resource.RUSAGE_SELF
            out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    out.update(attempted=tally.attempted, failed=len(tally.failures),
               failures=tally.failures[:MAX_FAILURES_SHOWN], digests=sorted(work.digests))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
