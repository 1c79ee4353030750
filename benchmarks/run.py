"""kakeyalab benchmark: one workload, one run, one JSON result line.

    python3 benchmarks/run.py --workload {spectral,maximal,search,suite} \\
        --seed N --seconds T --trace {0,1}

Run it from the root of a source checkout; it imports kakeyalab from
``src/`` and needs nothing to be installed.  Every measurement happens in
fresh child processes (``worker.py``), one after another, with
``KAKEYALAB_WORKERS`` removed and the BLAS/OpenMP pools pinned to one
thread.  With ``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json``; their times are scaled to a reference machine speed by
the probe of ``calibrate.py``, and the summary lines give them unscaled
too.  With ``--trace 1`` a separate traced run gives the per-layer
metrics, unscaled.  Summary lines, including ``fail_share``, come before
the result line.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
WORKLOADS = ("spectral", "maximal", "search", "suite")
# Fresh processes timed for setup_s.  maximal builds its gather tables in
# set-up, about 3 s a process, so it takes fewer samples; the set-ups of
# search and suite are little more than a 0.2 s import, whose time varies
# by half between processes, so they take more.
SETUP_SAMPLES = {"spectral": 5, "maximal": 3, "search": 9, "suite": 9}
# How strongly each workload's times follow the probe (calibrate.scale),
# chosen from four sets of four to ten seeds.  spectral and search, whose
# time goes to the interpreter, slowed with the probe about one to one.
# maximal, whose time goes to numpy gathers over large tables, slowed
# about as the square root.  suite, a fresh CLI process per pass, followed
# the probe in some sets and not in others; 0.5 gave the smallest spread
# on average.
SCALE_EXPONENT = {"spectral": 1.0, "maximal": 0.5, "search": 1.0, "suite": 0.5}
# Probes before and after each timed import of the suite's set-up.
SUITE_SETUP_PROBES = 5
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# A run must end within 180 s; leave room for printing and teardown.
RUN_LIMIT_S = 170


class ChildFailed(Exception):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("KAKEYALAB_WORKERS", None)
    env["PYTHONPATH"] = str(root / "src")
    for var in THREAD_VARS:
        env[var] = THREADS
    return env


def pin_to_one_cpu() -> int:
    """Keep this process and every child on one CPU, the last one allowed.
    The work is single-threaded anyway.  On a shared host each CPU is
    slowed by its own neighbours, so a probe run on one CPU says little
    about a child that the scheduler put on another."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_child(cmd: list[str], env: dict[str, str], deadline: float) -> str:
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{' '.join(cmd)} ran past the run's time limit") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(cmd)} exited {proc.returncode}:\n{err[-2000:]}")
    return out


def worker(args, mode: str, env, deadline) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    out = run_child(cmd, env, deadline)
    return json.loads(out.strip().splitlines()[-1])


def import_time(env, deadline) -> dict:
    """The suite's set-up: a whole ``python -c "import kakeyalab.cli"``,
    with the probes run just before and after it."""
    before = calibrate.probe(SUITE_SETUP_PROBES)
    started = perf_counter()
    run_child([sys.executable, "-c", "import kakeyalab.cli"], env, deadline)
    seconds = perf_counter() - started
    return {"setup_s": seconds, "setup_probe_s": before + calibrate.probe(SUITE_SETUP_PROBES)}


def spread(values: list[float], noun: str) -> str:
    return (f"median {statistics.median(values):.4f} of {len(values)} {noun}, "
            f"min {min(values):.4f}, max {max(values):.4f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="one trial per check and one set-up sample (for tests)")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "kakeyalab" / "__init__.py").is_file():
        print(f"error: {root} holds no kakeyalab source (src/kakeyalab)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    env = child_env(root)
    cpu = pin_to_one_cpu()
    deadline = monotonic() + RUN_LIMIT_S
    lines = [f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
             f"nproc {os.cpu_count()}, all processes on cpu {cpu}, threads pinned: "
             + ", ".join(f"{v}={THREADS}" for v in THREAD_VARS)]
    try:
        if args.trace:
            res = worker(args, "measure", env, deadline)
            values = res["metrics"]
            lines.append(f"pass time traced: {spread(res['traced_s'], 'passes')}; "
                         f"untraced: {spread(res['plain_s'], 'passes')}; "
                         f"spans in .benchmark-out/trace-{args.workload}.jsonl")
        else:
            samples = 1 if args.smoke else SETUP_SAMPLES[args.workload]
            if args.workload == "suite":
                setup_runs = [import_time(env, deadline) for _ in range(samples)]
                others = []
            else:
                others = [worker(args, "setup", env, deadline) for _ in range(samples - 1)]
            res = worker(args, "measure", env, deadline)
            if args.workload != "suite":
                setup_runs = others + [res]
            setups = [r["setup_s"] for r in setup_runs]
            setup_probes = [t for r in setup_runs for t in r["setup_probe_s"]]
            for r in others:  # their warm-ups ran checked operations too
                res["attempted"] += r["attempted"]
                res["failed"] += r["failed"]
                res["failures"] += r["failures"]
            wall_raw = statistics.median(res["pass_s"])
            exponent = SCALE_EXPONENT[args.workload]
            values = {"wall_s": calibrate.scale(wall_raw, res["probe_s"], exponent),
                      "setup_s": calibrate.scale(statistics.median(setups), setup_probes,
                                                 exponent),
                      "peak_rss_mb": res["peak_rss_mb"]}
            lines += [f"wall_s {values['wall_s']:.4f} s (unscaled "
                      f"{spread(res['pass_s'], 'passes')}; "
                      f"{spread([t * 1000 for t in res['probe_s']], 'probes (ms)')})",
                      f"setup_s {values['setup_s']:.4f} s (unscaled {spread(setups, 'set-ups')}; "
                      f"{spread([t * 1000 for t in setup_probes], 'probes (ms)')})",
                      f"peak_rss_mb {values['peak_rss_mb']:.1f} MB"]
    except ChildFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    lines.append(f"fail_share {res['failed'] / res['attempted']:.4g} share "
                 f"({res['failed']} of {res['attempted']} operations failed)")
    lines += [f"failure: {reason}" for reason in res["failures"]]
    lines += [f"suite report sha256 {d}" for d in res["digests"]]
    print("\n".join(lines))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
