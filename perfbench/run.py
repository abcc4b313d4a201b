"""Benchmark of the tricomi command line, run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py.  Each run starts fresh interpreters
(worker.py) on the sources under ./src, drives one closed loop with one
operation in flight, checks every operation's output (checks.py) and prints
two JSON lines: a description of the run (inputs, machine, failed
operations), then the result,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts timed operations, `failed` those whose output failed its
check.  `correct` is false when an operation crashed, timed out or broke the
CLI's exit-code contract, so that its output could not be judged.  With
--trace 0 the metrics are the end-to-end ones; set-up is timed SETUP_REPEATS
times in fresh interpreters and reported as the median.  With --trace 1 the
metrics are the per-layer ones from a traced loop (tracing.py), set against
an untraced loop in the same run, plus fresh-interpreter probes of the CLI
import.  Exits 1 without a result if the run cannot be completed.

All processes of a run are pinned to one CPU, with one BLAS thread, and
every reported time is scaled to a nominal machine speed measured while it
ran (speed.py); the description line also gives the raw median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import monotonic, perf_counter

from speed import Clock
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
IMPORT_PROBES = 3
RUN_TIMEOUT_S = 170.0

END_TO_END = (
    ("op_s.p50", "s"),
    ("op_s.p75", "s"),
    ("op_s.p90", "s"),
    ("ops_per_s", "1/s"),
    ("ok_frac", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Inclusive time per operation in these traced functions, as "<key>.s".
TIMED_CALLS = (
    "eigensolver.assemble",
    "eigensolver.Grid.build",
    "eigensolver.solve_real_spectrum",
    "eigensolver.trace_norms",
    "pohozaev.verify_trace_inequalities",
    "pohozaev.verify_integrand_equivalence",
    "pohozaev.pohozaev_residual",
    "pohozaev.bound_check",
    "verifier.verify_h_profile",
    "verifier.verify_G1_bounds",
    "verifier.verify_G2_bounds",
    "geometry.verify_star_shaped",
    "constants.ledger",
    "constants.optimize_epsilons",
)
# Calls per operation, as "<key>.calls".
COUNTED_CALLS = ("pohozaev.line_integral", "geometry.membership_slack", "constants.ledger")
SHARES = ("cli", "geometry", "constants", "verifier", "pohozaev", "eigensolver")

PER_LAYER = (
    [(f"{key}.s", "s") for key in TIMED_CALLS]
    + [(f"{key}.calls", "count") for key in COUNTED_CALLS]
    + [("eigensolver.unknowns", "count"),
       ("eigensolver.nnz", "count"),
       ("eigensolver.lu.s", "s"),
       ("eigensolver.lu.fill", "ratio"),
       ("eigensolver.arnoldi.s", "s"),
       ("eigensolver.real_pair_ratio", "ratio"),
       ("pohozaev.identity_rejected.count", "count"),
       ("cli.import_s", "s"),
       ("cli.scipy_loaded", "flag")]
    + [(f"{layer}.share", "fraction") for layer in SHARES]
    + [("trace.overhead", "fraction")]
)

IMPORT_PROBE = ("import time; t = time.perf_counter(); import tricomi.cli; "
                "print(t, time.perf_counter())")
SCIPY_PROBE = ("import contextlib, io, sys, tricomi.cli\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               "    tricomi.cli.run(['constants', '--x0', '-0.5'])\n"
               "print(int('scipy.sparse' in sys.modules))")


class BenchmarkError(RuntimeError):
    pass


class Runner:
    """Starts the run's processes, pinned to one CPU with one BLAS thread and
    the sources under ./src on the path; each is killed and waited for if
    the run's deadline passes."""

    def __init__(self, src: str):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self.env.pop("TRICOMI_LOG", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.deadline = monotonic() + RUN_TIMEOUT_S

    def _remaining(self) -> float:
        left = self.deadline - monotonic()
        if left <= 0:
            raise BenchmarkError(f"run exceeded {RUN_TIMEOUT_S:g} s")
        return left

    def worker(self, args, clock: Clock | None = None, setup_only: bool = False):
        """Speed-scaled seconds from start to `ready` (if a clock is given),
        and the record of the timed run."""
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if setup_only:
            argv.append("--setup-only")
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=self.env, text=True)
        watchdog = threading.Timer(self._remaining(), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = clock.scale(start, perf_counter()) if clock else None
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.kill()
            proc.wait()
            proc.stdout.close()
        if ready.strip() != "ready" or code != 0:
            raise BenchmarkError(f"worker failed (exit code {code})")
        return setup_s, None if setup_only else json.loads(rest.splitlines()[-1])

    def probe(self, code: str) -> str:
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=self.env, timeout=self._remaining())
        if proc.returncode != 0:
            raise BenchmarkError(f"probe failed: {proc.stderr.strip()}")
        return proc.stdout.strip()


def _scaled(phase) -> list:
    return [s[2] for s in phase["samples"]]


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (Harrell and Davis, 1982):
    the mean of all order statistics under beta weights.  It moves less from
    run to run than the sample quantile, which rests on one or two order
    statistics; that matters for the few, unequal operations of a pass."""
    from scipy.special import betainc
    x = sorted(values)
    n = len(x)
    cdf = [float(betainc(p * (n + 1), (1 - p) * (n + 1), i / n)) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], x))


def end_to_end(record: dict, setups: list) -> dict:
    times = _scaled(record["untraced"])
    failed = sum(1 for s in record["untraced"]["samples"] if s[3])
    return {
        "op_s.p50": quantile(times, 0.5),
        "op_s.p75": quantile(times, 0.75),
        "op_s.p90": quantile(times, 0.9),
        "ops_per_s": len(times) / sum(times),
        "ok_frac": (len(times) - failed) / len(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
    }


def per_layer(record: dict, import_s: list, scipy_loaded: int) -> dict:
    s, traced = record["summary"], record["traced"]
    n = len(traced["samples"])
    raw_wall = sum(sample[1] for sample in traced["samples"])
    speed = sum(_scaled(traced)) / raw_wall     # raw seconds -> scaled seconds
    calls, incl, self_s = s["calls"], s["incl"], s["self"]
    m = {f"{key}.s": speed * incl.get(key, 0.0) / n for key in TIMED_CALLS}
    m.update({f"{key}.calls": calls.get(key, 0) / n for key in COUNTED_CALLS})
    m["eigensolver.unknowns"] = s["unknowns"] / max(s["assembles"], 1)
    m["eigensolver.nnz"] = s["nnz"] / max(s["assembles"], 1)
    m["eigensolver.lu.s"] = speed * s["lu_s"] / n
    m["eigensolver.lu.fill"] = s["lu_fill"] / max(s["lu_n"], 1)
    m["eigensolver.arnoldi.s"] = m["eigensolver.solve_real_spectrum.s"] - m["eigensolver.lu.s"]
    m["eigensolver.real_pair_ratio"] = s["real_positive"] / max(s["requested"], 1)
    m["pohozaev.identity_rejected.count"] = s["identity_rejected"] / traced["passes"]
    m["cli.import_s"] = statistics.median(import_s)
    m["cli.scipy_loaded"] = scipy_loaded
    for layer in SHARES[1:]:
        m[f"{layer}.share"] = self_s.get(layer, 0.0) / raw_wall
    m["cli.share"] = 1.0 - sum(m[f"{layer}.share"] for layer in SHARES[1:])
    m["trace.overhead"] = (quantile(_scaled(traced), 0.5)
                           / quantile(_scaled(record["untraced"]), 0.5) - 1.0)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "tricomi", "cli.py")):
        print("perfbench: no tricomi sources under ./src; run from the repository root",
              file=sys.stderr)
        return 1
    runner = Runner(src)
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            _, record = runner.worker(args)
            with Clock() as clock:
                import_s = [clock.scale(*map(float, runner.probe(IMPORT_PROBE).split()))
                            for _ in range(IMPORT_PROBES)]
            values = per_layer(record, import_s, int(runner.probe(SCIPY_PROBE)))
            spec = PER_LAYER
        else:
            with Clock() as clock:
                setups = [runner.worker(args, clock, setup_only=True)[0]
                          for _ in range(SETUP_REPEATS)]
            _, record = runner.worker(args)
            values = end_to_end(record, setups)
            spec = END_TO_END
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    samples = [s for phase in ("untraced", "traced") if phase in record
               for s in record[phase]["samples"]]
    failed = [f"{s[0]}: {s[3]}" for s in samples if s[3]]
    print(json.dumps({
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "pass": record["inputs"],
        "passes": {p: record[p]["passes"] for p in ("untraced", "traced") if p in record},
        "raw_op_s.p50": statistics.median(s[1] for s in record["untraced"]["samples"]),
        "machine": dict(record["machine"], pinned_cpus=sorted(os.sched_getaffinity(0))),
        "failed_ops": failed,
    }))
    print(json.dumps({
        "correct": not any(s[4] for s in samples),
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
