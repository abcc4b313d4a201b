"""One benchmark run of a workload, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The worker imports what the workload needs, runs one untimed warm-up
operation and prints `ready`; run.py times set-up up to that line.  Unless
--setup-only is given it then runs the timed closed loop and prints one JSON
record of the samples.  With --trace 1 the loop runs twice, untraced and
then traced, each for half the time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from time import perf_counter

from checks import check, check_repeat
from speed import Clock
from tracing import TRACE_MARKER, Tracer, merge, new_summary
from workloads import WORKLOADS

TRACED_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_cli.py")
CLI_TIMEOUT_S = 120


class InProcess:
    """Operations through `tricomi.cli.run` in this interpreter."""

    def __init__(self):
        import tricomi.cli
        self.cli = tricomi.cli
        self.tracer = None

    def run(self, op):
        """(start, seconds, failure reason or None, crashed) for one operation."""
        out, err = io.StringIO(), io.StringIO()
        crash = None
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.run(list(op.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # the program broke its own error contract
                code, crash = None, f"raised {exc!r}"
        elapsed = perf_counter() - start
        if self.tracer is not None:
            self.tracer.lu_probe()
        if crash:
            return start, elapsed, crash, True
        return start, elapsed, check(op, code, out.getvalue()), False

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Subprocess:
    """Operations as separate `python -m tricomi.cli` processes.  A repeated
    command must reproduce the stdout of its first correct run byte for byte."""

    def __init__(self):
        self.references = {}
        self.summary = None      # set to trace the CLI processes

    def run(self, op):
        traced = self.summary is not None
        argv = ([sys.executable, TRACED_CLI] if traced
                else [sys.executable, "-m", "tricomi.cli"]) + list(op.argv)
        start = perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return start, perf_counter() - start, f"timed out after {CLI_TIMEOUT_S} s", True
        elapsed = perf_counter() - start
        stderr = proc.stderr.decode(errors="replace")
        if traced:
            stderr, marker, record = stderr.rpartition(TRACE_MARKER)
            if not marker:
                return start, elapsed, "the traced CLI process reported no trace", True
            record = json.loads(record)
            merge(self.summary, record["summary"])
            elapsed -= record["probe_s"]
        if proc.returncode < 0 or "Traceback (most recent call last)" in stderr:
            return start, elapsed, f"crashed with exit code {proc.returncode}", True
        reference = self.references.get(op.argv)
        if reference is not None:
            reason = check_repeat(op, proc.returncode, proc.stdout, reference)
            return start, elapsed, reason, False
        reason = check(op, proc.returncode, proc.stdout.decode(errors="replace"))
        if reason is None:
            self.references[op.argv] = proc.stdout
        return start, elapsed, reason, False

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def measure(runner, ops, seconds: float, min_passes: int) -> dict:
    """Closed loop over whole passes until `seconds` have elapsed and at
    least `min_passes` passes are done.  Each sample is [label, raw seconds,
    speed-scaled seconds, failure reason or None, crashed]."""
    samples, passes = [], 0
    with Clock() as clock:
        begin = perf_counter()
        while passes < min_passes or perf_counter() - begin < seconds:
            for op in ops:
                start, elapsed, reason, crashed = runner.run(op)
                scaled = clock.scale(start, start + elapsed)
                samples.append([op.label, elapsed, scaled, reason, crashed])
            passes += 1
    return {"samples": samples, "passes": passes}


def machine() -> dict:
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
    }


def _blas_threads(numpy):
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    ops = workload.passes(args.seed)
    runner = InProcess() if workload.in_process else Subprocess()
    _, _, reason, _ = runner.run(workload.warmup)
    if reason is not None:
        sys.exit(f"warm-up operation failed: {reason}")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    record = {"inputs": [op.label for op in ops]}
    if not args.trace:
        record["untraced"] = measure(runner, ops, args.seconds, workload.min_passes)
    else:
        half, passes = args.seconds / 2.0, max(1, workload.min_passes // 2)
        record["untraced"] = measure(runner, ops, half, passes)
        if workload.in_process:
            runner.tracer = tracer = Tracer()
            tracer.install()
            try:
                record["traced"] = measure(runner, ops, half, passes)
            finally:
                tracer.restore()
            record["summary"] = tracer.summary
        else:
            runner.summary = new_summary()
            record["traced"] = measure(runner, ops, half, passes)
            record["summary"] = runner.summary
    record["peak_rss_kb"] = runner.peak_rss_kb()
    record["machine"] = machine()
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
