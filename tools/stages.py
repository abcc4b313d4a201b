"""Per-stage times of the tricomi pipeline, written to BENCH_<label>.json.

    PYTHONPATH=src python tools/stages.py LABEL [--sizes 64 128 256 512]
                                                [--repeats 5] [--dir DIR]

The script calls the library directly, but for the two `bound` rows below.
On each n x n mesh at x0 = -0.5 it times `Grid.build`, `assemble`,
`area_l2_norm_sq`, the principal solve split in two (`splu`, its own
factorization of A - shift I, timed by a wrapper on
scipy.sparse.linalg.splu for the duration of the call, and `arnoldi`, the
rest of the same call), `trace_norms`, and identity + bound
(`pohozaev_residual`, the ledger and `bound_check`).  Where the solve finds
no positive real pair, as at 256^2, the record says so and the later stages
are not run.  Two rows time a whole in-process `bound` through
`tricomi.cli.run`: `bound_first`, the first `bound` on the mesh (the CLI's
memoized x0 = -1 solve and traces are emptied before each repeat), and
`bound_repeat`, a `bound` at x0 = -2 on the mesh that the last `bound`
solved, which maps that solve to x0 instead of solving again.  `bound_x0`
times the part of that repeat which depends on x0, the CLI's own
`cli._bound` on the pair and traces that the CLI memoized at x0 = -1,
without parsing or printing: `Dilation(-2).traces`, the norm bundle, the
identity, the ledger, `bound_check` and the JSON record, under the CLI's
errstate.  Every `splu` orders its columns with COLAMD.  It also times
each `verify` check but `all`, through the CLI's own table of checks and
with its default sampling, at x0 = -0.5 and -2, and each of the six
commands of the benchmark's `cli-cold` workload (perfbench/workloads.py)
as a `python -m tricomi.cli` process, from start to exit.

Each figure is the median over the repeats, in seconds scaled to the nominal
machine speed of perfbench/speed.py, whose `Clock` is imported unchanged.
As the benchmark does, the process pins itself (and the processes it
starts) to one CPU with one BLAS thread, and the clock's sampler runs on
that CPU.  The file records the machine; compare two files only when they
come from the same machine.  BENCH_<label>.json goes to the repository
root unless --dir names another directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
X0 = -0.5
VERIFY_X0S = (-0.5, -2.0)
# The x0 of `bound_repeat` and `bound_x0`.
REPEAT_X0 = -2.0


def _timed(clock, call, repeats: int):
    """The median scaled seconds of `repeats` calls of call(), and the last
    call's result."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        result = call()
        times.append(clock.scale(start, perf_counter()))
    return statistics.median(times), result


def _principal_solve(clock, op, repeats: int):
    """The medians of the principal solve's `splu` call and of the rest of
    the same call, and the last call's result.  Each call's scaled time is
    split in the ratio of its raw `splu` time to the rest."""
    import scipy.sparse.linalg as spla

    from tricomi import eigensolver
    from tricomi.cli import _PAIR_COUNT

    splu, spans, parts = spla.splu, [], []

    def timed_splu(*args, **kwargs):
        start = perf_counter()
        lu = splu(*args, **kwargs)
        spans.append(perf_counter() - start)
        return lu

    spla.splu = timed_splu
    try:
        for _ in range(repeats):
            spans.clear()
            start = perf_counter()
            result = eigensolver.solve_real_spectrum(op, _PAIR_COUNT, principal_only=True)
            end = perf_counter()
            total, share = clock.scale(start, end), sum(spans) / (end - start)
            parts.append((total * share, total * (1.0 - share)))
    finally:
        spla.splu = splu
    lu_s, rest_s = zip(*parts)
    return statistics.median(lu_s), statistics.median(rest_s), result


def _bound_rows(clock, n: int, repeats: int) -> dict:
    """`bound_first` and `bound_repeat` on the n x n mesh: medians of an
    in-process `bound` at x0 = X0 with nothing memoized, and at -2 after
    it.  Both run at 256^2 too, where `bound` exits 1 without a pair."""
    import contextlib
    import io

    from tricomi import cli

    mesh = ["--nx", str(n), "--ny", str(n)]

    def bound(x0, first=False):
        if first:
            cli._canonical.cache_clear()
            cli._principal_traces.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.run(["bound", "--x0", repr(x0), *mesh])

    first, _ = _timed(clock, lambda: bound(X0, first=True), repeats)
    repeat, _ = _timed(clock, lambda: bound(REPEAT_X0), repeats)
    return {"bound_first": first, "bound_repeat": repeat}


def _bound_x0(clock, n: int, repeats: int) -> float:
    """Median of the CLI's own per-x0 step of `bound`, `cli._bound`, at
    REPEAT_X0 on the n x n mesh, on the pair and traces that the CLI
    memoized at x0 = -1, under the CLI's errstate."""
    import numpy as np

    from tricomi import cli

    args = cli._parser().parse_args(
        ["bound", f"--x0={REPEAT_X0!r}", "--nx", str(n), "--ny", str(n)])
    (pair,), _ = cli._solve(REPEAT_X0, n, n, cli._PAIR_COUNT, principal_only=True)
    with np.errstate(**cli._RAISE):
        return _timed(clock, lambda: cli._bound(args, pair), repeats)[0]


def eigen_stages(clock, n: int, repeats: int) -> dict:
    """Stage medians of the principal solve and `bound` on the n x n mesh."""
    from tricomi import eigensolver, pohozaev
    from tricomi.constants import ledger
    from tricomi.geometry import TricomiDomain

    dom = TricomiDomain(X0)
    row = {}
    row["Grid.build"], grid = _timed(clock, lambda: eigensolver.Grid.build(dom, n, n), repeats)
    row["assemble"], op = _timed(clock, lambda: eigensolver.assemble(grid), repeats)
    row["unknowns"] = op.n
    U = grid.inside.astype(float)
    row["area_l2_norm_sq"], _ = _timed(
        clock, lambda: pohozaev.area_l2_norm_sq(grid, U), repeats)
    row["splu"], row["arnoldi"], (pairs, _) = _principal_solve(clock, op, repeats)
    row.update(_bound_rows(clock, n, repeats))
    if not pairs:
        row["skipped"] = ("no positive real eigenvalue: trace_norms, identity_bound "
                          "and bound_x0 not run")
        return row
    row["bound_x0"] = _bound_x0(clock, n, repeats)
    pair, = pairs
    row["trace_norms"], (traces, norms) = _timed(
        clock, lambda: eigensolver.trace_norms(pair), repeats)
    row["identity_bound"], _ = _timed(clock, lambda: (
        pohozaev.pohozaev_residual(pair.lam, traces),
        pohozaev.bound_check(pair.lam, norms, ledger(X0))), repeats)
    return row


def verify_stages(clock, x0: float, repeats: int) -> dict:
    """Medians of each `verify` check but `all` at x0, each run through the
    parts of its entry in the CLI's table `_VERIFY_CHECKS`."""
    from tricomi.cli import _VERIFY_CHECKS

    return {name: _timed(clock, lambda: [part(x0, (), False) for part in parts], repeats)[0]
            for name, parts in _VERIFY_CHECKS.items() if name != "all"}


def cli_cold(clock, repeats: int) -> dict:
    """Median of one `python -m tricomi.cli` process, start to exit, for each
    `cli-cold` command; a process that exits with another code than the
    workload expects raises."""
    from workloads import CLI_COMMANDS

    env = dict(os.environ)
    env.pop("TRICOMI_LOG", None)

    def cold(argv, code):
        proc = subprocess.run([sys.executable, "-m", "tricomi.cli", *argv], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if proc.returncode != code:
            raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}, not {code}")

    return {" ".join(argv): _timed(clock, lambda: cold(argv, code), repeats)[0]
            for argv, code in CLI_COMMANDS}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _label(text: str) -> str:
    if not text or not all(c.isalnum() or c in "-_." for c in text):
        raise argparse.ArgumentTypeError("a label takes letters, digits, '-', '_' and '.'")
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", type=_label)
    parser.add_argument("--sizes", type=int, nargs="+", default=[64, 128, 256, 512])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--dir", default=ROOT)
    args = parser.parse_args(argv)

    # Before numpy loads: one BLAS thread, one CPU, as perfbench runs.
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from speed import Clock
    from worker import machine

    with Clock() as clock:
        record = {
            "label": args.label,
            "unit": "s",
            "repeats": args.repeats,
            "x0": X0,
            "eigen": {str(n): eigen_stages(clock, n, args.repeats) for n in args.sizes},
            "verify": {repr(x0): verify_stages(clock, x0, args.repeats)
                       for x0 in VERIFY_X0S},
            "cli_cold": cli_cold(clock, args.repeats),
            "machine": dict(machine(), cpu=_cpu_model(),
                            pinned_cpus=sorted(os.sched_getaffinity(0))),
        }
    path = os.path.join(args.dir, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
