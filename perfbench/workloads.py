"""The benchmark's workloads: which CLI operations each one runs, drawn from
the seed.

A run repeats a workload's pass (its list of operations) in a closed loop,
one operation in flight, until it has measured for the requested time and
done at least `min_passes` passes.  Whole passes keep each run's mix of
inputs fixed, so a run's median and percentiles do not depend on where the
clock happened to stop.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Mesh sizes of the refinement study: 64, 80, ..., 320 (17 sizes).
MESH_SIZES = tuple(range(64, 321, 16))

# The criterion-9 golden commands plus the star-shapedness check and its
# x-reflected negative control, which must exit 1.
CLI_COMMANDS = (
    (("constants", "--x0-range", "-2:-0.1:5", "--format", "csv"), 0),
    (("verify", "g1-bounds", "--x0", "-0.5", "--grid", "2000"), 0),
    (("eigen", "--x0", "-0.5", "--nx", "64", "--ny", "64", "--count", "2"), 0),
    (("plot", "h", "--x0", "-0.5"), 0),
    (("verify", "starshape", "--x0", "-0.5", "--grid", "2000"), 0),
    (("verify", "starshape", "--x0", "-0.5", "--grid", "2000", "--reflected"), 1),
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the exit code a correct program gives."""

    argv: tuple
    exit_code: int = 0

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    in_process: bool    # tricomi.cli.run in the worker, else `python -m tricomi.cli`
    min_passes: int     # bound-small and cli-cold: >= 10 samples beyond p90 resp. p75
    warmup: Op          # untimed, counted in setup_s

    def passes(self, seed: int) -> list:
        """The operations of one pass, in order; every pass repeats them."""
        return _PASSES[self.name](random.Random(seed), seed)


def _x0(value: float) -> str:
    return repr(float(value))


def _stratified_log_uniform(rng, lo: float, hi: float, n: int) -> list:
    """n negative x0 values, log|x0| uniform, one draw in each of n equal
    strata of [log lo, log hi], in shuffled order.  Stratifying keeps the
    spread of per-op cost from one seed to the next small."""
    a, b = math.log(lo), math.log(hi)
    width = (b - a) / n
    values = [-math.exp(a + (k + rng.random()) * width) for k in range(n)]
    rng.shuffle(values)
    return values


def _mesh_sweep(rng, seed):
    # Seed 0 is the refinement study at x0 = -0.5.  The domain is
    # self-similar under (x, y) -> (cx, c^(2/3) y), so the node pattern, and
    # with it the set of sizes that fail, does not depend on x0.
    x0 = -0.5 if seed == 0 else -math.exp(rng.uniform(math.log(0.25), math.log(2.0)))
    return [Op(("bound", "--x0", _x0(x0), "--nx", str(n), "--ny", str(n)))
            for n in MESH_SIZES]


def _bound_small(rng, seed):
    return [Op(("bound", "--x0", _x0(x0), "--nx", "64", "--ny", "64"))
            for x0 in _stratified_log_uniform(rng, 0.05, 4.0, 20)]


def _verify_sweep(rng, seed):
    return [Op(("verify", "all", "--x0", _x0(x0)))
            for x0 in _stratified_log_uniform(rng, 0.05, 4.0, 8)]


def _cli_cold(rng, seed):
    ops = [Op(argv, code) for argv, code in CLI_COMMANDS]
    rng.shuffle(ops)
    return ops


_PASSES = {
    "mesh-sweep": _mesh_sweep,
    "bound-small": _bound_small,
    "verify-sweep": _verify_sweep,
    "cli-cold": _cli_cold,
}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="mesh-sweep",
        why="bound at 64..320 squared in steps of 16: the eigensolver (assembly, "
            "shift-invert LU, Arnoldi) does most of the work; 256 and 304 "
            "squared fail at the seed code",
        in_process=True,
        min_passes=1,
        warmup=Op(("bound", "--x0", "-0.5", "--nx", "64", "--ny", "64")),
    ),
    Workload(
        name="bound-small",
        why="bound at 64 squared over 20 x0 in [-4, -0.05]: fixed per-solve costs "
            "(trace sampling, assembly) dominate and factorization is negligible",
        in_process=True,
        min_passes=5,
        warmup=Op(("bound", "--x0", "-0.5", "--nx", "64", "--ny", "64")),
    ),
    Workload(
        name="verify-sweep",
        why="verify all over 8 x0 in [-4, -0.05]: the randomized trace "
            "inequalities dominate and neither the eigensolver nor scipy.sparse "
            "is touched",
        in_process=True,
        min_passes=1,
        warmup=Op(("verify", "integrands", "--x0", "-0.5", "--grid", "1000")),
    ),
    Workload(
        name="cli-cold",
        why="separate python -m tricomi.cli processes for the golden commands and "
            "the starshape control: interpreter start and imports dominate",
        in_process=False,
        min_passes=7,
        warmup=Op(CLI_COMMANDS[0][0]),
    ),
)}
