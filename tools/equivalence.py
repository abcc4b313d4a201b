"""Byte-identity oracle for the CLI: one digest line per command.

    PYTHONPATH=src python tools/equivalence.py > digests.txt

Takes no options.  Each line is the sha256 of one command's exit code,
stdout, stderr and --out file bytes, then the command's argv.  Two trees
print the same lines exactly when every command behaves the same in both,
byte for byte, so `diff` of their two outputs checks a change that must
not move any output.  The commands run in process, through
`tricomi.cli.run`, in a fixed order:

- every operation of the benchmark's four workloads, for seeds 0-2, read
  from perfbench/workloads.py (a repeated argv runs once);
- `constants` as JSON and CSV at six x0, and over an x0 range;
- `verify all` as JSON and CSV at five x0, up to the overflow at -1e80;
- `verify all` and `constants` as JSON at the regime switches: at
  x0 = -sqrt(3)/4 and the next double below it, at -0.45 inside R2a, at
  the double above -1/2, and at -2/3 and the next double above it.  Some
  of these exit 1 near -sqrt(3)/4, where the h-profile checks fail;
- `verify starshape` at x0 = -1e160, which exits 1 naming g's cube-root
  argument 9x(2x0 - x)/4, which overflows;
- `bound` on non-square meshes (65x47, 200x40, 34x32) at x0 = -0.5, and
  at 48^2 for x0 = -1e-3 and -1e3, and for -1e-160, -1e-168 and
  -1e160, which exit 1 naming the float that fails: sigma's g^2
  underflows, the mapped u_x on BC overflows, and g's cube-root argument
  overflows on x0's sigma nodes.  200x40, 34x32 and 41x53 have no
  positive real pair among the four nearest the shift, and 65x47 picks a
  wrong mode (lambda |x0|^(4/3) = 3.11, +25 %), so `eigen` on each (which
  prints the pairs it found) carries their matrices and cut cells into
  the digests.  `bound` at 65x47 and x0 = -0.125 follows, then at
  x0 = -2.  `bound --count 8` there, at x0 = -0.5 and -0.125, records the
  usage error (exit 2) that `bound` gives any `--count`;
- `bound` at 40^2 for x0 = -0.5 and then -2, at 182^2 and at 242x100 for
  x0 = -0.5: wrong modes (lambda |x0|^(4/3) of 5.79, 6.22 and 5.89) that
  the principal pass leaves unconverged, so that `bound` exits 1 on the
  residual gate;
- `plot h|domain|eigen` at x0 = -0.5, and `plot eigen` on a 41x53 mesh
  and at 40^2;
- `eigen --format csv --out`, at the default mesh and at 40^2;
- `bound` at 200^2 and x0 = -2, `eigen` at 40^2 and x0 = -1e80, and
  `eigen` at -1e-300 and `bound` at -1e300, which exit 1 naming lambda's
  scale |x0|^(-4/3).

Every solve runs at x0 = -1 and is mapped to the command's x0.  Between
them the commands reach every path of `solve_real_spectrum`:

- the principal pass with a pick converged to rounding: the first
  `bound-small` op;
- the principal pass with an unconverged pick, a wrong mode whose
  residual fails the CLI's gate: `bound` at 40^2, 182^2 and 242x100, and
  `plot eigen` and `eigen --format csv` at 40^2; and one that passes it,
  `bound` at 65x47 (a backward error of 94 machine epsilons);
- the principal pass with no positive real pair: `mesh-sweep` at 256^2
  (and `bound` on 200x40 and 34x32);
- the default `count`-pair path: `eigen --count 2` and the non-square
  `eigen` commands.

The traces are taken at x0 = -1 only, where the BC samples resolve at the
first four rungs of `trace_norms`' pull-back ladder (d, 1.5d, 2d and 3d).

The commands run in one process, and the CLI memoizes the last x0 = -1
solve by (nx, ny, count, principal_only) and, apart from it, the last
principal traces by (nx, ny): a command with the key of the solve before
it solves nothing and maps that one.  So do the `bound-small` ops after
the first, `bound` at 65x47, x0 = -2, after -0.125, at 40^2, x0 = -2,
after -0.5, and at 48^2, x0 = -1e3, -1e-160, -1e-168 and -1e160, after
-1e-3, and `plot eigen --x0 -0.5` (48^2) after them.  Every other solve
factors A - shift I once with `splu`, which orders the columns with
COLAMD: 71 factorizations over the 208 in-process commands, and 55
calls of `boundary_traces`.

Then the six commands of the benchmark's `cli-cold` workload run as
`python -m tricomi.cli` processes, through `tricomi.cli.main` and the
interpreter's exit, importing the same sources as the in-process commands.
Their lines, framed as the in-process ones, name the command with the
`python -m tricomi.cli` prefix.

An --out path is written as OUT in the argv; each run replaces it with a
fresh temporary file and hashes that file's bytes, not its path.
TRICOMI_LOG is cleared, since its log lines carry wall times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = "OUT"
SEEDS = (0, 1, 2)


def _line(label: str, code, out: bytes, err: bytes, written: bytes = b"") -> str:
    h = hashlib.sha256()
    for part in (str(code).encode(), out, err, written):
        h.update(b"%d:" % len(part))
        h.update(part)
    return f"{h.hexdigest()} {label}"


def digest(argv) -> str:
    """The line for one command: the sha256 of its exit code, stdout, stderr
    and --out bytes (each framed by its length), a space, and the argv."""
    from tricomi import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        run_argv = [path if a == OUT else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(run_argv)
            except SystemExit as exc:
                code = exc.code
        written = b""
        if OUT in argv and os.path.exists(path):
            with open(path, "rb") as fh:
                written = fh.read()
    return _line(" ".join(argv), code, out.getvalue().encode(),
                 err.getvalue().encode(), written)


def cold_digest(argv) -> str:
    """The line for one `python -m tricomi.cli` process, framed as `digest`
    frames an in-process command."""
    import tricomi

    src = os.path.dirname(os.path.dirname(os.path.abspath(tricomi.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "tricomi.cli", *argv],
                          env=env, capture_output=True)
    return _line(" ".join(["python", "-m", "tricomi.cli", *argv]),
                 proc.returncode, proc.stdout, proc.stderr)


def _workloads():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        del sys.path[0]
    return workloads


def _workload_commands() -> list:
    return [list(op.argv) for w in _workloads().WORKLOADS.values()
            for seed in SEEDS for op in w.passes(seed)]


def cold_commands() -> list:
    """The `cli-cold` commands, in the benchmark's order."""
    return [list(argv) for argv, _ in _workloads().CLI_COMMANDS]


def commands() -> list:
    """Every command the oracle runs, in order, without repeats."""
    cmds = _workload_commands()
    for fmt in ("json", "csv"):
        for x0 in ("-0.05", "-0.5", "-0.6", "-1", "-4", "-1e3"):
            cmds.append(["constants", "--x0", x0, "--format", fmt])
        cmds.append(["constants", "--x0-range", "-4:-0.05:40", "--format", fmt])
    for fmt in ("json", "csv"):
        for x0 in ("-0.05", "-0.5", "-4", "-1e5", "-1e80"):
            cmds.append(["verify", "all", "--x0", x0, "--format", fmt])
    for x0 in ("-0.4330127018922193", "-0.43301270189221935", "-0.45",
               "-0.49999999999999994", "-0.6666666666666666", "-0.6666666666666665"):
        cmds.append(["verify", "all", "--x0", x0])
        cmds.append(["constants", "--x0", x0])
    cmds.append(["verify", "starshape", "--x0", "-1e160"])
    for nx, ny in (("65", "47"), ("200", "40"), ("34", "32")):
        cmds.append(["bound", "--x0", "-0.5", "--nx", nx, "--ny", ny])
    for nx, ny in (("65", "47"), ("200", "40"), ("34", "32"), ("41", "53")):
        cmds.append(["eigen", "--x0", "-0.5", "--nx", nx, "--ny", ny])
    cmds.append(["bound", "--x0", "-0.5", "--nx", "65", "--ny", "47", "--count", "8"])
    # bound takes no --count: both lines record its usage error.
    cmds.append(["bound", "--x0", "-0.125", "--nx", "65", "--ny", "47", "--count", "8"])
    cmds.append(["bound", "--x0", "-0.125", "--nx", "65", "--ny", "47"])
    # The same mesh at x0 = -2 maps the memoized x0 = -1 solve and factors
    # nothing (assembled at -2 itself, its pattern would differ).
    cmds.append(["bound", "--x0", "-2", "--nx", "65", "--ny", "47"])
    # Unconverged picks at 40^2, 182^2 and 242x100; 40^2 at -2 maps the
    # memoized solve of -0.5.
    for x0, nx, ny in (("-0.5", "40", "40"), ("-2", "40", "40"),
                       ("-0.5", "182", "182"), ("-0.5", "242", "100")):
        cmds.append(["bound", "--x0", x0, "--nx", nx, "--ny", ny])
    for x0 in ("-1e-3", "-1e3", "-1e-160", "-1e-168", "-1e160"):
        cmds.append(["bound", "--x0", x0, "--nx", "48", "--ny", "48"])
    for target in ("h", "domain", "eigen"):
        cmds.append(["plot", target, "--x0", "-0.5"])
    cmds.append(["plot", "eigen", "--x0", "-0.5", "--nx", "41", "--ny", "53"])
    cmds.append(["plot", "eigen", "--x0", "-0.5", "--nx", "40", "--ny", "40"])
    cmds.append(["eigen", "--x0", "-0.5", "--format", "csv", "--out", OUT])
    cmds.append(["eigen", "--x0", "-0.5", "--nx", "40", "--ny", "40",
                 "--format", "csv", "--out", OUT])
    cmds.append(["bound", "--x0", "-2", "--nx", "200", "--ny", "200"])
    cmds.append(["eigen", "--x0", "-1e80", "--nx", "40", "--ny", "40"])
    cmds.append(["eigen", "--x0", "-1e-300"])
    cmds.append(["bound", "--x0", "-1e300"])
    return [list(c) for c in dict.fromkeys(map(tuple, cmds))]


def main() -> int:
    os.environ.pop("TRICOMI_LOG", None)
    for argv in commands():
        print(digest(argv), flush=True)
    for argv in cold_commands():
        print(cold_digest(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
