"""The stage harness in tools/stages.py."""

import json
import os
import pathlib
import subprocess
import sys

from tricomi.cli import _VERIFY_CHECKS

ROOT = pathlib.Path(__file__).resolve().parent.parent

_EIGEN_STAGES = {"Grid.build", "assemble", "area_l2_norm_sq", "splu", "arnoldi",
                 "trace_norms", "identity_bound", "bound_first", "bound_repeat",
                 "bound_x0"}


def _cli_cold():
    """The commands of perfbench's cli-cold workload, each timed as a process."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import CLI_COMMANDS
    finally:
        del sys.path[0]
    return [" ".join(argv) for argv, _ in CLI_COMMANDS]


def test_writes_every_stage_at_64(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stages.py"), "check", "--sizes", "64",
         "--repeats", "1", "--dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    path = tmp_path / "BENCH_check.json"
    assert proc.stdout == f"{path}\n"
    record = json.loads(path.read_text())
    assert set(record) == {"label", "unit", "repeats", "x0", "eigen", "verify",
                           "cli_cold", "machine"}
    assert (record["label"], record["unit"], record["repeats"]) == ("check", "s", 1)
    assert set(record["eigen"]) == {"64"}
    row = record["eigen"]["64"]
    assert set(row) == _EIGEN_STAGES | {"unknowns"} and row["unknowns"] == 2758
    assert set(record["verify"]) == {"-0.5", "-2.0"}
    assert all(set(checks) == set(_VERIFY_CHECKS) - {"all"}
               for checks in record["verify"].values())
    assert list(record["cli_cold"]) == _cli_cold()
    assert {"cpu", "nproc", "python", "numpy", "scipy", "blas",
            "pinned_cpus"} <= set(record["machine"])
    times = ([row[s] for s in _EIGEN_STAGES]
             + [t for checks in record["verify"].values() for t in checks.values()]
             + list(record["cli_cold"].values()))
    # arnoldi is the rest of the call whose own splu is timed: both positive.
    assert all(isinstance(t, float) and 0.0 < t < 60.0 for t in times)
