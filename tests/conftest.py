import os
import sys

import pytest


def pytest_configure(config):
    """Put src/ on PYTHONPATH for the `python -m tricomi.cli` subprocesses.

    pyproject's `pythonpath = ["src"]` reaches only the pytest process; the
    CLI tests' child interpreters must import the same sources."""
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the one-line acceptance verdicts after the normal test summary."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def _without_the_canonical_solve():
    """Each test starts without the CLI's memoized x0 = -1 solve and traces
    (`cli._canonical`, `cli._principal_traces`), so a test that patches the
    solver, `splu`, `boundary_traces` or `cli._solve` runs what it patches,
    whatever ran before it."""
    cli = sys.modules.get("tricomi.cli")
    if cli is not None:
        cli._canonical.cache_clear()
        cli._principal_traces.cache_clear()
