import os


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
