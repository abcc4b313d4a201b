"""A tricomi CLI process with tracing on, for traced runs of cli-cold.

    python3 perfbench/traced_cli.py <tricomi arguments>

Behaves as `python -m tricomi.cli`, then factors the assembled operator, if
any (see Tracer.lu_probe), and writes one last line to stderr: TRACE_MARKER
and a JSON record of the trace summary and the time the probe took, which
the caller subtracts from the process's wall time.
"""

import json
import sys
from time import perf_counter

from tracing import TRACE_MARKER, Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = sys.modules["tricomi.cli"].run(sys.argv[1:])
    finally:
        tracer.restore()
    sys.stdout.flush()
    start = perf_counter()
    tracer.lu_probe()
    probe_s = perf_counter() - start
    sys.stderr.write(TRACE_MARKER + json.dumps(
        {"summary": tracer.summary, "probe_s": probe_s}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
