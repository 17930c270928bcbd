"""Traced stand-in for `python -m padic_henon.cli`, used by cli-cold traced runs.

Runs the same click entry point with the same arguments, and writes the phase
times (interpreter start, after `import padic_henon.cli`, command end, all on
the machine-wide perf_counter clock) and the tracer's data to the file named
by PERFBENCH_TRACE_FILE.
"""

import time

t_start = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from padic_henon import cli  # noqa: E402

t_imported = time.perf_counter()

from spans import Tracer  # noqa: E402  (this file's directory is sys.path[0])

tracer = Tracer()
tracer.install()
code = 0
try:
    cli.main.main(args=sys.argv[1:], prog_name="python -m padic_henon.cli")
except SystemExit as exc:
    code = exc.code
finally:
    t_end = time.perf_counter()
    tracer.uninstall()
    with open(os.environ["PERFBENCH_TRACE_FILE"], "w", encoding="utf-8") as fh:
        json.dump({"t_start": t_start, "t_imported": t_imported, "t_end": t_end,
                   "tracer": tracer.dump()}, fh)
sys.exit(code)
