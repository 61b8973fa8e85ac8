"""A traced `weylwalks` CLI call, for the traced run of cli_oneshot.

    PERFBENCH_SPAWN=<time.time() at spawn> PYTHONPATH=src \
        python3 perfbench/cli_child.py <weylwalks arguments>

Runs the CLI exactly as `python -m weylwalks.cli` does, with the layer
wrappers of spans.py installed after the import.  Its stdout is the CLI's;
the last stderr line is `PERFBENCH_TRACE <json>` with the span totals and
`cli.startup_s`, the time from spawn to the end of the package import.
"""

import json
import os
import sys
import time

import weylwalks.cli as cli

ready = time.time()

from spans import Tracer  # noqa: E402  (imported after the timed import)

tracer = Tracer()
tracer.install()
code = cli.main(sys.argv[1:])
tracer.uninstall()
tracer.startup_s = ready - float(os.environ["PERFBENCH_SPAWN"])
print("PERFBENCH_TRACE " + json.dumps(tracer.raw()), file=sys.stderr)
sys.exit(code)
