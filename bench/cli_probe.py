"""Run the globtop command line in-process and report how long ``main`` took.

    python3 bench/cli_probe.py deflect --material "Carbon epoxy resin" ...

The traced ``cli_cold`` run starts this instead of ``python -m globtop.cli``:
the arguments, output and exit code are the CLI's own, and the last line of
standard error is ``cli.main_ms <milliseconds>``, the time spent in
``globtop.cli.main`` after every import is done.
"""

import sys
import time

from globtop import cli

start = time.perf_counter()
code = cli.main(sys.argv[1:])
elapsed_ms = 1e3 * (time.perf_counter() - start)
sys.stdout.flush()
print(f"cli.main_ms {elapsed_ms!r}", file=sys.stderr)
raise SystemExit(code)
