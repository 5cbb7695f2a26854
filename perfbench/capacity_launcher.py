"""The ``capacity`` console script, run from the checkout's ``src`` directory.

Does what the installed entry point does, ``from chancap.cli import main;
main()``, for checkouts where the package is not installed.  Usage:

    python3 perfbench/capacity_launcher.py --a 0.1 --c 0.6

Untraced, it prints its peak resident set to stderr as its last line,
``perfbench-peak-rss-kb <kB>``.  When the environment variable
PERFBENCH_TRACE_FILE names a file, it instead records start-up timestamps
(``time.perf_counter``, a clock shared by all processes on Linux) and the
package's spans, and writes them there as JSON before exiting.
"""

import os
import sys
import time

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[0] = os.path.join(os.path.dirname(HERE), "src")
TRACE_FILE = os.environ.get("PERFBENCH_TRACE_FILE")

from chancap.cli import main  # noqa: E402


def peak_rss_kb():
    """Peak resident set of this process image (VmHWM), in kB.

    ``ru_maxrss`` would not do: exec carries the parent's peak over into it.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


if TRACE_FILE is None:
    try:
        main()
    finally:
        print(f"perfbench-peak-rss-kb {peak_rss_kb()}", file=sys.stderr)
else:
    import json

    t_imported = time.perf_counter()
    sys.path.append(HERE)
    from spans import Tracer

    tracer = Tracer()
    code = 0
    with tracer:
        try:
            main()
        except SystemExit as exc:
            code = exc.code
    t_run_end = time.perf_counter()
    with open(TRACE_FILE, "w", encoding="utf-8") as fh:
        json.dump(
            {"start": T_START, "imported": t_imported, "run_end": t_run_end, "spans": tracer.spans},
            fh,
        )
    sys.exit(code)
