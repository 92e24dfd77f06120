"""Time a covstop CLI invocation up to its first call into a work layer.

    python3 benchmarks/setup_probe.py CLI_ARG...

Runs ``covstop.cli.main`` with the given arguments until it calls one
of the work-layer entry points below, prints ``SETUP_DONE <t>`` with
``t`` read from ``time.monotonic()`` (a system-wide clock on Linux, so
the parent can subtract the time it started this process), and exits at
once. Everything before that point is set-up: interpreter start,
importing covstop, numpy and scipy, argument parsing, scenario loading
and policy-parameter parsing.
"""

import os
import sys
import time

import covstop.cli

# The first work-layer call of each benchmark workload, as covstop.cli
# looks it up.
WORK_ENTRIES = ("spsa_optimize", "periodic_cost_curve", "run_macro_cycles",
                "value_iterate")


def _stop_here(*args, **kwargs):
    print(f"SETUP_DONE {time.monotonic()!r}", flush=True)
    os._exit(0)


if __name__ == "__main__":
    for name in WORK_ENTRIES:
        setattr(covstop.cli, name, _stop_here)
    covstop.cli.main(sys.argv[1:])
    sys.exit("no work-layer call reached")
