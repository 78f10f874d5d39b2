"""The CLI's sweep on recip-sweep's grid, with the library call inside it timed.

    PYTHONPATH=src python3 bench/cli_probe.py SEED

Does what `python -m polydc sweep thm14 <grid> --deterministic` does, with
recip-sweep's grid for SEED, and writes the CLI's report to stdout.  It wraps
the one library call the CLI makes, identity_suite.sweep, in a timer.  Its
last line on stderr is one JSON object: the argv, the number of grid points,
the CLOCK_MONOTONIC time at which the CLI started, and the seconds spent in
the library's sweep.  From these and the process's exit time, run.py takes
the CLI's own time (argument parsing, rendering, writing and exit) within one
process.
"""

import json
import sys
import time

import polydc.cli
from polydc import identity_suite

import workloads


def main() -> int:
    grid = workloads.recip_grid(int(sys.argv[1]))
    argv = ["sweep", "thm14",
            *(f"{name}={','.join(map(str, values))}" for name, values in grid.items()),
            "--deterministic"]
    sweep = identity_suite.sweep
    sweep_s = []

    def timed_sweep(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return sweep(*args, **kwargs)
        finally:
            sweep_s.append(time.perf_counter() - t0)

    identity_suite.sweep = timed_sweep
    cli_start_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    code = polydc.cli.main(argv)
    sys.stdout.flush()
    points = len(grid["k"]) * len(grid["p"]) * len(grid["h"]) * len(grid["m"])
    print(json.dumps({"argv": argv, "points": points, "cli_start_ns": cli_start_ns,
                      "sweep_s": sum(sweep_s)}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
