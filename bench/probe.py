"""One set-up sample: start, set a workload up, print the monotonic clock, exit.

Usage: python3 bench/probe.py <workload> <seed>

run.py starts this several times and takes the median of (printed clock -
clock before start), so set-up time covers interpreter start and imports.
"""

import sys
import time

from harness import Context, pin_program

pin_program()

from workloads import WORKLOADS  # noqa: E402 - needs the pinned sys.path

workload = WORKLOADS[sys.argv[1]]
state = workload.setup(Context(trace=False), int(sys.argv[2]))
print(time.monotonic(), flush=True)
workload.teardown(state)
