"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is ``import fracsum``, ``make_context`` for the workload's presets
and building its job list.  Interpreter start-up is not counted.

    python3 perfbench/setup_probe.py reproduce-quad
"""

import time

start = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402

workloads.build(sys.argv[1])
print(time.perf_counter() - start)
