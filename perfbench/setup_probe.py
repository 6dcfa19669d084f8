"""Time one fresh-process set-up of a workload and print it in seconds.

Set-up runs from ``import igopt`` through config parsing and family building
to just before the first step.  ``run.py`` starts this script several times
and reports the 90th percentile:

    python3 perfbench/setup_probe.py rbm16 161616
"""

import os
import sys
import time


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    start = time.perf_counter()
    import igopt  # noqa: F401
    import workloads

    workloads.WORKLOADS[workload].prepare(seed)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
