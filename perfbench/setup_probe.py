"""Time the set-up of one fresh interpreter for a workload.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints one JSON line {"import_s": ..., "build_s": ...}: the time to
``import difftop`` and the time of the workload's program-side
construction (instance parsing, the chep and extend_lift builds).  The
workload's input generation runs between the two timers and is not
counted.  run.py starts several of these and reports the median.
"""

import sys
import time
from pathlib import Path


def main(workload, seed):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import difftop  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - t0

    import json
    import workloads
    wl = workloads.WORKLOADS[workload](seed)
    t0 = time.perf_counter()
    wl.build()
    build_s = time.perf_counter() - t0
    print(json.dumps({"import_s": import_s, "build_s": build_s}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
