"""Set-up probe: import the routing package and generate one workload batch.

Run in a fresh interpreter by ``run.py`` so the import is paid in full,
as on every CLI run.  Prints one JSON line with the elapsed seconds
(import plus generation, scaled to the reference host as ``probe.py``
describes) and the batch digest.

Usage: python3 stagebench/setup_probe.py WORKLOAD SEED
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from probe import timed_call  # noqa: E402  (standard library only)


def main() -> None:
    with timed_call(60.0, probe=True) as timing:
        start = time.perf_counter()
        import workloads

        designs = workloads.WORKLOADS[sys.argv[1]].make_designs(int(sys.argv[2]))
        wall = time.perf_counter() - start
    print(json.dumps({"seconds": timing.scaled(wall), "digest": workloads.designs_digest(designs)}))


if __name__ == "__main__":
    main()
