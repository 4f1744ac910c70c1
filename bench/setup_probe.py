"""Print the seconds a fresh interpreter takes to import randers and build
one workload's profiles (custom profiles compile and validate their
expressions here); or, with `reference`, to import the numpy and scipy
modules randers imports, which run.py divides by.

    python3 bench/setup_probe.py distance-pairs
    python3 bench/setup_probe.py reference
"""

import sys
import time
from pathlib import Path


def main(workload: str) -> float:
    t0 = time.perf_counter()
    if workload == "reference":
        import numpy  # noqa: F401
        import scipy.integrate  # noqa: F401
        import scipy.optimize  # noqa: F401
        return time.perf_counter() - t0
    bench = Path(__file__).resolve().parent
    sys.path[:0] = [str(bench.parent / "src"), str(bench)]
    import profiles
    profiles.build(workload)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(main(sys.argv[1])))
