"""One set-up in a fresh interpreter, timed from before `import mltc`.

    python3 perfbench/setup_child.py <workload>

Run from the repository root; prints the elapsed seconds as JSON.
"""

import json
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import workloads
    wl = workloads.load(sys.argv[1], root)
    workloads.set_up(wl)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
