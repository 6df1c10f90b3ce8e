"""Run one workload of the dckpca benchmark from the root of a checkout:

    python3 perfbench/run.py --workload square-dense --seed 1 --seconds 45 --trace 0

The last line of standard output is the JSON result. BLAS is pinned here,
before numpy loads, to one thread: on a VM with a couple of shared vCPUs a
multi-threaded product keeps every vCPU busy and waits on whichever one the
host runs slower.
"""

import os
import sys
from pathlib import Path


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "dckpca" / "__init__.py").is_file():
        print(f"perfbench: no dckpca sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(root)]
    from perfbench import bench
    return bench.main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
