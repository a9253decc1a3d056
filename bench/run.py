"""Benchmark of the ``pgd`` sampler: one workload per process.

Run from the repository root::

    python3 bench/run.py --workload darcy_gem_pbs --seed 0 --seconds 20 --trace 0

Every input is generated from ``--seed``. ``bench/README.md`` describes the
workloads and metrics.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # BLAS is pinned to one thread before NumPy loads: every workload is single-process.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = Path(__file__).resolve().parents[1] / "src"
    if not (src / "pgd" / "__init__.py").is_file():
        print(f"bench: no pgd package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    from harness import main

    sys.exit(main())
