"""Make capic (from ``src``) and the benchmark importable, with BLAS pinned."""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if "numpy" not in sys.modules:
    # Same pin as capbench/run.py, so defect reproductions match the benchmark.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
