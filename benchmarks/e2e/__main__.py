"""Entry point: ``python3 benchmarks/e2e`` or ``python3 -m benchmarks.e2e``.

Pins numpy's BLAS to one thread before anything imports numpy (an extra
OpenBLAS thread made host CPU time twice the wall time on a 2-core box),
puts the checkout's ``src`` on the path and measures the import half of
``setup_s``.
"""

import os
import sys
import time
from pathlib import Path

_started = time.perf_counter()
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

_ROOT = Path(__file__).resolve().parents[2]
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmark needs the program's sources at {_ROOT / 'src'}")
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from benchmarks.e2e.runner import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(import_s=time.perf_counter() - _started))
