"""Process set-up shared by every benchmark entry point.

Import this module before numpy: it pins the BLAS thread pools, so that the
load stays one process on at most ``nproc`` threads, and puts the checkout's
``src/`` first on ``sys.path`` so that ``nlic`` is imported from source.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "nlic" / "__init__.py").is_file():
    sys.exit(f"perfbench: no nlic sources under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
