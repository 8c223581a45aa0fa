"""Print the seconds a fresh process takes to import nlic and build the
per-run coding state of both sides (the z prior tables), then the host
calibration time measured right after in this same process.

Interpreter start-up is not counted. Run by ``run.py`` several times a run.
"""

import time

t0 = time.perf_counter()
import pins  # noqa: E402,F401  (pins BLAS threads before numpy loads)
import codec  # noqa: E402

codec.State("encode")
codec.State("decode")
elapsed = time.perf_counter() - t0

import hostspeed  # noqa: E402

hostspeed.calibrate()  # the first call pays numpy's first-use costs
print(elapsed, hostspeed.calibrate())
