"""One BLAS thread per process, as the benchmark runs, set before numpy
loads: sweeps of several (n, trial) groups then run on forked workers."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
