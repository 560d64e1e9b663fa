"""One BLAS thread per process, as the benchmark runs, set before numpy
loads: sweeps of several (n, trial) groups then run on forked workers.
``leaves_nothing`` checks that a test leaves no child process or file
descriptor behind."""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def leaves_nothing():
    """Check that every forked process is reaped and every pipe end closed."""
    fds = len(os.listdir("/proc/self/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds
