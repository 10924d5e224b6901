"""Pytest setup for the whole repository: BLAS runs one thread per process.

At the suite's matrix sizes a second BLAS thread adds CPU time and no
speed. The variables are set before any test module imports numpy, which
reads them once at import; a value already in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
