"""Test-session set-up.

One BLAS/OpenMP thread unless the caller sets otherwise: the kernels
work on small matrices, where extra BLAS threads cost more than they
give (on a 2-core machine two threads made the coclosedness and
transgression criteria about 7x slower).  This must run before numpy
is first imported, which pytest guarantees for a conftest.py.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
