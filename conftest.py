"""Pin BLAS to one thread per process for the whole suite, as the package does.

pytest loads this file before it imports any test module.  ``perfbench/``'s
modules import numpy before ``mha_nw_lab``, so the package's own pin comes too
late there: without this file each forked replicate worker would start its own
BLAS thread pool.  Tests that want other thread counts set them in the
environments of the subprocesses they start.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
