"""Pin BLAS to one thread before numpy loads: the small matrix products of
this package run several times slower when BLAS spreads them over cores."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
