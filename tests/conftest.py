"""Pin BLAS to one thread before numpy loads: the small matrix products of
this package run several times slower when BLAS spreads them over cores.
Property tests share one profile: a fixed example sequence, no example
database on disk and no per-example deadline."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings

settings.register_profile("onewaysim", derandomize=True, database=None, deadline=None)
settings.load_profile("onewaysim")
