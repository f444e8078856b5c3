import os

# one thread per BLAS and OpenMP pool, as perfbench/run.py pins them: the suite's many
# small eigensolves run slower on a pool that contends with other processes for the
# cores. This file loads before any test module imports numpy.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(var, "1")
