"""Pin BLAS to one thread for the test suite, before numpy is loaded.

Multithreaded BLAS gains nothing on the suite's small matrices and slows
it badly when other work shares the cores.  This file sits at the root
because pytest collects ``bench/test_bench.py``, which imports numpy at
module level, before ``tests/conftest.py`` runs.  A value already set in
the environment wins.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
