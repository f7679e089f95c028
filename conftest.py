"""Pin BLAS to one thread for the whole test run.

The timed acceptance criteria measure one core's work.  A BLAS thread pool
spread over cores that another process holds runs them several times slower,
so a busy machine would fail them on code that is not at fault.  numpy is
first imported after this file runs (perfbench's tests are collected before
``tests/``), which is why the pin sits at the root; a value already set in the
environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
