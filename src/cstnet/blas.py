"""The BLAS thread variables, and how many eval forwards may run at once.

numpy's BLAS reads its thread count from these environment variables once,
when numpy is first imported, so a script that pins them must set them
before that.  This module imports no numpy, and the package loads its other
modules only on first use, so ``from cstnet.blas import THREAD_VARIABLES``
can come first.
"""

from __future__ import annotations

import os

# every variable a BLAS or OpenMP build takes its thread count from
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def eval_workers() -> int:
    """Eval forwards that may run at once on threads.

    The CPUs in this process's affinity when every thread variable pins the
    BLAS to 1 thread, else 1.  A forward releases the GIL in numpy and the
    BLAS, so pinned forwards overlap on the cores; an unpinned BLAS already
    spreads each forward's products over them, and two such forwards were
    slower than one after the other.
    """
    if not all(os.environ.get(name) == "1" for name in THREAD_VARIABLES):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
