"""promptlab: attribute-anchored soft-prompt learning on a miniature dual encoder."""

import os
import sys

# One BLAS thread per process. Every product promptlab makes stays on one
# thread (see tensor._row_products), so OpenBLAS's worker threads would get no
# work, yet each busy-waits for some after numpy loads. This runs before any
# submodule imports numpy. A process that imported numpy first is left as it
# is, and so is a thread count the user set in any variable OpenBLAS reads.
if "numpy" not in sys.modules and not any(
        name in os.environ
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
