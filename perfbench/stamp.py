"""Environment stamp and host speed probe, recorded next to every benchmark result.

Host speed drifts on shared machines: the same run can take 50% longer a few
minutes later, with CPU time tracking wall time. The probe times a fixed
pure-Python loop and a fixed numpy loop at the start and the end of each run,
so a slow result can be told apart from a slow host.
"""

from __future__ import annotations

import os
import platform
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"


def speed_probe() -> dict:
    """Milliseconds for a fixed pure-Python loop and a fixed small-matrix numpy loop."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    t1 = time.perf_counter()
    a = np.linspace(0.0, 1.0, 32 * 32).reshape(32, 32)
    for _ in range(2_000):
        a = np.tanh(a @ a.T * 0.01 + 0.5)
    t2 = time.perf_counter()
    return {"python_ms": (t1 - t0) * 1e3, "numpy_ms": (t2 - t1) * 1e3}


def environment() -> dict:
    """Versions, BLAS, thread settings and CPU of this host (no timing)."""
    import numpy as np
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_model": _cpu_model(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def load_average() -> list:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return []
