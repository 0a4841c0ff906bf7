"""Launch environment: BLAS thread pinning and the facts a result is recorded with.

Importing this module imports nothing heavy; numpy is only touched by
:func:`blas_threads` and :func:`describe`, after the caller has checked the
pin.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Thread-count getters exported by the OpenBLAS builds numpy ships with.
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def unpinned_variables(environ=os.environ) -> list:
    """Names of the BLAS thread variables not set to 1."""
    return [name for name, value in PINNED.items() if environ.get(name) != value]


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if no OpenBLAS is loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def describe() -> dict:
    """Python, numpy, BLAS and CPU facts recorded beside every result."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }
