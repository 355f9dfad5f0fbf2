"""The facts a result depends on: machine, BLAS and its threads, versions."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

import gcgeig

_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_build(pkg):
    try:
        blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def _openblas_threads(pkg):
    """Threads the OpenBLAS bundled with ``pkg`` will use, asked of the
    library itself; None when it cannot be found or asked."""
    libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_facts(seed, blas_threads):
    return {
        "nproc": os.cpu_count(),
        "blas_threads_pinned": blas_threads,
        "blas": {
            pkg.__name__: {**(_blas_build(pkg) or {}), "threads": _openblas_threads(pkg)}
            for pkg in (np, scipy)
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "gcgeig_backend": gcgeig.kernels.backend_name(),
        "seed": seed,
    }
