"""Run-scoped pinning of numpy's bundled OpenBLAS to one thread.

OpenBLAS splits a matrix product into more blocks at more threads, which
changes float64 rounding, so model parameters depend on the thread count
unless it is fixed.  A run therefore pins BLAS to one thread and restores
the old count when it ends.  numpy wheels ship OpenBLAS as
``numpy.libs/libscipy_openblas64_-<hash>.so`` and export its thread
control; a numpy built against another BLAS has no such library, and then
a run goes ahead unpinned with one warning.  ``numpy_simd`` names numpy's
own SIMD loops, which a run's manifest records beside the BLAS library.
"""

from __future__ import annotations

import ctypes
import glob
import os
import warnings
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

import numpy as np


@dataclass(frozen=True)
class BlasState:
    """What a run used: the BLAS library, its thread count (None when it
    cannot be read) and whether the one-thread pin took effect."""

    library: str
    threads: int | None
    pinned: bool


@dataclass(frozen=True)
class _OpenBlas:
    set_threads: object
    get_threads: object
    config: str


@cache
def _bundled_openblas() -> _OpenBlas | None:
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_-*.so"))):
        try:
            lib = ctypes.CDLL(path)
            set_threads = lib.scipy_openblas_set_num_threads64_
            get_threads = lib.scipy_openblas_get_num_threads64_
            get_config = lib.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        return _OpenBlas(set_threads, get_threads, " ".join(get_config().decode().split()))
    return None


@cache
def _numpy_blas() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def numpy_simd() -> dict[str, bool]:
    """numpy's SIMD dispatch targets, each with whether this process uses it.

    Read from ``__cpu_dispatch__`` (the targets numpy was built with above
    its baseline) and ``__cpu_features__`` (what the CPU offers, less what
    ``NPY_DISABLE_CPU_FEATURES`` turned off when numpy loaded) of
    ``numpy._core._multiarray_umath``, ``numpy.core._multiarray_umath`` on
    numpy 1.x.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        from numpy.core import _multiarray_umath as umath
    return {t: bool(umath.__cpu_features__.get(t)) for t in umath.__cpu_dispatch__}


@contextmanager
def one_blas_thread() -> Iterator[BlasState]:
    """Run the block with BLAS at one thread; restore the old count after."""
    blas = _bundled_openblas()
    if blas is None:
        warnings.warn(
            f"no bundled OpenBLAS thread control found for numpy ({_numpy_blas()}); "
            "BLAS threads are not pinned, so model parameters may depend on the thread count",
            UserWarning,
            stacklevel=3,
        )
        yield BlasState(_numpy_blas(), None, False)
        return
    old = blas.get_threads()
    blas.set_threads(1)
    try:
        threads = blas.get_threads()
        yield BlasState(blas.config, threads, threads == 1)
    finally:
        blas.set_threads(old)
