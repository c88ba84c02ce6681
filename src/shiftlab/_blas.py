"""Run the experiment drivers, and vanishing_subspace, with OpenBLAS on one thread.

A threaded BLAS splits an SVD or QR differently for each thread count, so
reports would change in their last digits with OPENBLAS_NUM_THREADS or the
core count; at the drivers' window sizes the extra threads mostly spin.
Without OpenBLAS (no thread-count symbol found) the drivers run unchanged.
"""

from __future__ import annotations

import ctypes
import functools
import threading

import numpy as np

_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# The thread count is process-wide, so the pin is held from set to restore:
# drivers entered from several threads run one at a time.
_PIN = threading.RLock()


@functools.cache
def _lookup():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None.

    dlsym on numpy's LAPACK extension also searches the libraries it links.
    """
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for get_name, set_name in _SYMBOLS:
        get = getattr(lib, get_name, None)
        put = getattr(lib, set_name, None)
        if get is not None and put is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            return get, put
    return None


def one_blas_thread(fn):
    """Run fn with OpenBLAS on one thread; restore the caller's count after."""

    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        found = _lookup()
        if found is None:
            return fn(*args, **kwargs)
        get, put = found
        with _PIN:
            before = get()
            put(1)
            try:
                return fn(*args, **kwargs)
            finally:
                put(before)

    return pinned
