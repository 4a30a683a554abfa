"""One BLAS thread while a guarded block runs: a threaded gemm splits its long
sums between threads, so at n >= 32 the gradient's bits would follow the count."""

import ctypes
import threading
from contextlib import contextmanager

try:  # numpy 2 wheels' bundled OpenBLAS; with any other BLAS the guard does nothing
    from numpy._core import _multiarray_umath

    _lib = ctypes.CDLL(_multiarray_umath.__file__)
    _get, _set = _lib.scipy_openblas_get_num_threads64_, _lib.scipy_openblas_set_num_threads64_
except (ImportError, OSError, AttributeError):
    _get = _set = None
_lock = threading.Lock()
_depth = _saved = 0


@contextmanager
def single_blas_thread():
    """Hold the bundled OpenBLAS at one thread until the last guarded block
    of any Python thread ends, then restore the count from before the first."""
    global _depth, _saved
    with _lock:
        if _get and not _depth:
            _saved = _get()
            _set(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _get and not _depth:
                _set(_saved)
