"""One BLAS thread for the interior-point solver and for the per-sector
exact diagonalization of the thermal chains, whose dense kernels (blocks of
at most 512 at n = 10) lose more to OpenBLAS worker threads (numpy's and
scipy's, bundled apart) than they gain.  ``dlsym`` on a linalg extension's
handle also searches its dependencies, so it reaches the OpenBLAS the
package bundles.  Builds without ``openblas_set_num_threads_local`` are left
alone.  The pthreads builds in the wheels apply that setter to the whole
process, so overlapping scopes share one count: the first to enter saves
the previous values, the last to leave restores them.
"""

import contextlib
import ctypes
import threading

import numpy.linalg._umath_linalg
import scipy.linalg._flapack


def _find_setters():
    setters = {}  # by address: numpy and scipy may share one library
    for ext in (numpy.linalg._umath_linalg, scipy.linalg._flapack):
        fn = getattr(ctypes.CDLL(ext.__file__), "openblas_set_num_threads_local", None)
        if fn is not None:
            fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
            setters[ctypes.cast(fn, ctypes.c_void_p).value] = fn
    return list(setters.values())


_SETTERS = _find_setters()
SOLVE_BLAS_THREADS = 1 if _SETTERS else None  # None: the library's own default
_lock = threading.Lock()
_depth = 0
_saved = []


@contextlib.contextmanager
def single_blas_thread():
    """Run the block (or each call, as a decorator) on one BLAS thread."""
    global _depth
    with _lock:
        if _depth == 0:
            _saved[:] = [fn(1) for fn in _SETTERS]
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for fn, prev in reversed(list(zip(_SETTERS, _saved))):
                    fn(prev)
