"""The OpenBLAS library that NumPy loaded, looked up through the handle of
``numpy.linalg._umath_linalg``, whose symbol search covers only that
extension and the libraries it links. The snake solve's floats may depend
on its kernel and thread count. Besides the pool's thread count it binds
the library's ``getrf`` and ``getrs``, the two halves of the ``gesv`` that
``np.linalg.solve`` calls, so that a system can be factored once and
solved against many steps.
"""

from __future__ import annotations

import ctypes
import json
import sys
from functools import cache

import numpy as np
from numpy.linalg import _umath_linalg

_LIBRARY = ctypes.CDLL(_umath_linalg.__file__)
# the names each function may go by, in order: the thread-count getter and
# setter of the OpenBLAS builds that NumPy ships or links, and NumPy's own
# LAPACK routines in its ILP64 OpenBLAS, whose integers are 64-bit, passed
# by reference, the arrays passed by address
_NAMES = {verb: (f"scipy_openblas_{verb}_num_threads64_", f"openblas_{verb}_num_threads64_",
                 f"scipy_openblas_{verb}_num_threads", f"openblas_{verb}_num_threads")
          for verb in ("get", "set")}
_NAMES.update(getrf=("scipy_dgetrf_64_",), getrs=("scipy_dgetrs_64_",))
_INT = ctypes.c_int64
_INTP, _DATA = ctypes.POINTER(_INT), ctypes.c_void_p
_TYPES = {"get": ([], ctypes.c_int), "set": ([ctypes.c_int], None),
          "getrf": ([_INTP, _INTP, _DATA, _INTP, _DATA, _INTP], None),  # m n a lda ipiv info
          # trans n nrhs a lda ipiv b ldb info
          "getrs": ([ctypes.c_char_p, _INTP, _INTP, _DATA, _INTP, _DATA, _DATA, _INTP, _INTP],
                    None)}


@cache
def _function(verb: str):
    """The thread-count getter (``verb`` "get") or setter ("set"), or
    NumPy's double-precision LAPACK "getrf" or "getrs", typed: the first of
    its ``_NAMES`` that NumPy's library exports; None where none does."""
    for name in _NAMES[verb]:
        found = getattr(_LIBRARY, name, None)
        if found is not None:
            found.argtypes, found.restype = _TYPES[verb]
            return found
    return None


def pool_size() -> int | None:
    """The OpenBLAS pool's thread count now, None where no getter resolves."""
    getter = _function("get")
    return None if getter is None else getter()


@cache
def pin() -> None:
    """Run the OpenBLAS that NumPy loaded on one thread, once per process:
    the solve's floats may depend on the thread count, and a second thread
    only spins on these small systems. Where no setter resolves, change
    nothing and say so on stderr."""
    setter = _function("set")
    if setter is None:
        print(json.dumps({"warning": "BLAS thread count left as is: no OpenBLAS "
                          "thread-count setter found"}), file=sys.stderr)
    else:
        setter(1)


def lu_factor(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """getrf's LU factors of a square float64 matrix, column-major, and its
    pivots, for ``lu_solve``; None where getrf or getrs does not resolve. A
    zero pivot raises NumPy's ``LinAlgError("Singular matrix")``, as a
    singular ``np.linalg.solve`` does."""
    getrf = _function("getrf")
    if getrf is None or _function("getrs") is None:
        return None
    if matrix.dtype != np.float64 or matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square float64 matrix, got {matrix.dtype} {matrix.shape}")
    factors = np.array(matrix, order="F")  # a copy in LAPACK's column-major order
    pivots = np.empty(len(factors), dtype=np.int64)
    size, info = _INT(len(factors)), _INT()
    getrf(size, size, factors.ctypes.data, size, pivots.ctypes.data, info)
    if info.value > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return factors, pivots


def lu_solve(factors: tuple[np.ndarray, np.ndarray], rhs: np.ndarray) -> None:
    """Solve the system ``factors`` came from against each row of the
    C-contiguous float64 array ``rhs``, whose rows of n are LAPACK's
    column-major right-hand sides, in place, with getrs: on one thread,
    the second half of the ``gesv`` that ``np.linalg.solve`` calls."""
    lu, pivots = factors
    if (rhs.dtype != np.float64 or not rhs.flags.c_contiguous or not rhs.flags.writeable
            or rhs.size % len(lu)):
        raise ValueError(f"expected a writeable C-contiguous float64 array of rows of "
                         f"{len(lu)}, got {rhs.dtype} {rhs.shape}")
    size, info = _INT(len(lu)), _INT()
    _function("getrs")(b"N", size, _INT(rhs.size // len(lu)), lu.ctypes.data, size,
                       pivots.ctypes.data, rhs.ctypes.data, size, info)
