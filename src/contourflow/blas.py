"""The OpenBLAS library that NumPy loaded, found in this process's memory
map: the snake solve's floats may depend on its kernel and thread count.
"""

from __future__ import annotations

import ctypes
import re
from functools import cache
from pathlib import Path

# the thread-count getters of the OpenBLAS builds that NumPy ships or links
_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads")


@cache
def _libraries() -> tuple[ctypes.CDLL, ...]:
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:  # no memory map to find the library in
        return ()
    # the mapped library itself, not a second copy
    return tuple(ctypes.CDLL(path)
                 for path in dict.fromkeys(re.findall(r"/\S*openblas\S*\.so\S*", maps)))


def function(names, argtypes, restype):
    """The first of ``names`` that a mapped OpenBLAS library exports, typed;
    None where none does."""
    for library in _libraries():
        for name in names:
            found = getattr(library, name, None)
            if found is not None:
                found.argtypes, found.restype = argtypes, restype
                return found
    return None


@cache
def _getter():
    return function(_GETTERS, [], ctypes.c_int)


def pool_size() -> int | None:
    """The OpenBLAS pool's thread count now, None where no getter resolves."""
    getter = _getter()
    return None if getter is None else getter()
