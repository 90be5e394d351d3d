"""The OpenBLAS library that NumPy loaded, found in this process's memory
map: the snake solve's floats may depend on its kernel and thread count.
"""

from __future__ import annotations

import ctypes
import json
import re
import sys
from functools import cache
from pathlib import Path

# the thread-count functions of the OpenBLAS builds that NumPy ships or
# links, `{}` standing for get or set; NumPy's ILP64 names come first, as
# the memory map lists libraries by address and another OpenBLAS (SciPy's
# LP64 one) can be mapped before NumPy's
_NAMES = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
          "scipy_openblas_{}_num_threads", "openblas_{}_num_threads")


@cache
def _libraries() -> tuple[ctypes.CDLL, ...]:
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:  # no memory map to find the library in
        return ()
    # the mapped library itself, not a second copy
    return tuple(ctypes.CDLL(path)
                 for path in dict.fromkeys(re.findall(r"/\S*openblas\S*\.so\S*", maps)))


@cache
def _function(verb: str):
    """The typed thread-count getter (``verb`` "get") or setter ("set") of
    the first of ``_NAMES`` that a mapped library exports; None where none
    does."""
    for name in _NAMES:
        for library in _libraries():
            found = getattr(library, name.format(verb), None)
            if found is not None:
                found.argtypes, found.restype = (([], ctypes.c_int) if verb == "get"
                                                 else ([ctypes.c_int], None))
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
