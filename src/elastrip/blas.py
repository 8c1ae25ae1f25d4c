"""The thread count of every OpenBLAS loaded in this process, through ctypes.

numpy's wheels bundle OpenBLAS under their own symbol names:
``scipy_openblas_set_num_threads64_`` in numpy 2's, and
``openblas_set_num_threads64_`` in numpy 1.24's; scipy's wheels bundle one
more.  Their pthreads builds keep one thread count per library, so a count
set from one thread holds for the BLAS calls of every thread.  The
libraries are found by name in ``/proc/self/maps``, so on a system without
it, or with another BLAS, :func:`openblas_controls` finds none.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

# (prefix, suffix) of the thread-count functions of each OpenBLAS build
_NAMES = (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"),
          ("openblas", ""))


def openblas_controls() -> list[tuple]:
    """(get, set) of the thread count of every OpenBLAS loaded in this
    process; empty when none is found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _NAMES:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return controls


@contextmanager
def threads_limited(controls: list[tuple], n: int):
    """Set the thread count of every ``controls`` library to ``n`` in the
    block, and give each its own count back at the end."""
    before = [get() for get, _ in controls]
    for _, put in controls:
        put(n)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, before):
            put(count)
