"""The machine and library facts recorded next to every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# thread-count getters of the BLAS builds numpy and scipy ship with
_BLAS_GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Let BLAS use at most ``nproc`` threads; call before numpy is imported."""
    n = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            want = int(os.environ.get(var, n))
        except ValueError:
            want = n
        os.environ[var] = str(min(max(want, 1), n))


def _blas_threads() -> dict[str, int]:
    """Thread count of each BLAS library loaded in this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "blas" in line.lower() and line.split()[-1].startswith("/")})
    found = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for getter in _BLAS_GETTERS:
            fn = getattr(lib, getter, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        out[f"L{level} {kind}"] = size
    return out


def environment() -> dict:
    """nproc, BLAS threads, library versions, CPU model and cache sizes."""
    import numpy
    import scipy
    import scipy.linalg  # loads scipy's own BLAS, if it has one  # noqa: F401

    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
    }
