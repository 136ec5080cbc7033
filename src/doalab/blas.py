"""One OpenBLAS thread per process, set through ``ctypes`` on the loaded library.

doalab keeps the cores busy with its own threads and worker processes; an
OpenBLAS thread pool on top of them spin-waits after each small GEMM and
takes a core from them. Importing this module changes nothing.
"""

from __future__ import annotations

import ctypes
import logging

logger = logging.getLogger(__name__)

_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads")


def one_blas_thread() -> bool:
    """Set every OpenBLAS mapped into this process to one thread.

    Returns False, having changed nothing, where no library or setter is found.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        paths = []
    found = False
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        setter = next((getattr(lib, name) for name in _SETTERS if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            found = True
    if not found:
        logger.debug("no OpenBLAS thread setter found; BLAS threads left as they are")
    return found
