"""Thread counts of the OpenBLAS libraries mapped into this process.

Each library is read through the ``get`` symbol that matches the ``set``
symbol :func:`doalab.blas.one_blas_thread` calls on it.
"""

import ctypes

GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")


def _symbol_pairs():
    """(get, set) per mapped library that has both, in path order."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    pairs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        name = next((name for name in GETTERS if hasattr(lib, name)), None)
        if name is not None:
            getter, setter = getattr(lib, name), getattr(lib, name.replace("_get_", "_set_"))
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            pairs.append((getter, setter))
    return pairs


def blas_thread_counts() -> list:
    """One thread count per library; empty where no library has the symbols."""
    return [getter() for getter, _ in _symbol_pairs()]


def set_blas_threads(counts) -> None:
    """Set the libraries, in the order of :func:`blas_thread_counts`, to ``counts``."""
    for (_, setter), count in zip(_symbol_pairs(), counts):
        setter(count)
