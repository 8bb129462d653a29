"""The core numpy's bundled OpenBLAS runs on, read through ctypes.

OpenBLAS picks its kernels for the CPU when it loads, unless
OPENBLAS_CORETYPE names a core, and the cores round some values
differently.  This module imports only ctypes, pathlib and numpy, so a
child process can import it cheaply to report its core.
"""
import ctypes
from pathlib import Path

import numpy as np


def openblas_core() -> str:
    """The running core's name, such as "Haswell"; OSError when numpy has
    no bundled OpenBLAS or the library does not report its core."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        raise OSError("numpy has no bundled OpenBLAS library")
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except AttributeError as exc:
        raise OSError(f"{libs[0].name} does not report its core") from exc
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()
