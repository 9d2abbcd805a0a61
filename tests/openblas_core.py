"""Print the OpenBLAS core that numpy's bundled OpenBLAS loaded.

``OPENBLAS_CORETYPE`` names the core to load, but OpenBLAS may map it to
another: with numpy 2.4.6's bundled OpenBLAS 0.3.31, ``Core2`` loads
Katmai and ``Zen`` loads Haswell. Prints "unknown" where the library or
its ``scipy_openblas_get_corename64_`` symbol is missing. Run it as
``python tests/openblas_core.py``, under the same ``OPENBLAS_CORETYPE``
as the tests it labels.
"""

import ctypes
import glob
import os

import numpy


def core_name() -> str:
    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
    for path in glob.glob(pattern):
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_char_p
        return get().decode()
    return "unknown"


if __name__ == "__main__":
    print("OpenBLAS core:", core_name())
