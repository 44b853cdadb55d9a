"""The OpenBLAS kernel numpy runs on.

A module of its own, importing numpy and nothing from the test suite, so a
child process can check its forced kernel before ``pytest.main`` without
loading any test module (a plugin module imported that early would trip
pytest's assertion-rewrite warning).
"""

import ctypes
from pathlib import Path

import numpy as np


def openblas_corename():
    """The OpenBLAS kernel numpy runs on, or None where its bundled library has no probe."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        probe = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if probe is not None:
            probe.argtypes, probe.restype = [], ctypes.c_char_p
            return probe().decode()
    return None
