"""The machine that the == fixtures hold on: numpy's version, its highest enabled x86
dispatch level and the core OpenBLAS picked.

The seeded fixtures (tests/data/table1_seed*_100.json, decisions_seed*_100.json) pin the
bits that numpy's SIMD dispatch and OpenBLAS's kernels give on the machine that wrote them.
tests/data/fingerprint.json records that machine; test_golden and test_decisions print it
beside the running machine's fingerprint when they fail. Rewrite it with the fixtures:

    PYTHONPATH=src python tests/fingerprint.py
"""

import ctypes
import glob
import json
import os
from pathlib import Path

import numpy as np

FIXTURE = Path(__file__).parent / "data" / "fingerprint.json"


def x86_level() -> str:
    """numpy's highest enabled X86_V<n> dispatch level, "none", or "unknown" where numpy
    names no such level (not x86)."""
    from numpy._core._multiarray_umath import __cpu_features__

    levels = [name for name in __cpu_features__ if name.startswith("X86_V")]
    if not levels:
        return "unknown"
    enabled = [name for name in levels if __cpu_features__[name]]
    return max(enabled, key=lambda name: int(name[len("X86_V"):]), default="none")


def openblas_core() -> str:
    """The core that numpy's bundled OpenBLAS picked, or "unknown"."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def machine() -> dict:
    return {"numpy": np.__version__, "x86_level": x86_level(), "openblas_core": openblas_core()}


def describe() -> str:
    """The fixtures' fingerprint beside this machine's, for a failing comparison."""
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    return f"fixtures written on {recorded}; this machine is {machine()}"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(machine(), indent=2) + "\n", encoding="utf-8")
