"""Print, as one JSON object, the Python, numpy and OpenBLAS that the
benchmark's CLI children load, and the BLAS thread count they start with."""

from __future__ import annotations

import ctypes
import json
import platform

import numpy


def openblas() -> dict:
    """Version string and thread count of the OpenBLAS loaded by numpy."""
    build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": build.get("name"), "version": build.get("version")}
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return info
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if get_config is None or get_threads is None:
                continue
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            info["config"] = get_config().decode()
            info["threads"] = get_threads()
            return info
    return info


if __name__ == "__main__":
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": openblas(),
    }))
