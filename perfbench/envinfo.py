"""The environment a result was measured in.

Thread-count variables are only reported, never set, so the program
runs with the BLAS thread count a user would get.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "GENDERVEC_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _openblas(package) -> dict:
    """Name, build config and current thread count of the OpenBLAS a
    numpy or scipy wheel bundles; empty if it bundles none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                        f"{package.__name__}.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            return {"library": os.path.basename(path), "config": config().decode(),
                    "threads": threads()}
    return {}


def git_commit(root: str = ROOT) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "numpy_openblas": _openblas(numpy),
        "scipy_openblas": _openblas(scipy),
        "thread_env": {name: os.environ[name] for name in THREAD_VARS if name in os.environ},
        "commit": git_commit(),
    }
