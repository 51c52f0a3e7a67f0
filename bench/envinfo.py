"""Environment record attached to every benchmark result.

BLAS thread counts are read, never set: the gated runs inherit whatever
environment they were started in, so a change to the program's own thread
policy shows up in the numbers.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess

#: (library file prefix, thread-count getter, config getter).
_OPENBLAS = (
    ("libscipy_openblas64_", "scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("libscipy_openblas", "scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
)

_ENV_PREFIXES = ("OPENBLAS_", "OMP_", "MALLOC_")


def loaded_openblas() -> list[dict]:
    """Each OpenBLAS copy mapped into this process, with its thread count."""
    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.rsplit(" ", 1)[-1].strip()
            if "openblas" in os.path.basename(path):
                paths.add(path)
    found = []
    for path in sorted(paths):
        base = os.path.basename(path)
        for prefix, threads_sym, config_sym in _OPENBLAS:
            if not base.startswith(prefix):
                continue
            lib = ctypes.CDLL(path)
            get_threads = getattr(lib, threads_sym, None)
            get_config = getattr(lib, config_sym, None)
            if get_threads is None:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            entry = {"library": base, "symbol": threads_sym, "threads": int(get_threads())}
            if get_config is not None:
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                entry["config"] = get_config().decode(errors="replace")
            found.append(entry)
            break
    return found


def blas_threads(blas: list[dict], prefix: str) -> int:
    """Thread count of the OpenBLAS copy whose file name starts with ``prefix``.

    ``libscipy_openblas64_`` is numpy's copy and ``libscipy_openblas-`` scipy's.
    """
    for entry in blas:
        if entry["library"].startswith(prefix):
            return entry["threads"]
    return 0


def source_digest(src_dir: str) -> str:
    """SHA-256 over the package sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_revision(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment_record(root: str) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": loaded_openblas(),
        "env": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith(_ENV_PREFIXES) or k == "SPECGUARD_THREADS"
        },
        "git_revision": git_revision(root),
        "source_sha256": source_digest(os.path.join(root, "src", "specguard")),
    }
