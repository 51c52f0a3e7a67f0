"""One BLAS thread inside each certified estimate, restored on exit.

The power iteration chains N x N and (N, M) BLAS/LAPACK calls with N of
order ten; at that size OpenBLAS's default of one thread per core spends
more on waking threads than it saves.  :func:`single_thread` sets every
OpenBLAS copy mapped into the process to one thread and restores the
caller's counts when the outermost scope exits.  Other BLAS builds, and
platforms without ``/proc/self/maps``, are left alone.

The copies are discovered once, at the first entry into a scope; a copy
mapped in later (by importing scipy after that, say) is not governed.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from typing import Iterator

#: (getter, setter) pairs, tried in order on each mapped OpenBLAS file:
#: numpy's ``libscipy_openblas64_``, scipy's ``libscipy_openblas``, and a
#: plain ``libopenblas``.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# Module state: the thread counts it guards are process-wide too.
_lock = threading.Lock()
_depth = 0
_saved: list[int] = []
_libraries: list[tuple] | None = None   # (get, set) per copy; None until first use


def _discover() -> list[tuple]:
    """Thread-count (get, set) functions of every OpenBLAS copy mapped in."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.rsplit(" ", 1)[-1].strip() for line in fh}
    except OSError:
        return []
    found = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return found


@contextlib.contextmanager
def single_thread() -> Iterator[None]:
    """Run the body with every OpenBLAS copy on one thread.

    Scopes nest and may be entered from several threads at once: only the
    outermost entry reads and sets the counts, and only the last exit
    restores them, also when the body raises.
    """
    global _depth, _libraries, _saved
    with _lock:
        if _depth == 0:
            if _libraries is None:
                _libraries = _discover()
            _saved = [get() for get, _ in _libraries]
            for _, set_ in _libraries:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (_, set_), count in zip(_libraries, _saved):
                    set_(count)
