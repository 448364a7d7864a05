"""One OpenBLAS thread around mtdcsim's own linear algebra.

mtdcsim calls BLAS only through numpy, but a process may hold more than one
OpenBLAS (scipy, for one, loads its own). For the few-hundred-state
matrices of a closed loop a second thread only adds spin and wake-up cost,
and a threaded product sums in a different order, so results would depend
on the host's core count. ``one_thread()`` sets every loaded pool to one
thread and restores each pool's previous count on exit. The count is
process-global, so Python threads calling mtdcsim concurrently share one
setting; the pools are read once, at first use, after the package has
imported numpy. A pool loaded later is left alone: mtdcsim does not use it.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager

_lock = threading.Lock()
_depth = 0  # one_thread() sections open in this process
_saved = []  # the counts they restore, one per pool


@functools.cache
def _pools() -> tuple:
    """(get, set) thread-count pair of every OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({path for path in (line.split()[-1] for line in fh)
                            if "openblas" in path.lower() and ".so" in path})
    except OSError:
        return ()
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((get, put))
                break
    return tuple(pools)


@contextmanager
def one_thread():
    """Run the body with every OpenBLAS pool at one thread; no-op without one.

    Sections may nest and overlap across Python threads: the first to open
    saves the counts and the last to close restores them.
    """
    global _depth, _saved
    pools = _pools()
    with _lock:
        if _depth == 0:
            _saved = [get() for get, _ in pools]
            for _, put in pools:
                put(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (_, put), count in zip(pools, _saved):
                    put(count)
