"""The threads replaykit computes on: its worker pool and its BLAS threads.

`run_study` and `cli.main`, so every command, run inside `pinned_blas()`:
the OpenBLAS that numpy loaded runs each GEMM, `eigh` and `cholesky` on
one thread for the whole call, and its previous count comes back when the
call returns or raises. Their parallelism is `workers()`, one pool of two
threads named `replaykit…`, whose calls the pinned OpenBLAS serves too.
So every output is what one BLAS thread computes, on any host and under
any `OPENBLAS_NUM_THREADS`: with more threads OpenBLAS splits a GEMM's
sums another way, which changes the last bits of a fit, and each pool
worker's GEMMs would start BLAS threads of their own. The count is set
through OpenBLAS's process-wide setter, not a per-thread one, because the
pool's workers run GEMMs too; the environment cannot do it, since OpenBLAS
reads it only when numpy is imported. A stage function called directly
leaves the caller's numpy as it is. The count belongs to the process, so
calls that overlap in time on several of the caller's threads are not
pinned throughout, and may leave the count at one.

`pinned_blas()` finds OpenBLAS among the libraries bundled with numpy's
wheel, once per process. A numpy built against another BLAS (MKL, a
system OpenBLAS) is left as it is, and the first `pinned_blas()` logs one
line saying so; its outputs then depend on that BLAS's thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)


def _find_openblas():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy:
    `numpy.libs/` in Linux and Windows wheels, `numpy/.dylibs/` in macOS
    ones. Its symbols carry numpy's prefix and ILP64 suffix, such as
    `scipy_openblas_set_num_threads64_`. None if there is none."""
    root = Path(np.__file__).parent
    for path in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                        *root.glob(".dylibs/*openblas*")]):
        lib = ctypes.CDLL(str(path))  # numpy's copy, already loaded
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                names = [f"{prefix}openblas_{verb}_num_threads{suffix}"
                         for verb in ("get", "set")]
                if all(hasattr(lib, name) for name in names):
                    get, set_ = (getattr(lib, name) for name in names)
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


@functools.cache
def _openblas():
    """`_find_openblas()`, once per process; one line logged if none."""
    blas = _find_openblas()
    if blas is None:
        log.info("no OpenBLAS found beside numpy; replaykit leaves the "
                 "BLAS thread count as it is")
    return blas


@contextlib.contextmanager
def pinned_blas():
    """Run the body with numpy's OpenBLAS on one thread, and restore its
    previous thread count on exit, whether the body returns or raises."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


@contextlib.contextmanager
def workers():
    """replaykit's pool of two worker threads. On exit, calls not yet
    started are cancelled, the calls in hand finish, and the threads are
    joined, so none outlives the `with`."""
    pool = ThreadPoolExecutor(max_workers=2, thread_name_prefix="replaykit")
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)
