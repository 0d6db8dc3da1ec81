"""The threads replaykit computes on: its worker pool and its BLAS threads.

`workers()` is replaykit's one pool: WORKERS threads named `replaykit…`,
one pool per `run_study` call and per `synth` or `extract` command. Its
calls come through `look_ahead`, which runs a stream of calls on the
pool, a given depth of them submitted beyond the result the caller
holds, and yields their results in the stream's order; `run_study`
also submits its fits and takes their results in leg order. So a caller
that writes what it takes writes what one thread writes. An error
raised by a call is raised at its place in the order, after the results
before it, and the calls still queued are then cancelled. When the
`with` of `workers()` ends, by a return or a raise, calls not yet
started are cancelled, the calls in hand finish and the threads are
joined, so none outlives its caller. The threads overlap because numpy
releases the GIL in the GEMMs, FFTs, `eigh` and `exp` that make up the
work. Each caller chooses its depth and states why.

`run_study` and `cli.main`, so every command, run inside `pinned_blas()`:
the OpenBLAS that numpy loaded runs each GEMM, `eigh` and `cholesky` on
one thread for the whole call, and its previous count comes back when the
call returns or raises. The pool's calls are served by the pinned
OpenBLAS too. So every output is what one BLAS thread computes, on any
host and under any `OPENBLAS_NUM_THREADS`: with more threads OpenBLAS
splits a GEMM's sums another way, which changes the last bits of a fit,
and each pool worker's GEMMs would start BLAS threads of their own. The
count is set through OpenBLAS's process-wide setter, not a per-thread
one, because the pool's workers run GEMMs too; the environment cannot
do it, since OpenBLAS reads it only when numpy is imported. A stage
function called directly leaves the caller's numpy as it is. The count
belongs to the process, so calls that overlap in time on several of the
caller's threads are not pinned throughout, and may leave the count at
one.

`pinned_blas()` finds OpenBLAS among the libraries bundled with numpy's
wheel, once per process. A numpy built against another BLAS (MKL, a
system OpenBLAS) is left as it is, and the first `pinned_blas()` logs one
line saying so; its outputs then depend on that BLAS's thread count.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import itertools
import logging
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

# Threads in replaykit's pool.
WORKERS = 2


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
    """replaykit's pool of WORKERS threads, shut down when the `with`
    ends; see the module docstring."""
    pool = ThreadPoolExecutor(max_workers=WORKERS,
                              thread_name_prefix="replaykit")
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def look_ahead(calls, pool, depth: int) -> Iterator:
    """Run `calls` on `pool` and yield their results in order, with up to
    `depth` calls submitted beyond the result the caller holds. The first
    `depth` are submitted now, when the look-ahead is made; the next one
    each time a result is taken. An exception raised by a call is raised
    here when its place in the order comes, and the calls still queued
    are then cancelled."""
    calls = iter(calls)
    ahead = collections.deque(
        pool.submit(call) for call in itertools.islice(calls, depth))

    def results():
        try:
            while ahead:
                result = ahead.popleft().result()
                ahead.extend(pool.submit(call)
                             for call in itertools.islice(calls, 1))
                yield result
                del result  # the caller's now
        finally:
            for future in ahead:
                future.cancel()

    return results()
