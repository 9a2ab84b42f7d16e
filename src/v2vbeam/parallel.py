"""One ordered map over work items, spread over the usable CPUs by ``fork``.

``ordered_map(fn, items)`` yields ``fn(item)`` for every item, in item order.
With k = min(len(items), usable CPUs) > 1, ``fork`` available and numpy's
BLAS an OpenBLAS whose thread count can be set, the calling process computes
items 0, k, 2k, ... itself and k - 1 forked workers compute the rest. ``fn``
and everything it refers to (a dataset, a config) reach the workers through
fork, not by pickling; only the items go out and the results come back. The
parse and synthesis send no rows back: their workers write them into dataset
columns that the processes share (``ingest._shared_columns``). At most
``2 * k`` items are handed out ahead of the one being yielded, so results
never pile up in the caller. Every process runs one BLAS thread while the pool
runs. Otherwise the items are mapped serially, here.

``one_blas_thread()`` holds OpenBLAS at one thread around any block: a product
split across BLAS threads sums in another order, so its bits would depend on
the number of CPUs.

Each result depends only on its item and comes back in item order, so the
output is the same for any number of processes. The exception of the earliest
failing item is the one raised, and the workers skip every later item they
have not started.
"""

from __future__ import annotations

import contextlib
import functools
import os
from collections import deque
from typing import Callable, Generator, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """(get, set) of the loaded OpenBLAS's thread count, or None if none is found.

    Side-by-side processes must each run one BLAS thread: with OpenBLAS's
    default of one thread per CPU, the helper threads of every process spin
    against each other, and four ``report`` repeats on 2 CPUs took 57 s instead
    of 17 s serially. Looked up once per process; forked workers inherit it.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:  # no /proc on this platform
        return None
    for path in sorted(p for p in paths if "openblas" in p):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # plain, 64-bit-integer and scipy-openblas (numpy's wheels) builds
        for prefix, suffix in (("", ""), ("", "64_"), ("scipy_", ""), ("scipy_", "64_")):
            try:
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Hold numpy's OpenBLAS at one thread inside the block, then restore it.

    Does nothing where no OpenBLAS with a settable thread count is loaded.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    threads = get_threads()
    set_threads(1)  # forked workers inherit the setting
    try:
        yield
    finally:
        set_threads(threads)


def ordered_map(fn: Callable[[T], R], items: Sequence[T]) -> Generator[R, None, None]:
    """``fn(item)`` for each of ``items`` in order, on up to the usable CPUs.

    ``items`` is read by index, no further than the window ahead of the
    result being yielded. Closing the generator stops the pool.
    """
    k = min(len(items), _usable_cpus())
    if k > 1 and hasattr(os, "fork") and _openblas_threads() is not None:
        return _pool_map(fn, items, k)
    return (fn(item) for item in items)


# (fn, index of the earliest failed item) of a forked pool worker, set by _adopt
_worker_state = None


def _adopt(fn: Callable, first_failure) -> None:
    global _worker_state
    _worker_state = (fn, first_failure)


def _note_failure(first_failure, index: int) -> None:
    with first_failure.get_lock():
        first_failure.value = min(first_failure.value, index)


def _work(job):
    index, item = job
    fn, first_failure = _worker_state
    if index > first_failure.value:  # an earlier item failed; skip this one
        return None
    try:
        return fn(item)
    except BaseException:
        _note_failure(first_failure, index)
        raise


def _pool_map(fn: Callable[[T], R], items: Sequence[T], k: int) -> Iterator[R]:
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with one_blas_thread():
        ctx = multiprocessing.get_context("fork")
        first_failure = ctx.Value("q", len(items))
        # initargs reach the workers through fork, so fn and its data are never pickled
        pool = ProcessPoolExecutor(
            k - 1, mp_context=ctx, initializer=_adopt, initargs=(fn, first_failure)
        )
        window = 2 * k
        pending = deque()  # futures of the workers' items handed out, in item order

        def hand_out(j: int) -> None:
            if j < len(items) and j % k:
                pending.append(pool.submit(_work, (j, items[j])))

        i = 0
        try:
            for j in range(window - 1):
                hand_out(j)
            for i in range(len(items)):
                hand_out(i + window - 1)  # items i .. i + window - 1 are now out
                # items before i all succeeded, so a failure here is the earliest; a
                # worker skips only items after a failed one, which are never reached
                yield fn(items[i]) if i % k == 0 else pending.popleft().result()
        except BaseException:  # a failure, or the caller stopped reading
            _note_failure(first_failure, i)
            raise
        finally:
            pool.shutdown(cancel_futures=True)
