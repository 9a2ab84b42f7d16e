"""One ordered map over work items, spread over the usable CPUs by ``fork``.

``ordered_map(fn, items)`` yields ``fn(item)`` for every item, in item order.
With k = min(len(items), usable CPUs) > 1, ``fork`` available and numpy's
BLAS an OpenBLAS whose thread count can be set, the calling process computes
items 0, k, 2k, ... itself and forked worker j of k - 1 computes items j,
j + k, j + 2k, ... ``fn`` and everything it refers to (a dataset, a config)
reach the workers through fork, not by pickling; only the results come back,
each worker's through a pipe of its own. The parse and synthesis send no rows
back: their workers write them into dataset columns that the processes share
(``ingest._shared_columns``). A result larger than a pipe holds blocks its
worker until the caller reads it, so a worker holds at most one unread result.
Every process runs one BLAS thread while the pool runs. Otherwise the items
are mapped serially, here.

``one_blas_thread()`` holds OpenBLAS at one thread around any block: a product
split across BLAS threads sums in another order, so its bits would depend on
the number of CPUs.

Each result depends only on its item and comes back in item order, so the
output is the same for any number of processes. The exception of the earliest
failing item is the one raised; a worker stops at its first failure.
"""

from __future__ import annotations

import contextlib
import functools
import os
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

    ``items`` is read by index, each item by the one process that computes it.
    Closing the generator stops the workers.
    """
    k = min(len(items), _usable_cpus())
    if k > 1 and hasattr(os, "fork") and _openblas_threads() is not None:
        return _pool_map(fn, items, k)
    return (fn(item) for item in items)


def _work(fn: Callable, items: Sequence, j: int, k: int, receiver, sender) -> None:
    """Send (True, result) for items j, j + k, ... or (False, exc) for the first failure."""
    receiver.close()  # only the caller reads: once it is gone, a blocked send fails
    for i in range(j, len(items), k):
        try:
            sender.send((True, fn(items[i])))
        except BaseException as exc:
            sender.send((False, exc))
            return


def _pool_map(fn: Callable[[T], R], items: Sequence[T], k: int) -> Iterator[R]:
    import multiprocessing

    with one_blas_thread():
        ctx = multiprocessing.get_context("fork")
        workers, pipes = [], [None]  # pipes[j] receives worker j's results
        try:
            for j in range(1, k):
                receiver, sender = ctx.Pipe(duplex=False)
                worker = ctx.Process(target=_work, args=(fn, items, j, k, receiver, sender))
                worker.start()
                sender.close()  # the worker holds the only sending end: its death reads EOFError
                workers.append(worker)
                pipes.append(receiver)
            for i in range(len(items)):
                ok, result = (True, fn(items[i])) if i % k == 0 else pipes[i % k].recv()
                if not ok:
                    raise result
                yield result
        finally:  # done, failed or closed early
            for worker in workers:
                worker.terminate()
                worker.join()
                worker.close()
            for receiver in pipes[1:]:
                receiver.close()
