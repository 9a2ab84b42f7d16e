import os
from collections.abc import Sequence

import pytest

from v2vbeam import parallel
from v2vbeam.parallel import ordered_map

needs_pool = pytest.mark.skipif(
    parallel._openblas_threads() is None, reason="the map runs serially without OpenBLAS"
)


class Probe(Sequence):
    """Items 0 .. n - 1 that record which indices were read."""

    def __init__(self, n):
        self.n = n
        self.read = []

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        if not 0 <= i < self.n:
            raise IndexError(i)
        self.read.append(i)
        return i


def square_and_pid(i):
    return i * i, os.getpid()


def test_results_in_item_order(cpus):
    results = list(ordered_map(square_and_pid, range(23)))
    assert [r for r, _ in results] == [i * i for i in range(23)]
    # the caller computes items 0, k, 2k, ...
    assert {pid for _, pid in results[::cpus]} == {os.getpid()}


def test_empty_and_single_item(cpus):
    assert list(ordered_map(square_and_pid, range(0))) == []
    assert list(ordered_map(square_and_pid, range(1))) == [(0, os.getpid())]


@needs_pool
@pytest.mark.parametrize("k", [2, 3])
def test_never_more_than_the_window_outstanding(k, monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: k)
    items = Probe(40)
    workers = set()
    for i, (result, pid) in enumerate(ordered_map(square_and_pid, items)):
        assert result == i * i
        # handed out but not yet yielded: items i .. max(read)
        assert max(items.read) - i + 1 <= 2 * k
        workers.add(pid)
    assert sorted(items.read) == list(range(40))
    assert workers - {os.getpid()}  # the workers computed some items


def fail_on_3_and_4(i):
    if i in (3, 4):
        raise ValueError(f"item {i} failed in {'caller' if i % 2 == 0 else 'worker'}")
    return i


def fail_on_4(i):
    if i == 4:
        raise ValueError("item 4 failed")
    return i


def test_earliest_failing_item_is_raised(cpus):
    with pytest.raises(ValueError, match="item 3 failed"):
        list(ordered_map(fail_on_3_and_4, range(12)))
    got = []
    with pytest.raises(ValueError, match="item 4 failed"):
        for result in ordered_map(fail_on_4, range(12)):
            got.append(result)
    assert got == [0, 1, 2, 3]


@needs_pool
def test_blas_threads_restored_when_the_map_is_abandoned(monkeypatch):
    get_threads, _ = parallel._openblas_threads()
    threads = get_threads()
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    results = ordered_map(square_and_pid, range(10))
    assert next(results)[0] == 0
    assert get_threads() == 1
    results.close()
    assert get_threads() == threads


def test_openblas_lookup_is_cached():
    assert parallel._openblas_threads() is parallel._openblas_threads()
    assert parallel._openblas_threads.cache_info().currsize == 1


def test_closing_the_map_stops_it(cpus):
    results = ordered_map(square_and_pid, range(10))
    assert next(results)[0] == 0
    results.close()
    with pytest.raises(StopIteration):
        next(results)


@needs_pool
@pytest.mark.parametrize("threads", [1, 2])
def test_one_blas_thread_holds_and_restores(threads):
    get_threads, set_threads = parallel._openblas_threads()
    before = get_threads()
    set_threads(threads)
    try:
        with parallel.one_blas_thread():
            assert get_threads() == 1
        assert get_threads() == threads
        with pytest.raises(ValueError), parallel.one_blas_thread():
            raise ValueError("inside")
        assert get_threads() == threads
    finally:
        set_threads(before)


def test_one_blas_thread_without_openblas(monkeypatch):
    monkeypatch.setattr(parallel, "_openblas_threads", lambda: None)
    with parallel.one_blas_thread():
        pass
    assert list(ordered_map(square_and_pid, range(3))) == [(i * i, os.getpid()) for i in range(3)]
