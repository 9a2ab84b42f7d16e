import functools
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import v2vbeam
from v2vbeam import parallel
from v2vbeam.parallel import ordered_map

needs_pool = pytest.mark.skipif(
    parallel._openblas_threads() is None, reason="the map runs serially without OpenBLAS"
)


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


def counted_mib(counter, i):
    """Item i, its process and 1 MiB, more than a pipe holds; counts every call."""
    with counter.get_lock():
        counter.value += 1
    return i, os.getpid(), bytes(1 << 20)


def fork_counter():
    return multiprocessing.get_context("fork").Value("q", 0)


@needs_pool
@pytest.mark.parametrize("k", [2, 3])
def test_each_worker_holds_at_most_one_unread_result(k, monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: k)
    counter = fork_counter()
    workers = set()
    results = ordered_map(functools.partial(counted_mib, counter), range(40))
    for i, (item, pid, _) in enumerate(results):
        assert item == i
        # items 0 .. i are computed, and each of the k - 1 workers at most one more
        assert counter.value <= i + 1 + (k - 1)
        workers.add(pid)
    assert counter.value == 40
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
    # item 3 fails in a worker on 2 CPUs and in the caller on 3, item 4 the other way round
    with pytest.raises(ValueError, match="item 3 failed"):
        list(ordered_map(fail_on_3_and_4, range(12)))
    assert multiprocessing.active_children() == []
    got = []
    with pytest.raises(ValueError, match="item 4 failed"):
        for result in ordered_map(fail_on_4, range(12)):
            got.append(result)
    assert got == [0, 1, 2, 3]
    assert multiprocessing.active_children() == []


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


def wait_until(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


@needs_pool
@pytest.mark.parametrize("k", [2, 3])
def test_no_worker_left_after_close(k, monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: k)
    counter = fork_counter()
    results = ordered_map(functools.partial(counted_mib, counter), range(20))
    assert next(results)[0] == 0
    # every worker has started its first item, whose 1 MiB then blocks it in send
    wait_until(lambda: counter.value >= k)
    results.close()
    assert multiprocessing.active_children() == []


def exit_in_worker(i):
    if i == 3 and multiprocessing.parent_process() is not None:
        os._exit(1)  # dies without sending a result
    return i


def hung(signum, frame):
    raise TimeoutError("the map hung on a dead worker")


@needs_pool
def test_a_dead_worker_fails_the_map(monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(EOFError):
            list(ordered_map(exit_in_worker, range(10)))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


# starts a map of 1 MiB results on 3 processes, prints the workers' pids and waits
KILLED_CALLER = """
import multiprocessing, sys
from v2vbeam import parallel
parallel._usable_cpus = lambda: 3
results = parallel.ordered_map(bytes, [1 << 20] * 20)
next(results)
print(*(worker.pid for worker in multiprocessing.active_children()), flush=True)
sys.stdin.read()
"""


def exited(pid):
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"  # not reaped yet
    except FileNotFoundError:
        return True


@needs_pool
def test_workers_exit_when_the_caller_is_killed():
    env = dict(os.environ, PYTHONPATH=str(Path(v2vbeam.__file__).resolve().parents[1]))
    with subprocess.Popen(
        [sys.executable, "-c", KILLED_CALLER], env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    ) as caller:
        pids = [int(pid) for pid in caller.stdout.readline().split()]
        caller.kill()
    assert len(pids) == 2
    # blocked sending, each worker finds no reader left once the caller is gone
    wait_until(lambda: all(exited(pid) for pid in pids))
