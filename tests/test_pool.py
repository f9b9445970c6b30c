"""The fork pool that trainings and CSV blocks map through: order, errors,
dead workers and cleanup, each checked with two forced workers."""

import os
import sys

import pytest

from mlpinit import _pool
from mlpinit.errors import WorkerError

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or sys.platform != "linux", reason="the pool forks on Linux only"
)

_PARENT = os.getpid()


def _square(k):
    return k * k


def _fails_at_five(k):
    if k == 5:
        raise ValueError(f"task {k} failed")
    return k


def _dies_at_three(k):
    if k == 3 and os.getpid() != _PARENT:
        os._exit(7)
    return k


def _nested_workers(k):
    return _pool.workers(8)


def _in_parent(k):
    return os.getpid() == _PARENT


def _reaped(pid) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_results_come_in_task_order(n_workers, forks):
    assert list(_pool.fork_map(_square, range(40), n_workers)) == [k * k for k in range(40)]
    assert len(forks) == (n_workers if n_workers > 1 else 0)
    assert all(_reaped(pid) for pid in forks)


def test_an_exception_is_raised_when_its_result_is_due(forks):
    results = _pool.fork_map(_fails_at_five, range(20), 2)
    assert [next(results) for _ in range(5)] == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError, match="^task 5 failed$"):
        next(results)
    assert all(_reaped(pid) for pid in forks)


def test_a_dead_worker_ends_the_map_at_its_result(forks):
    got = []
    with pytest.raises(WorkerError, match=r"^worker process \d+ died$"):
        for value in _pool.fork_map(_dies_at_three, range(20), 2):
            got.append(value)
    # the results before task 3's, or fewer if the death is seen first
    assert got == list(range(len(got))) and len(got) <= 3
    assert all(_reaped(pid) for pid in forks)


def test_a_map_left_early_kills_and_reaps_its_workers(forks):
    results = _pool.fork_map(_square, range(1000), 2)
    assert next(results) == 0
    results.close()
    assert len(forks) == 2 and all(_reaped(pid) for pid in forks)


def test_a_worker_maps_in_process():
    assert list(_pool.fork_map(_nested_workers, range(4), 2)) == [1] * 4


@pytest.mark.parametrize("fails_at", [0, 1])
def test_a_pool_that_cannot_start_maps_in_process(fails_at, forks, monkeypatch):
    # The fork after ``fails_at`` workers fails; any worker started is reaped.
    counting_fork = os.fork

    def fork():
        if len(forks) == fails_at:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return counting_fork()

    monkeypatch.setattr(os, "fork", fork)
    open_fds = set(os.listdir("/proc/self/fd"))
    assert list(_pool.fork_map(_in_parent, range(4), 2)) == [True] * 4
    assert len(forks) == fails_at and all(_reaped(pid) for pid in forks)
    assert set(os.listdir("/proc/self/fd")) == open_fds
