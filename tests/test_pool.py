"""The fork pool that trainings and CSV blocks map through: order, errors,
dead workers, pickling-hostile tasks and cleanup, each checked with two
CPUs in the patched affinity against what ``map`` gives."""

import os
import sys

import pytest

from mlpinit import _pool

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
    return k, os.getpid() == _PARENT


class _TwoArgError(Exception):
    """Pickles as its one formatted message, so it does not unpickle: its
    ``__init__`` takes two arguments."""

    def __init__(self, task, reason):
        super().__init__(f"task {task}: {reason}")


def _raises_unpicklable_at_three(k):
    if k == 3:
        raise ValueError("bad", lambda: 0)
    return k


def _raises_unloadable_at_three(k):
    if k == 3:
        raise _TwoArgError(k, "bad")
    return k


def _returns_lambda_at_three(k):
    return (lambda: k) if k == 3 else k


def _call_callables(task):
    return task() if callable(task) else task


class _Unpicklable:
    """A task that cannot be pickled: it returns the pid that calls it."""

    def __reduce__(self):
        raise TypeError("this task does not pickle")

    def __call__(self):
        return os.getpid()


def _in_parent(k):
    return os.getpid() == _PARENT


def _outcome(results) -> list:
    """What ``results`` yields, a callable as what it returns, then the type
    and first argument of the exception it raises, if any."""
    got = []
    try:
        for value in results:
            got.append(value() if callable(value) else value)
    except Exception as exc:
        got.append((type(exc), exc.args[0]))
    return got


def _reaped(pid) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` puts ``n`` CPUs in the affinity that ``_pool.workers`` reads."""
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def two_cpus(cpus):
    cpus(2)


@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_results_come_in_task_order(n_workers, cpus, forks):
    cpus(n_workers)
    assert list(_pool.fork_map(_square, range(40))) == [k * k for k in range(40)]
    assert len(forks) == (n_workers if n_workers > 1 else 0)
    assert all(_reaped(pid) for pid in forks)


def test_one_task_runs_in_process(two_cpus, forks):
    assert list(_pool.fork_map(_in_parent, [0])) == [True]
    assert forks == []


def test_a_task_is_never_pickled(two_cpus, forks):
    # The workers inherit the task list, so a task that does not pickle is
    # computed by a worker all the same.
    pids = list(_pool.fork_map(_call_callables, [_Unpicklable() for _ in range(4)]))
    assert len(forks) == 2 and set(pids) <= set(forks)


def test_an_exception_is_raised_when_its_result_is_due(two_cpus, forks):
    results = _pool.fork_map(_fails_at_five, range(20))
    assert [next(results) for _ in range(5)] == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError, match="^task 5 failed$"):
        next(results)
    assert all(_reaped(pid) for pid in forks)


def test_a_dead_worker_ends_the_map_at_its_result(two_cpus, forks):
    # The pool's map ends at the dead worker's task; the caller runs it and
    # the rest.
    open_fds = set(os.listdir("/proc/self/fd"))
    got = list(_pool.fork_map(_dies_at_three, range(20)))
    assert [k for k, _ in got] == list(range(20))
    assert got[3] == (3, True)
    assert len(forks) == 2 and all(_reaped(pid) for pid in forks)
    assert set(os.listdir("/proc/self/fd")) == open_fds


@pytest.mark.parametrize("fn, tasks", [
    pytest.param(_raises_unpicklable_at_three, range(8), id="exception-does-not-pickle"),
    pytest.param(_raises_unloadable_at_three, range(8), id="exception-does-not-unpickle"),
    pytest.param(_returns_lambda_at_three, range(8), id="result-does-not-pickle"),
    pytest.param(_call_callables, [0, 1, 2, lambda: 3, 4, 5, 6, 7], id="task-does-not-pickle"),
])
def test_pickling_hostile_tasks_give_what_map_gives(fn, tasks, two_cpus, forks):
    open_fds = set(os.listdir("/proc/self/fd"))
    assert _outcome(_pool.fork_map(fn, tasks)) == _outcome(map(fn, tasks))
    assert len(forks) == 2 and all(_reaped(pid) for pid in forks)
    assert set(os.listdir("/proc/self/fd")) == open_fds


def test_a_map_left_early_kills_and_reaps_its_workers(two_cpus, forks):
    results = _pool.fork_map(_square, range(1000))
    assert next(results) == 0
    results.close()
    assert len(forks) == 2 and all(_reaped(pid) for pid in forks)


@pytest.mark.parametrize("fails_at", [0, 1])
def test_a_pool_that_cannot_start_maps_in_process(fails_at, two_cpus, forks, monkeypatch):
    # The fork after ``fails_at`` workers fails; any worker started is reaped.
    counting_fork = os.fork

    def fork():
        if len(forks) == fails_at:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return counting_fork()

    monkeypatch.setattr(os, "fork", fork)
    open_fds = set(os.listdir("/proc/self/fd"))
    assert list(_pool.fork_map(_in_parent, range(4))) == [True] * 4
    assert len(forks) == fails_at and all(_reaped(pid) for pid in forks)
    assert set(os.listdir("/proc/self/fd")) == open_fds
