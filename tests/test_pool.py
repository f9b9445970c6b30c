"""The fork pool that trainings and CSV blocks map through: order, errors,
dead workers, pickling-hostile tasks and cleanup, each checked with two
CPUs in the patched affinity against what ``map`` gives."""

import os
import signal
import socket
import sys

import pytest
from conftest import reaped

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


def _square_dies_at_three(k):
    return _dies_at_three(k)[0] ** 2


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


class _ExitsWhenPickled:
    """Ends the process that pickles it."""

    def __reduce__(self):
        os._exit(7)


def _torn_at_three(k):
    # A worker dies while it writes this result, after its first 128 KiB.
    if k == 3 and os.getpid() != _PARENT:
        return b"x" * (1 << 17), _ExitsWhenPickled()
    return k


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
    assert all(reaped(pid) for pid in forks)


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
    assert all(reaped(pid) for pid in forks)


def test_a_dead_worker_ends_the_map_at_its_result(two_cpus, forks):
    # The pool's map ends at the dead worker's task; the caller runs it and
    # the rest.
    open_fds = set(os.listdir("/proc/self/fd"))
    got = list(_pool.fork_map(_dies_at_three, range(20)))
    assert [k for k, _ in got] == list(range(20))
    assert got[3] == (3, True)
    assert len(forks) == 2 and all(reaped(pid) for pid in forks)
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
    assert len(forks) == 2 and all(reaped(pid) for pid in forks)
    assert set(os.listdir("/proc/self/fd")) == open_fds


def test_a_result_cut_off_by_its_workers_death_is_a_pool_failure(two_cpus, forks, monkeypatch):
    # The parent reads the first part of the result, then the end of the
    # stream: that load fails, and the caller runs the task.
    real_load, failed_after = _pool.pickle.load, []  # bytes a failed load read

    def load(file):
        got = bytearray()

        class Reader:  # what a load uses of ``file``, keeping what it reads
            def read(self, n):
                got.extend(data := file.read(n))
                return data

            def readline(self):
                got.extend(line := file.readline())
                return line

        try:
            return real_load(Reader())
        except Exception:
            failed_after.append(len(got))
            raise

    monkeypatch.setattr(_pool.pickle, "load", load)
    open_fds = set(os.listdir("/proc/self/fd"))
    assert list(_pool.fork_map(_torn_at_three, range(8))) == list(map(_torn_at_three, range(8)))
    assert len(failed_after) == 1 and failed_after[0] > 1 << 17
    assert len(forks) == 2 and all(reaped(pid) for pid in forks)
    assert set(os.listdir("/proc/self/fd")) == open_fds


def test_a_map_left_early_kills_and_reaps_its_workers(two_cpus, forks):
    open_fds = set(os.listdir("/proc/self/fd"))
    results = _pool.fork_map(_square, range(1000))
    assert next(results) == 0
    results.close()
    assert len(forks) == 2 and all(reaped(pid) for pid in forks)
    assert set(os.listdir("/proc/self/fd")) == open_fds


@pytest.mark.parametrize("at", [0, 1])
def test_a_sigint_as_a_fork_returns_leaves_no_worker_unreaped(at, two_cpus, forks, monkeypatch):
    # Worker ``at``'s fork returns to a pending SIGINT: without the pool
    # holding it, KeyboardInterrupt would be raised before the pool holds
    # that worker's pid.
    counting_fork = os.fork

    def interrupted_fork():
        pid = counting_fork()
        if pid and len(forks) == at + 1:
            signal.raise_signal(signal.SIGINT)
        return pid

    monkeypatch.setattr(os, "fork", interrupted_fork)
    open_fds = set(os.listdir("/proc/self/fd"))
    with pytest.raises(KeyboardInterrupt):
        list(_pool.fork_map(_square, range(40)))
    assert len(forks) == 2 and all(reaped(pid) for pid in forks)
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
    assert set(os.listdir("/proc/self/fd")) == open_fds


@pytest.mark.parametrize("module, name, fails_at", [
    pytest.param(os, "fork", 0, id="0"),
    pytest.param(os, "fork", 1, id="1"),
    pytest.param(socket, "socketpair", 0, id="socketpair-0"),
    pytest.param(socket, "socketpair", 1, id="socketpair-1"),
])
def test_a_pool_that_cannot_start_maps_in_process(
    module, name, fails_at, two_cpus, forks, monkeypatch
):
    # ``module.name`` fails when worker ``fails_at`` starts; any worker
    # started before it is reaped.
    real = getattr(module, name)

    def failing():
        if len(forks) == fails_at:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real()

    monkeypatch.setattr(module, name, failing)
    open_fds = set(os.listdir("/proc/self/fd"))
    assert list(_pool.fork_map(_in_parent, range(4))) == [True] * 4
    assert len(forks) == fails_at and all(reaped(pid) for pid in forks)
    assert set(os.listdir("/proc/self/fd")) == open_fds


@pytest.mark.parametrize("fails_at", [0, 3])
def test_an_index_that_cannot_be_sent_ends_the_pool(fails_at, two_cpus, forks, monkeypatch):
    # The parent's send of task index ``fails_at`` finds its worker gone.
    real_sendall, sent = socket.socket.sendall, []

    def sendall(sock, payload, *flags):
        sent.append(payload)
        if len(sent) == fails_at + 1:
            raise BrokenPipeError(32, "Broken pipe")
        return real_sendall(sock, payload, *flags)

    monkeypatch.setattr(socket.socket, "sendall", sendall)
    open_fds = set(os.listdir("/proc/self/fd"))
    assert list(_pool.fork_map(_square, range(20))) == list(map(_square, range(20)))
    assert len(sent) == fails_at + 1
    assert len(forks) == 2 and all(reaped(pid) for pid in forks)
    assert set(os.listdir("/proc/self/fd")) == open_fds


@pytest.mark.parametrize("fn", [
    pytest.param(_square, id="all-served"),
    pytest.param(_square_dies_at_three, id="one-died"),
])
def test_workers_reaped_by_an_ignored_sigchld_are_stopped(fn, two_cpus, forks, monkeypatch):
    # With SIGCHLD ignored the kernel reaps each worker as it ends, so for
    # each worker either kill finds no process or waitpid no child.
    real_waitpid, real_kill, raised = os.waitpid, os.kill, []

    def recorded(call):
        def wrapper(*args):
            try:
                return call(*args)
            except OSError as exc:
                raised.append(type(exc))
                raise
        return wrapper

    monkeypatch.setattr(os, "waitpid", recorded(real_waitpid))
    monkeypatch.setattr(os, "kill", recorded(real_kill))
    handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        got = list(_pool.fork_map(fn, range(8)))
        assert signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN
    finally:
        signal.signal(signal.SIGCHLD, handler)
    assert got == list(map(fn, range(8)))
    assert len(raised) == 2 and set(raised) <= {ChildProcessError, ProcessLookupError}
    assert signal.getsignal(signal.SIGCHLD) == handler
    assert len(forks) == 2 and all(reaped(pid) for pid in forks)
