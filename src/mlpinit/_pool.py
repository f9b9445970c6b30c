"""The one worker pool of the library: forked processes, on Linux only.

Trainings (``harness``) and CSV row blocks (``data``) are independent tasks
that map through ``fork_map``. ``workers`` decides how many processes a map
of ``n_tasks`` gets; a map that gets 1 runs in-process. A map yields what
``map`` yields: if its pool fails, the calling process finishes it. A task
that raises fails the pool too: its worker dies, and the caller runs the
task again and raises. This module is the only code that knows a worker can
die.

The pool is ``os.fork`` with two pipes per worker, driven from the calling
thread. A ``ProcessPoolExecutor`` would import about 1.1 MB of modules, and
the glibc arenas of its two helper threads, which receive the CSV blocks'
text, stay resident in the caller: over 40 rounds of the benchmark's
``cohort-io`` op (2-vCPU x86_64, Python 3.11) the process peaked at 54.5 MB
with it, 50.4 MB with these pipes and 49.9 MB with no pool. fork, unlike
spawn and forkserver, re-imports no ``__main__``, so caller scripts need no
``if __name__ == "__main__":`` guard.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys

# True in a worker of this pool, whose own maps then run in-process.
_IN_WORKER = False


def workers(n_tasks: int) -> int:
    """Worker processes for ``n_tasks`` independent tasks; 1 or less means in-process.

    One per CPU this process may use, on Linux, where workers are forked.
    A worker of this pool, or a daemonic multiprocessing worker (which may
    not start children), works in-process; a process that never imported
    multiprocessing is not the latter.
    """
    if sys.platform != "linux" or _IN_WORKER:
        return 1
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return 1
    return min(len(os.sched_getaffinity(0)), n_tasks)


def _send(fd: int, obj) -> None:
    """Write ``obj`` to ``fd``: its pickle's length in 8 bytes, then the pickle."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    os.write(fd, len(data).to_bytes(8, "little"))  # a pipe writes 8 bytes whole
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, n: int) -> bytearray | None:
    """Exactly ``n`` bytes from ``fd``, or None if it ends first."""
    buf = bytearray(n)
    view = memoryview(buf)
    while view:
        got = os.readv(fd, [view])
        if got == 0:
            return None
        view = view[got:]
    return buf


def _receive(fd: int):
    """The next object ``_send`` wrote to ``fd``, or None if the writer is
    gone or the object does not unpickle."""
    header = _read(fd, 8)
    data = None if header is None else _read(fd, int.from_bytes(header, "little"))
    try:
        return None if data is None else pickle.loads(data)
    except Exception:
        return None


def _serve(fn, tasks: int, results: int) -> None:
    """A worker's loop: for each ``(index, task)`` until the task pipe ends,
    send ``(index, fn(task))``. An exception ends the worker."""
    while (message := _receive(tasks)) is not None:
        index, task = message
        _send(results, (index, fn(task)))


def fork_map(fn, tasks, n_workers: int):
    """Yield ``fn(task)`` for each of ``tasks``, in order: what ``map`` yields.

    With ``n_workers`` above 1 the calls run in that many processes forked
    for this map, each handed its next task when it returns a result. ``fn``
    need not pickle, as the workers inherit it. If the pool cannot start, or
    fails (a worker dies, ``fn`` raises in a worker, or a task or result does
    not pickle or unpickle), every worker is killed and reaped, and this
    process finishes the map: from the first result not yet yielded, it
    yields the results already received and calls ``fn`` for the rest. So an
    exception ``fn`` raises is raised here, by this process's own call, when
    its result is due. However the map ends, no worker outlives it.
    """
    tasks = list(tasks)
    done = {}  # task index -> result, for results not yet yielded
    due = 0
    pids, task_fds, result_fds = [], [], []  # per worker
    try:
        try:
            for _ in range(n_workers if n_workers > 1 else 0):
                _start_worker(fn, pids, task_fds, result_fds)
        except OSError:  # out of pipes or processes: the map runs in-process
            _stop(pids, task_fds, result_fds)
        for index, value in _pooled(tasks, task_fds, result_fds):
            done[index] = value
            while due in done:
                value = done.pop(due)
                due += 1
                yield value
    finally:
        _stop(pids, task_fds, result_fds)
    for index in range(due, len(tasks)):
        yield done.pop(index) if index in done else fn(tasks[index])


def _pooled(tasks: list, task_fds: list, result_fds: list):
    """Yield ``(index, fn(task))`` for ``tasks`` as the workers return them.
    Ends when every task is returned, or at the pool's first failure."""
    pending = enumerate(tasks)
    idle = list(range(len(task_fds)))
    running = {}  # result fd -> its worker, for workers with a task
    poller = select.poll()
    while True:
        while idle and (task := next(pending, None)) is not None:
            worker = idle.pop()
            try:
                _send(task_fds[worker], task)
            except Exception:  # a dead worker, or a task that does not pickle
                return
            running[result_fds[worker]] = worker
            poller.register(result_fds[worker], select.POLLIN)
        if not running:
            return
        for fd, _ in poller.poll():
            idle.append(running.pop(fd))
            poller.unregister(fd)
            message = _receive(fd)
            if message is None:
                return
            yield message


def _start_worker(fn, pids: list, task_fds: list, result_fds: list) -> None:
    """Fork a worker that serves ``fn``; append its pid and the parent's ends
    of its task and result pipes. Raises OSError, with no fd left open, if
    the pipes or the process cannot be had."""
    tasks_r, tasks_w = os.pipe()
    try:
        results_r, results_w = os.pipe()
    except OSError:
        os.close(tasks_r)
        os.close(tasks_w)
        raise
    try:
        pid = os.fork()
    except OSError:
        for fd in (tasks_r, tasks_w, results_r, results_w):
            os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            # An earlier worker's task pipe held open here would never end.
            for fd in (tasks_w, results_r, *task_fds, *result_fds):
                os.close(fd)
            global _IN_WORKER
            _IN_WORKER = True
            _serve(fn, tasks_r, results_w)
            code = 0
        finally:
            os._exit(code)
    os.close(tasks_r)
    os.close(results_w)
    pids.append(pid)
    task_fds.append(tasks_w)
    result_fds.append(results_r)


def _stop(pids: list, task_fds: list, result_fds: list) -> None:
    """Close the pipes, kill and reap the workers, and empty the lists."""
    for fd in task_fds + result_fds:
        os.close(fd)
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # reaped already, as when the caller ignores SIGCHLD
    for worker_list in (pids, task_fds, result_fds):
        worker_list.clear()
