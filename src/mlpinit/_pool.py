"""The one worker pool of the library: forked processes, on Linux only.

Trainings (``harness``) and CSV row blocks (``data``) are independent tasks
that map through ``fork_map``. ``workers`` decides how many processes a map
of ``n_tasks`` gets; a map that gets 1 runs in-process.

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

from .errors import WorkerError

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
    """The next object ``_send`` wrote to ``fd``, or None if the writer is gone."""
    header = _read(fd, 8)
    data = None if header is None else _read(fd, int.from_bytes(header, "little"))
    return None if data is None else pickle.loads(data)


def _serve(fn, tasks: int, results: int) -> None:
    """A worker's loop: for each ``(index, task)`` until the task pipe ends,
    send ``(index, True, fn(task))``, or ``(index, False, exception)``."""
    while (message := _receive(tasks)) is not None:
        index, task = message
        try:
            outcome = (index, True, fn(task))
        except Exception as exc:
            outcome = (index, False, exc)
        _send(results, outcome)


def fork_map(fn, tasks, n_workers: int):
    """Yield ``fn(task)`` for each of ``tasks``, in order.

    With ``n_workers`` above 1 the calls run in that many processes forked
    for this map, each handed its next task when it returns a result;
    otherwise, or if the pipes or processes cannot be had, in-process. The
    tasks, results and exceptions must pickle; ``fn`` need not, as the
    workers inherit it. An exception ``fn`` raises is raised here when its
    result is due. A worker that dies ends the map with WorkerError at the
    first result not yet yielded. However the map ends, every worker is
    killed and reaped before it returns.
    """
    pending = enumerate(tasks)
    pids, task_fds, result_fds = [], [], []  # per worker
    try:
        try:
            for _ in range(n_workers if n_workers > 1 else 0):
                _start_worker(fn, pids, task_fds, result_fds)
        except OSError:  # out of pipes or processes: the map runs in-process
            _stop(pids, task_fds, result_fds)
        if not pids:
            yield from map(fn, tasks)
            return
        idle = list(range(n_workers))
        running = {}  # result fd -> its worker, for workers with a task
        poller = select.poll()
        done = {}  # task index -> (ok, value), for results not yet yielded
        due = 0
        while True:
            while idle and (task := next(pending, None)) is not None:
                worker = idle.pop()
                try:
                    _send(task_fds[worker], task)
                except BrokenPipeError:
                    raise WorkerError(f"worker process {pids[worker]} died") from None
                running[result_fds[worker]] = worker
                poller.register(result_fds[worker], select.POLLIN)
            if not running:
                return
            for fd, _ in poller.poll():
                worker = running.pop(fd)
                poller.unregister(fd)
                message = _receive(fd)
                if message is None:
                    raise WorkerError(f"worker process {pids[worker]} died")
                index, ok, value = message
                done[index] = (ok, value)
                idle.append(worker)
            while due in done:
                ok, value = done.pop(due)
                due += 1
                if not ok:
                    raise value
                yield value
    finally:
        _stop(pids, task_fds, result_fds)


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
