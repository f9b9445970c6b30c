"""The one worker pool of the library: forked processes, on Linux only.

Trainings (``harness``) and CSV row blocks (``data``) are independent tasks
that map through ``fork_map(fn, tasks)``, the pool's whole interface. It
forks the workers that ``workers`` gives for the number of tasks; a map that
gets 1, as a map of one task does, runs in-process. A map yields what
``map`` yields: if its pool fails, the calling process finishes it. A task
that raises fails the pool too: its worker dies, and the caller runs the
task again and raises. This module is the only code that knows a worker can
die.

The pool is ``os.fork`` with one ``socket.socketpair()`` per worker, driven
from the calling thread. Each worker inherits the task list, so it is sent
only 8-byte task indices; it writes each result onto its socket with
``pickle.dump``, and the caller reads it back with ``pickle.load``, so the
pickle stream is the whole wire format. A ``ProcessPoolExecutor`` would
import about 1.1 MB of modules, and the glibc arenas of its two helper
threads, which receive the CSV blocks' text, stay resident in the caller:
in two runs of 40 ``cohort-io`` benchmark ops in one process (2-vCPU
x86_64, Python 3.11), the process peaked at 53.3-56.0 MB with an
executor, 50.9-51.1 MB with this pool and 50.7 MB with no pool. fork,
unlike spawn and forkserver, re-imports no ``__main__``, so caller scripts
need no ``if __name__ == "__main__":`` guard.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import socket
import sys
import threading


def workers(n_tasks: int) -> int:
    """Worker processes for ``n_tasks`` independent tasks; 1 or less means in-process.

    One per CPU this process may use, on Linux, where workers are forked.
    A daemonic multiprocessing worker works in-process: its pool already
    spreads work over the CPUs, and ends it by SIGTERM, which runs no
    ``finally``, so workers of its own would outlive their map. A process
    that never imported multiprocessing is no such worker.
    """
    if sys.platform != "linux":
        return 1
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return 1
    return min(len(os.sched_getaffinity(0)), n_tasks)


def _serve(fn, tasks: list, conn: socket.socket) -> None:
    """A worker's loop: for each 8-byte task index read until the parent's end
    of ``conn`` closes, pickle ``(index, fn(tasks[index]))`` onto ``conn``.
    An exception ends the worker."""
    indices, results = conn.makefile("rb"), conn.makefile("wb")
    while header := indices.read(8):
        index = int.from_bytes(header, "little")
        pickle.dump((index, fn(tasks[index])), results, pickle.HIGHEST_PROTOCOL)
        results.flush()


def fork_map(fn, tasks):
    """Yield ``fn(task)`` for each of ``tasks``, in order: what ``map`` yields.

    When ``workers`` gives more than 1 for the number of tasks, the calls
    run in that many processes forked for this map, each handed its next
    task's index when it returns a result. Neither ``fn`` nor a task need
    pickle, as the workers inherit both. If the pool cannot start, or fails
    (a worker dies, ``fn`` raises in a worker, or a result does not pickle
    or unpickle), every worker is killed and reaped, and this process
    finishes the map: from the first result not yet yielded, it yields the
    results already received and calls ``fn`` for the rest. So an exception
    ``fn`` raises is raised here, by this process's own call, when its
    result is due. However the map ends, no worker outlives it.
    """
    tasks = list(tasks)
    n_workers = workers(len(tasks))
    done = {}  # task index -> result, for results not yet yielded
    due = 0
    pool = []  # (pid, socket, reader) per worker
    # SIGINT is held until every worker is in the pool: a KeyboardInterrupt
    # raised as os.fork returns would lose that worker's pid, and with it
    # the kill and reap. Only a Python handler raises, and only in the main
    # thread, so SIGINT is held only then. A worker keeps the holding handler.
    held, previous = [], signal.getsignal(signal.SIGINT)
    main = threading.current_thread() is threading.main_thread()
    hold = n_workers > 1 and callable(previous) and main
    try:
        if hold:
            signal.signal(signal.SIGINT, lambda *_: held.append(True))
        try:
            for _ in range(n_workers if n_workers > 1 else 0):
                pool.append(_start_worker(fn, tasks, pool))
        except OSError:  # out of sockets or processes: the map runs in-process
            _stop(pool)
        finally:
            if hold:
                signal.signal(signal.SIGINT, previous)
            if held:
                signal.raise_signal(signal.SIGINT)
        for index, value in _pooled(len(tasks), pool):
            done[index] = value
            while due in done:
                value = done.pop(due)
                due += 1
                yield value
    finally:
        _stop(pool)
    for index in range(due, len(tasks)):
        yield done.pop(index) if index in done else fn(tasks[index])


def _pooled(n_tasks: int, pool: list):
    """Yield ``(index, fn(tasks[index]))`` for ``n_tasks`` tasks as the workers
    of ``pool`` return them. Ends when every task is returned, or at the
    pool's first failure.

    A reader may read ahead of the result it loads, yet never into the next
    one, and ``poll`` sees every byte it has not read: a worker writes a
    result only after it reads an index, and gets its next index only after
    that result is read.
    """
    pending = iter(range(n_tasks))
    idle = [(sock, reader) for _, sock, reader in pool]
    running = {}  # socket fd -> (socket, reader), for workers with a task
    poller = select.poll()
    while True:
        while idle and (index := next(pending, None)) is not None:
            sock, reader = idle.pop()
            try:
                sock.sendall(index.to_bytes(8, "little"))
            except OSError:  # a dead worker
                return
            running[sock.fileno()] = sock, reader
            poller.register(sock, select.POLLIN)
        if not running:
            return
        for fd, _ in poller.poll():
            sock, reader = running.pop(fd)
            idle.append((sock, reader))
            poller.unregister(fd)
            try:
                message = pickle.load(reader)
            except Exception:  # a dead worker, or a result that does not unpickle
                return
            yield message


def _start_worker(fn, tasks: list, pool: list) -> tuple:
    """Fork a worker that serves ``fn`` over ``tasks``; return its pid, the
    parent's end of its socket pair and a reader of that end. Raises OSError,
    with no fd left open, if the pair or the process cannot be had."""
    parent_end, child_end = socket.socketpair()
    try:
        pid = os.fork()
    except OSError:
        parent_end.close()
        child_end.close()
        raise
    if pid == 0:
        code = 1
        try:
            # An earlier worker's socket held open here would never end.
            parent_end.close()
            for _, sock, reader in pool:
                reader.close()
                sock.close()
            _serve(fn, tasks, child_end)
            code = 0
        finally:
            os._exit(code)
    child_end.close()
    return pid, parent_end, parent_end.makefile("rb")


def _stop(pool: list) -> None:
    """Close each worker's reader and socket (its fd stays open while a reader
    of it is), kill and reap the workers, and empty ``pool``."""
    for _, sock, reader in pool:
        reader.close()
        sock.close()
    for pid, _, _ in pool:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # reaped already, as when the caller ignores SIGCHLD
    pool.clear()
