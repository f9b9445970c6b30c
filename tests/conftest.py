import os
import threading

import numpy as np
import pytest

from mlpinit.evaluation import accumulate_confusion


@pytest.fixture
def confusion_from_counts():
    """Build the ConfusionMatrix of a 4x4 table, ``counts[t][p]`` being true
    class t predicted as p, from one (pred, label) pair per count."""

    def build(counts):
        counts = np.asarray(counts)
        truth, pred = np.indices(counts.shape)
        cm = accumulate_confusion(
            np.repeat(pred.ravel(), counts.ravel()), np.repeat(truth.ravel(), counts.ravel())
        )
        assert cm.counts.tolist() == counts.tolist()
        return cm

    return build


@pytest.fixture
def dynamic_openblas():
    """Can ``OPENBLAS_CORETYPE`` force a kernel here: is numpy's BLAS an
    OpenBLAS built with DYNAMIC_ARCH?"""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas["name"] and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes that ``os.fork`` starts during the test.

    The counting ``os.fork`` keeps the list as its ``pids``. A process forked
    by it inherits both, so it can count its own forks in ``os.fork.pids``.
    """
    real_fork, pids = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    fork.pids = pids
    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def fifo(tmp_path):
    """``fifo(content)`` makes a FIFO and returns its path. A thread writes
    ``content`` for the first reader that opens it, then gives every later
    reader an end of file at once, so a reader that opens the FIFO again
    sees an empty stream instead of waiting for a writer forever."""
    done, writers = threading.Event(), []

    def feed(content: bytes):
        path = tmp_path / f"stream{len(writers)}.csv"
        os.mkfifo(path)

        def write():
            try:
                with open(path, "wb") as out:
                    out.write(content)
            except BrokenPipeError:  # the reader closed it early
                pass
            while not done.wait(0.05):
                try:
                    os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
                except OSError:  # no reader has it open
                    pass

        writers.append(threading.Thread(target=write, daemon=True))
        writers[-1].start()
        return path

    yield feed
    done.set()
    for writer in writers:
        writer.join(10)
        assert not writer.is_alive()
