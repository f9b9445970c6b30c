import os

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
