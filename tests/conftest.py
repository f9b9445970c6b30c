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
