from fractions import Fraction

import numpy as np
import pytest

from mlpinit.errors import ValidationError
from mlpinit.evaluation import accumulate_confusion, summarize
from mlpinit.numerics import Rng


def brute_force_metrics(preds, labels):
    """Independent recount straight from the raw pairs, in exact rationals."""
    out = []
    for c in range(4):
        tp = sum(1 for p, t in zip(preds, labels) if p == c and t == c)
        fp = sum(1 for p, t in zip(preds, labels) if p == c and t != c)
        fn = sum(1 for p, t in zip(preds, labels) if p != c and t == c)
        precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else Fraction(0)
        )
        out.append((precision, recall, f1))
    return out


def random_pairs(rng, n):
    preds = np.array([rng.randbelow(4) for _ in range(n)])
    labels = np.array([rng.randbelow(4) for _ in range(n)])
    return preds, labels


class TestAccumulate:
    def test_perfect_predictions_are_diagonal(self):
        labels = np.array([0, 1, 2, 3, 2, 1])
        cm = accumulate_confusion(labels, labels)
        assert np.trace(cm) == 6
        np.testing.assert_array_equal(cm, np.diag([1, 2, 2, 1]))
        assert summarize(cm).accuracy == 1.0

    def test_constant_predictor_on_balanced_labels(self):
        labels = np.repeat([0, 1, 2, 3], 10)
        preds = np.zeros(40, dtype=int)
        cm = accumulate_confusion(preds, labels)
        assert cm[:, 0].sum() == 40
        assert cm[:, 1:].sum() == 0
        assert summarize(cm).accuracy == 0.25

    def test_single_pair(self):
        cm = accumulate_confusion([3], [2])
        expected = np.zeros((4, 4), dtype=int)
        expected[2, 3] = 1
        np.testing.assert_array_equal(cm, expected)

    def test_validation(self):
        with pytest.raises(ValidationError):
            accumulate_confusion([0, 1], [0])
        with pytest.raises(ValidationError):
            accumulate_confusion([0, 4], [0, 1])
        with pytest.raises(ValidationError):
            accumulate_confusion([0, -1], [0, 1])

    @pytest.mark.parametrize("preds, labels", [
        ([0.9, 1.7], [0, 1]),
        ([0, 1], [0.9, 1.7]),
        (["0", "1"], [0, 1]),
        ([True, False], [0, 1]),
        ([0, 1], [True, False]),
    ])
    def test_non_integer_classes_rejected(self, preds, labels):
        with pytest.raises(ValidationError, match="must be integers"):
            accumulate_confusion(preds, labels)

    def test_confusion_matrix_takes_integer_classes_of_any_width(self):
        for dtype in (np.uint8, np.int32, np.int64):
            classes = np.repeat(np.arange(4, dtype=dtype), 3)
            cm = accumulate_confusion(classes, classes)
            assert cm.shape == (4, 4) and cm.dtype == np.int64 and cm.sum() == 12


class TestPerClassMetrics:
    def test_published_spot_value_f1(self, confusion_from_counts):
        # TP=267, FP=33, FN=623 give precision 0.89 and recall 0.30 exactly;
        # the published rounded F1 for that row is 0.45
        counts = np.zeros((4, 4), dtype=int)
        counts[0, 0] = 267
        counts[1, 0] = 33
        counts[0, 1] = 623
        metrics = summarize(confusion_from_counts(counts)).per_class[0]
        assert metrics.precision == pytest.approx(0.89, abs=1e-12)
        assert metrics.recall == pytest.approx(0.30, abs=1e-12)
        assert metrics.f1 == pytest.approx(2 * 0.89 * 0.30 / 1.19, abs=1e-12)
        assert metrics.f1 == pytest.approx(0.45, abs=0.005)

    def test_empty_class_uses_zero_convention(self, confusion_from_counts):
        counts = np.zeros((4, 4), dtype=int)
        counts[0, 0] = 5
        metrics = summarize(confusion_from_counts(counts)).per_class
        for c in (1, 2, 3):
            assert metrics[c].precision == 0.0
            assert metrics[c].recall == 0.0
            assert metrics[c].f1 == 0.0
            assert metrics[c].support == 0

    def test_hand_counted_two_class_case(self, confusion_from_counts):
        # [[2,1],[0,3]] padded with empty classes:
        # class 0 has TP=2, FP=0, FN=1
        counts = np.zeros((4, 4), dtype=int)
        counts[0, 0] = 2
        counts[0, 1] = 1
        counts[1, 1] = 3
        m0 = summarize(confusion_from_counts(counts)).per_class[0]
        assert m0.precision == 1.0
        assert m0.recall == pytest.approx(2 / 3)
        assert m0.f1 == pytest.approx(0.8)


class TestSummarize:
    def test_published_macro_precision(self, confusion_from_counts):
        # per-class precisions {0.89, 0.08, 0, 0.38}; the published Average is 0.34
        counts = np.zeros((4, 4), dtype=int)
        counts[0, 0] = 267  # 267/300 = 0.89
        counts[1, 0] = 33
        counts[1, 1] = 8  # 8/100 = 0.08
        counts[2, 1] = 92
        counts[2, 2] = 0  # never predicted: 0/0 -> 0
        counts[3, 3] = 38  # 38/100 = 0.38
        counts[0, 3] = 62
        report = summarize(confusion_from_counts(counts))
        per_p = [m.precision for m in report.per_class]
        np.testing.assert_allclose(per_p, [0.89, 0.08, 0.0, 0.38], atol=1e-12)
        assert report.macro_precision == pytest.approx((0.89 + 0.08 + 0 + 0.38) / 4, abs=1e-12)
        assert report.macro_precision == pytest.approx(0.34, abs=0.005)

    def test_perfect_diagonal(self, confusion_from_counts):
        cm = confusion_from_counts(np.diag([3, 4, 5, 6]))
        report = summarize(cm)
        assert report.accuracy == 1.0
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        assert report.macro_f1 == 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValidationError):
            summarize(np.zeros((4, 4), dtype=np.int64))

    @pytest.mark.parametrize("counts, match", [
        (np.ones((3, 4), dtype=np.int64), "shape"),
        (np.ones(16, dtype=np.int64), "shape"),
        (np.ones((4, 4, 1), dtype=np.int64), "shape"),
        (np.ones((4, 4)), "must be integers"),
        (np.ones((4, 4), dtype=bool), "must be integers"),
        ([["1"] * 4] * 4, "must be integers"),
        (np.diag([3, -1, 2, 2]), "negative"),
        (np.zeros((4, 4), dtype=np.uint8), "empty"),
    ], ids=["3x4", "flat", "4x4x1", "float", "bool", "strings", "negative", "all-zero"])
    def test_rejects_anything_but_nonempty_integer_counts(self, counts, match):
        with pytest.raises(ValidationError, match=match):
            summarize(counts)

    def test_a_total_that_overflows_int64_is_named(self):
        # 16 cells of 2**59 - 1 total 2**63 - 16, which int64 holds; at 2**59
        # the int64 sum would wrap to -2**63 and read as an empty matrix
        report = summarize(np.full((4, 4), 2**59 - 1, dtype=np.int64))
        assert report.total == 2**63 - 16 and report.accuracy == 0.25
        overflow = f"^confusion counts total {2**63}, which overflows int64$"
        with pytest.raises(ValidationError, match=overflow):
            summarize(np.full((4, 4), 2**59, dtype=np.int64))

    def test_takes_counts_of_any_integer_width(self):
        counts = np.diag([3, 4, 5, 6])
        want = summarize(counts.astype(np.int64))
        for dtype in (np.uint8, np.int32, np.uint64):
            assert summarize(counts.astype(dtype)) == want
        assert summarize(counts.tolist()) == want

    def test_brute_force_oracle_on_random_cases(self):
        rng = Rng(424242)
        for _ in range(1000):
            n = 1 + rng.randbelow(60)
            preds, labels = random_pairs(rng, n)
            report = summarize(accumulate_confusion(preds, labels))
            oracle = brute_force_metrics(preds, labels)
            for c in range(4):
                p, r, f1 = oracle[c]
                assert abs(report.per_class[c].precision - float(p)) <= 1e-12
                assert abs(report.per_class[c].recall - float(r)) <= 1e-12
                assert abs(report.per_class[c].f1 - float(f1)) <= 1e-12
            # accuracy == trace/total, and equals micro-averaged recall
            correct = sum(1 for p_, t in zip(preds, labels) if p_ == t)
            assert report.accuracy == correct / n
            micro_recall = Fraction(correct, n)
            assert abs(report.accuracy - float(micro_recall)) <= 1e-12

    def test_permutation_invariance(self):
        rng = Rng(7)
        preds, labels = random_pairs(rng, 50)
        base = summarize(accumulate_confusion(preds, labels))
        perm = rng.permutation(50)
        shuffled = summarize(accumulate_confusion(preds[perm], labels[perm]))
        assert base == shuffled


class TestPaperAverageRows:
    """Recompute the published Average rows from the published per-class cells."""

    ROWS = {
        # (per-class precisions, recalls, f1s), printed (P, R, F1) averages
        "one_layer_xavier": (
            ([0.38, 0.38, 0.43, 0.44], [0.36, 0.40, 0.42, 0.44], [0.37, 0.39, 0.42, 0.44]),
            (0.41, 0.41, 0.41),
        ),
        "one_layer_kaiming": (
            ([0.89, 0.08, 0.0, 0.38], [0.30, 0.32, 0.0, 0.48], [0.45, 0.13, 0.0, 0.43]),
            (0.34, 0.28, 0.25),
        ),
        "two_layer_kaiming": (
            ([0.51, 0.49, 0.50, 0.57], [0.48, 0.58, 0.47, 0.56], [0.50, 0.53, 0.49, 0.57]),
            (0.52, 0.52, 0.52),
        ),
        "three_layer_xavier": (
            ([0.54, 0.66, 0.56, 0.56], [0.52, 0.61, 0.53, 0.68], [0.53, 0.63, 0.54, 0.61]),
            (0.58, 0.58, 0.58),
        ),
        "three_layer_kaiming": (
            ([0.74, 0.89, 0.82, 0.87], [0.78, 0.85, 0.80, 0.89], [0.76, 0.87, 0.81, 0.88]),
            (0.83, 0.83, 0.83),
        ),
    }

    @pytest.mark.parametrize("name", list(ROWS))
    def test_macro_matches_published_average(self, name):
        (per_p, per_r, per_f), printed = self.ROWS[name]
        computed = (sum(per_p) / 4, sum(per_r) / 4, sum(per_f) / 4)
        for got, want in zip(computed, printed):
            assert abs(got - want) <= 0.005 + 1e-12

    def test_two_layer_xavier_average_cells_are_transposed(self):
        # This one published Average row disagrees with its own per-class
        # values; the computed recall matches the printed precision cell and
        # vice versa, so the two cells were evidently swapped in print.
        per_p = [0.55, 0.62, 0.52, 0.45]
        per_r = [0.53, 0.51, 0.49, 0.67]
        printed_p, printed_r = 0.55, 0.54
        assert abs(sum(per_r) / 4 - printed_p) <= 0.005 + 1e-12
        assert abs(sum(per_p) / 4 - printed_r) <= 0.005 + 1e-12
        # and F1 is consistent as printed
        per_f = [0.54, 0.56, 0.50, 0.54]
        assert abs(sum(per_f) / 4 - 0.54) <= 0.005 + 1e-12
