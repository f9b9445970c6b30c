import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from mlpinit import _pool, data
from mlpinit.data import (
    CSV_HEADER,
    FEATURE_NAMES,
    LABEL_NAMES,
    N_CLASSES,
    Dataset,
    holdout_split,
    load_csv,
    loo_splits,
    save_csv,
    standardize,
    synthesize_dataset,
)
from mlpinit.errors import DataError, FormatError, ParseError, ValidationError
from mlpinit.harness import SyntheticSpec
from mlpinit.numerics import Rng

DEFAULT_COHORT = asdict(SyntheticSpec())
SRC = str(Path(__file__).resolve().parent.parent / "src")

# The pool forks on Linux only; tests that force it need the fork start method.
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)

# import mlpinit, then a CSV round trip of the default cohort, which is
# below two blocks each way: whether multiprocessing's pool modules were
# imported.
NO_POOL_CSV_PROBE = """
import sys
import mlpinit

written = mlpinit.synthesize_dataset(3, 16, 12, 2.0)
mlpinit.save_csv(written, sys.argv[1])
assert mlpinit.load_csv(sys.argv[1]).features.tobytes() == written.features.tobytes()
print("multiprocessing" in sys.modules, "concurrent.futures.process" in sys.modules)
"""

def _csv_round_trip(path) -> int:
    """Save and reload a 12-row dataset; how many processes that forked,
    as the ``forks`` fixture's ``os.fork`` counts them. Module-level, so
    that a multiprocessing pool can pickle it."""
    before = len(os.fork.pids)
    written = tiny_dataset(12)
    save_csv(written, path)
    assert load_csv(path).features.tobytes() == written.features.tobytes()
    return len(os.fork.pids) - before


def tiny_dataset(n=8, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.normal(size=(n, 85)),
        np.arange(n) % 4,
        np.arange(n) // 4,
    )


class TestSynthesize:
    def test_default_shape(self):
        ds = synthesize_dataset(seed=3, **DEFAULT_COHORT)
        assert len(ds) == 192
        assert len(set(ds.participants.tolist())) == 16
        np.testing.assert_array_equal(np.bincount(ds.labels, minlength=N_CLASSES), [48, 48, 48, 48])

    def test_every_participant_covers_all_classes(self):
        ds = synthesize_dataset(seed=3, **DEFAULT_COHORT)
        for p in range(16):
            labels = set(ds.labels[ds.participants == p].tolist())
            assert labels == {0, 1, 2, 3}

    def test_deterministic(self):
        a = synthesize_dataset(seed=11, **DEFAULT_COHORT)
        b = synthesize_dataset(seed=11, **DEFAULT_COHORT)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = synthesize_dataset(seed=1, **DEFAULT_COHORT)
        b = synthesize_dataset(seed=2, **DEFAULT_COHORT)
        assert not np.array_equal(a.features, b.features)

    def test_custom_shape(self):
        ds = synthesize_dataset(0, 4, 8, 2.0)
        assert len(ds) == 32
        np.testing.assert_array_equal(np.bincount(ds.labels, minlength=N_CLASSES), [8, 8, 8, 8])

    @pytest.mark.parametrize(
        "seed, participants, records, separation",
        [(0, 16, 12, 2.0), (2**64 - 1, 3, 5, 0.5), (9, 2, 1, 0.0), (4, 7, 9, 3.0),
         (5, 40, 13, 1.0)],  # 520 rows: two full noise blocks and a partial one
    )
    def test_matches_the_record_by_record_reference(
        self, seed, participants, records, separation
    ):
        # reference: one Rng.normal call per class, participant and record
        rng = Rng(seed)
        means = []
        for c in range(4):
            direction = rng.normal(85)
            direction /= np.linalg.norm(direction)
            means.append(direction * (separation * c / 3.0))
        offsets = [rng.normal(85, 0.0, (0.2 / np.sqrt(85)) ** 2) for _ in range(participants)]
        rows, labels, pids = [], [], []
        for p in range(participants):
            for r in range(records):
                noise = rng.normal(85, 0.0, (0.2 / np.sqrt(85)) ** 2)
                rows.append(means[r % 4] + offsets[p] + noise)
                labels.append(r % 4)
                pids.append(p)
        ds = synthesize_dataset(seed, participants, records, separation)
        assert ds.features.tobytes() == np.array(rows).tobytes()
        assert ds.labels.tolist() == labels and ds.participants.tolist() == pids

    def test_validation(self):
        with pytest.raises(ValidationError):
            synthesize_dataset(0, 1, 12, 2.0)
        with pytest.raises(ValidationError):
            synthesize_dataset(0, 16, 0, 2.0)
        with pytest.raises(ValidationError):
            synthesize_dataset(0, 16, 12, -0.5)

    @pytest.mark.parametrize("separation", [np.nan, np.inf, -np.inf])
    def test_non_finite_separation_rejected_naming_it(self, separation):
        with pytest.raises(ValidationError, match="^separation must be finite and nonneg"):
            synthesize_dataset(0, 16, 12, separation)


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = synthesize_dataset(5, 3, 4, 2.0)
        path = tmp_path / "cohort.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        np.testing.assert_array_equal(loaded.participants, ds.participants)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_a_fifo_loads_as_the_regular_file_does(self, tmp_path, fifo):
        path = tmp_path / "cohort.csv"
        save_csv(synthesize_dataset(3, **DEFAULT_COHORT), path)
        regular = load_csv(path)
        streamed = load_csv(fifo(path.read_bytes()))
        for name in ("features", "labels", "participants"):
            assert getattr(streamed, name).tobytes() == getattr(regular, name).tobytes()

    def test_label_tokens_and_integers(self, tmp_path):
        feats = ",".join(["0.5"] * 85)
        lines = [",".join(CSV_HEADER)]
        lines.append(f"1,Mild,{feats}")
        lines.append(f"1,3,{feats}")
        path = tmp_path / "ok.csv"
        path.write_text("\n".join(lines) + "\n")
        ds = load_csv(path)
        assert ds.labels.tolist() == [1, 3]

    def test_crlf_accepted(self, tmp_path):
        feats = ",".join(["1.0"] * 85)
        content = ",".join(CSV_HEADER) + "\r\n" + f"2,None,{feats}\r\n"
        path = tmp_path / "crlf.csv"
        path.write_bytes(content.encode())
        ds = load_csv(path)
        assert len(ds) == 1
        assert ds.labels[0] == 0

    def test_wrong_feature_count_in_header(self, tmp_path):
        header = ",".join(("participant", "label") + FEATURE_NAMES[:-1])
        path = tmp_path / "short.csv"
        path.write_text(header + "\n")
        with pytest.raises(FormatError, match="84 feature columns.*85"):
            load_csv(path)

    def test_wrong_column_count_names_row(self, tmp_path):
        feats = ",".join(["1.0"] * 85)
        lines = [",".join(CSV_HEADER), f"1,None,{feats}", "1,Mild,0.5"]
        path = tmp_path / "ragged.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="row 3"):
            load_csv(path)

    def test_bad_feature_names_row_and_column(self, tmp_path):
        cells = ["1.0"] * 85
        cells[7] = "oops"
        lines = [",".join(CSV_HEADER), "1,None," + ",".join(cells)]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="row 2.*gsr_07"):
            load_csv(path)

    def test_unknown_label_token(self, tmp_path):
        feats = ",".join(["1.0"] * 85)
        lines = [",".join(CSV_HEADER), f"1,severe,{feats}"]  # case-sensitive
        path = tmp_path / "label.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="row 2.*'severe'"):
            load_csv(path)

    def test_participant_outside_int64_names_row_and_column(self, tmp_path):
        feats = ",".join(["1.0"] * 85)
        lines = [",".join(CSV_HEADER), f"1,None,{feats}", f"{2**63},None,{feats}"]
        path = tmp_path / "big_id.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="row 3, column 'participant'.*int64"):
            load_csv(path)
        lines[2] = f"{-(2**63)},None,{feats}"  # the lowest int64 still loads
        path.write_text("\n".join(lines) + "\n")
        assert load_csv(path).participants.tolist() == [1, -(2**63)]

    def test_non_finite_feature_rejected(self, tmp_path):
        cells = ["1.0"] * 85
        cells[84] = "nan"
        lines = [",".join(CSV_HEADER), "1,None," + ",".join(cells)]
        path = tmp_path / "nan.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="st_22"):
            load_csv(path)

    def test_invalid_utf8_names_file_and_byte_offset(self, tmp_path):
        header = ",".join(CSV_HEADER).encode()
        row = b"1,None," + b",".join([b"1.0"] * 84) + b",\xff1.0\n"
        path = tmp_path / "latin.csv"
        path.write_bytes(header + b"\n" + row)
        offset = len(header) + 1 + row.index(b"\xff")
        with pytest.raises(FormatError, match=rf"latin\.csv: not UTF-8 .* offset {offset}$"):
            load_csv(path)

    def test_underscore_in_a_number_names_row_and_column(self, tmp_path):
        # int("1_0") is 10 and float("1_0.5") is 10.5 in Python
        feats = ["1.0"] * 85
        feats[3] = "1_0.5"
        lines = [",".join(CSV_HEADER), "1,None," + ",".join(["1.0"] * 85),
                 "2,Mild," + ",".join(feats)]
        path = tmp_path / "underscore.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"row 3, column 'gsr_03': '1_0\.5'"):
            load_csv(path)
        lines[2] = "1_0,Mild," + ",".join(["1.0"] * 85)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"row 3, column 'participant': '1_0'"):
            load_csv(path)
        lines[2] = "2,0_1," + ",".join(["1.0"] * 85)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"row 3, column 'label': '0_1'"):
            load_csv(path)

    @pytest.mark.parametrize(
        "case",
        ["bom", "blank_line", "nan", "inf", "-inf", "1e999", "short_row", "long_row"],
    )
    def test_malformed_csv_raises_a_data_error(self, tmp_path, case):
        row = "1,None," + ",".join(["1.0"] * 85)
        lines = [",".join(CSV_HEADER), row, row, row]
        if case == "bom":
            lines[0] = "\ufeff" + lines[0]
        elif case == "blank_line":
            lines[2] = ""
        elif case in ("nan", "inf", "-inf", "1e999"):
            lines[2] = "1,None," + ",".join(["1.0"] * 40 + [case] + ["1.0"] * 44)
        elif case == "short_row":
            lines[2] = row.rsplit(",", 1)[0]
        else:
            lines[2] = row + ",1.0"
        path = tmp_path / "fuzz.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        with pytest.raises(DataError):
            load_csv(path)

    def test_earlier_non_finite_row_wins_over_later_non_number(self, tmp_path):
        cells = ["1.0"] * 85
        cells[10] = "inf"
        later = ["1.0"] * 85
        later[3] = "oops"
        lines = [",".join(CSV_HEADER), "1,None," + ",".join(["1.0"] * 85),
                 "1,Mild," + ",".join(cells), "2,Severe," + ",".join(later)]
        path = tmp_path / "order.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"^row 3, column 'gsr_10': value is not finite$"):
            load_csv(path)
        # a row of the wrong width after the non-finite one loses too
        lines[3] = "2,Severe,1.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"^row 3, column 'gsr_10': value is not finite$"):
            load_csv(path)

    def test_non_number_wins_over_earlier_inf_in_its_row(self, tmp_path):
        cells = ["1.0"] * 85
        cells[2] = "-inf"
        cells[60] = "1.0.0"
        lines = [",".join(CSV_HEADER), "1,None," + ",".join(["1.0"] * 85),
                 "1,Mild," + ",".join(cells)]
        path = tmp_path / "row.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            ParseError, match=rf"^row 3, column '{FEATURE_NAMES[60]}': '1\.0\.0' is not a number$"
        ):
            load_csv(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_save_rejects_non_finite_features_before_writing(self, tmp_path, value):
        ds = tiny_dataset()
        features = ds.features.copy()
        features[5, 40] = value
        features[6, 2] = np.nan
        path = tmp_path / "bad.csv"
        with pytest.raises(
            ValidationError, match=rf"^row 7, column '{FEATURE_NAMES[40]}': value is not finite$"
        ):
            save_csv(Dataset(features, ds.labels, ds.participants), path)
        assert not path.exists()

    def test_header_only_is_an_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(CSV_HEADER) + "\n")
        with pytest.raises(FormatError, match="no data rows"):
            load_csv(path)


def traced_peak(fn):
    """``fn()`` and the peak bytes that tracemalloc saw allocated during the call.

    numpy registers its data buffers with tracemalloc, so the peak counts
    arrays as well as Python objects, and repeats exactly from run to run.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory):
    """The 4,608-row cohort of the cohort-io benchmark workload, as a CSV."""
    path = tmp_path_factory.mktemp("wide") / "cohort.csv"
    save_csv(synthesize_dataset(7, 384, 12, 2.0), path)
    return path


class TestPeakMemory:
    def test_load_csv_holds_about_its_output(self, wide_csv):
        ds, peak = traced_peak(lambda: load_csv(wide_csv))
        assert len(ds) == 4608
        assert peak <= 1.5 * ds.features.nbytes

    def test_load_csv_of_a_small_file_stays_small(self, tmp_path):
        # the read buffer must not dominate: 48 rows are 33 KB of features
        path = tmp_path / "small.csv"
        save_csv(synthesize_dataset(7, 4, 12, 2.0), path)
        ds, peak = traced_peak(lambda: load_csv(path))
        assert len(ds) == 48
        assert peak <= 96 * 1024

    def test_save_csv_never_holds_the_file(self, tmp_path, monkeypatch):
        # The parent writes each block's text as it arrives, in-process and
        # from the pool alike.
        written = synthesize_dataset(7, 384, 12, 2.0)
        for workers in (1, 2):
            monkeypatch.setattr(_pool, "workers", lambda n_tasks: workers)
            _, peak = traced_peak(lambda: save_csv(written, tmp_path / "cohort.csv"))
            assert peak <= 0.5 * written.features.nbytes, workers

    def test_synthesize_holds_about_its_output(self):
        ds, peak = traced_peak(lambda: synthesize_dataset(7, 384, 12, 2.0))
        assert peak <= 1.5 * ds.features.nbytes

    def test_standardize_makes_no_temporary_per_split(self, wide_csv):
        ds = load_csv(wide_csv)
        # two outputs of the train split's size; the std's own pass needs one
        _, peak = traced_peak(lambda: standardize(ds, ds))
        assert peak <= 2.25 * ds.features.nbytes


def reference_save_csv(dataset, path):
    """``save_csv`` as a loop that wrote each line as it formatted it, kept
    as the oracle of the bytes that the block writer must reproduce."""
    labels = [LABEL_NAMES[k] for k in dataset.labels.tolist()]
    with open(path, "w", encoding="utf-8") as out:
        out.write(",".join(CSV_HEADER) + "\n")
        for participant, label, row in zip(
            dataset.participants.tolist(), labels, dataset.features
        ):
            out.write(f"{participant},{label},{','.join(map(repr, row.tolist()))}\n")


def _dies_in_a_worker(parent, real):
    """``real``, but a worker process that calls it dies."""

    def fn(task):
        if os.getpid() != parent:
            os._exit(7)
        return real(task)

    return fn


class TestCsvPool:
    @needs_fork
    def test_pool_writes_the_reference_bytes(self, tmp_path, monkeypatch, forks):
        # 11 rows in blocks of at least 3: three blocks of 4, 4 and 3 rows
        written = tiny_dataset(11)
        reference_save_csv(written, tmp_path / "reference.csv")
        monkeypatch.setattr(data, "_CSV_BLOCK_ROWS", 3)
        for workers in (1, 2):
            monkeypatch.setattr(_pool, "workers", lambda n_tasks: workers)
            forks.clear()
            save_csv(written, tmp_path / "cohort.csv")
            assert (tmp_path / "cohort.csv").read_bytes() == (
                tmp_path / "reference.csv").read_bytes(), workers
            assert len(forks) == (0 if workers == 1 else 2)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_pool_writes_and_reads_the_wide_cohort(self, tmp_path, monkeypatch, forks):
        written = synthesize_dataset(7, 384, 12, 2.0)
        reference_save_csv(written, tmp_path / "reference.csv")
        for workers in (1, 2):
            monkeypatch.setattr(_pool, "workers", lambda n_tasks: workers)
            forks.clear()
            save_csv(written, tmp_path / "cohort.csv")
            assert (tmp_path / "cohort.csv").read_bytes() == (
                tmp_path / "reference.csv").read_bytes(), workers
            loaded = load_csv(tmp_path / "cohort.csv")
            assert loaded.features.tobytes() == written.features.tobytes()
            assert len(forks) == (0 if workers == 1 else 4)  # two workers per map

    @needs_fork
    @pytest.mark.skipif(sys.platform != "linux", reason="the pool forks on Linux only")
    def test_a_file_of_two_blocks_forks_two_workers_and_a_shorter_one_none(
        self, tmp_path, monkeypatch, forks
    ):
        # Each call forks the workers its number of blocks gives, at two CPUs.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        rows = 3
        monkeypatch.setattr(data, "_CSV_BLOCK_ROWS", rows)
        for n_rows, n_forks in ((2 * rows - 1, 0), (2 * rows, 2)):
            written = tiny_dataset(n_rows)
            reference_save_csv(written, tmp_path / "reference.csv")
            forks.clear()
            save_csv(written, tmp_path / "cohort.csv")
            assert len(forks) == n_forks, n_rows
            assert (tmp_path / "cohort.csv").read_bytes() == (
                tmp_path / "reference.csv").read_bytes()
        # Two files one byte apart, as participant 0 becomes 10: at a block
        # size B of half the size, rounded up, the odd one is 2B - 1 bytes and
        # the even one 2B.
        written = tiny_dataset(8)
        longer = Dataset(written.features, written.labels, written.participants.copy())
        longer.participants[0] = 10
        for k, dataset in enumerate((written, longer)):
            path = tmp_path / f"cohort{k}.csv"
            reference_save_csv(dataset, path)
            size = path.stat().st_size
            monkeypatch.setattr(data, "_CSV_BLOCK_BYTES", (size + 1) // 2)
            forks.clear()
            loaded = load_csv(path)
            assert len(forks) == (0 if size % 2 else 2), size
            assert loaded.features.tobytes() == dataset.features.tobytes()
            assert loaded.participants.tolist() == dataset.participants.tolist()
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_a_dead_worker_leaves_the_file_to_the_calling_process(self, tmp_path, monkeypatch,
                                                                   forks):
        written = tiny_dataset(12)
        reference_save_csv(written, tmp_path / "reference.csv")
        monkeypatch.setattr(data, "_CSV_BLOCK_ROWS", 2)
        monkeypatch.setattr(data, "_CSV_BLOCK_BYTES", 150)
        monkeypatch.setattr(_pool, "workers", lambda n_tasks: 2)
        for name in ("_format_csv_block", "_parse_csv_block"):
            monkeypatch.setattr(data, name, _dies_in_a_worker(os.getpid(), getattr(data, name)))
        save_csv(written, tmp_path / "cohort.csv")
        assert (tmp_path / "cohort.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert load_csv(tmp_path / "cohort.csv").features.tobytes() == written.features.tobytes()
        # one pool each: the calling process finishes what the dead worker left
        assert len(forks) == 4
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_a_faulty_file_is_parsed_once(self, tmp_path, monkeypatch, forks):
        # four blocks, the last of which holds the one faulty line
        path = tmp_path / "cohort.csv"
        reference_save_csv(tiny_dataset(12), path)
        with open(path, "ab") as out:
            out.write(b"13,None,1.0\n")
        n_blocks = 4
        monkeypatch.setattr(data, "_CSV_BLOCK_BYTES", path.stat().st_size // n_blocks)
        monkeypatch.setattr(_pool, "workers", lambda n_tasks: 2)
        # the workers are forks, so each call leaves its mark in a file
        calls = tmp_path / "calls"

        def counted(mark, real):
            def fn(*args):
                with open(calls, "a") as out:
                    out.write(mark)
                return real(*args)
            return fn

        monkeypatch.setattr(data, "_parse_csv_block", counted("b", data._parse_csv_block))
        monkeypatch.setattr(data, "_parse_row", counted("r", data._parse_row))
        with pytest.raises(FormatError, match="row 14 has 3 columns, expected 87"):
            load_csv(path)
        marks = calls.read_text()
        assert marks.count("b") == n_blocks
        # each of the 13 rows once, and the faulty one again to name its row
        assert marks.count("r") == 14
        assert len(forks) == 2  # one pool

    @pytest.mark.skipif(sys.platform != "linux", reason="the pool forks on Linux only")
    def test_one_cpu_or_a_daemonic_worker_stays_in_process(self, tmp_path, monkeypatch, forks):
        # 12 rows in blocks of 2, and 150-byte load blocks: six blocks or more
        monkeypatch.setattr(data, "_CSV_BLOCK_ROWS", 2)
        monkeypatch.setattr(data, "_CSV_BLOCK_BYTES", 150)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert _csv_round_trip(tmp_path / "two-cpus.csv") == 4  # two workers per call
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert _csv_round_trip(tmp_path / "one-cpu.csv") == 0
        assert multiprocessing.active_children() == []
        # multiprocessing.Pool workers are daemonic and may not start children
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(_csv_round_trip, (tmp_path / "daemon.csv",)).get(60) == 0
        assert multiprocessing.active_children() == []

    def test_small_round_trip_never_imports_multiprocessing(self, tmp_path):
        done = subprocess.run(
            [sys.executable, "-c", NO_POOL_CSV_PROBE, str(tmp_path / "cohort.csv")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "False"]


class TestStandardize:
    def test_train_becomes_zero_mean_unit_std(self):
        ds = synthesize_dataset(seed=9, **DEFAULT_COHORT)
        (std_ds,), mean, std = standardize(ds)
        np.testing.assert_allclose(std_ds.features.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(std_ds.features.std(axis=0), 1.0, atol=1e-10)
        assert mean.shape == (85,) and std.shape == (85,)

    def test_constant_feature_maps_to_zero(self):
        ds = tiny_dataset()
        ds.features[:, 3] = 7.5
        (out,), _, _ = standardize(ds)
        np.testing.assert_array_equal(out.features[:, 3], 0.0)
        assert np.all(np.isfinite(out.features))

    def test_other_splits_use_train_statistics(self):
        train = tiny_dataset(seed=1)
        test = tiny_dataset(seed=2)
        (train_s, test_s), mean, std = standardize(train, test)
        expected = (test.features - mean) / std
        np.testing.assert_array_equal(test_s.features, expected)
        # standardized with train stats, not its own: means stay away from 0
        assert np.abs(test_s.features.mean(axis=0)).max() > 1e-3


class TestHoldoutSplit:
    def test_stratified_floor_counts_on_default_cohort(self):
        ds = synthesize_dataset(seed=4, **DEFAULT_COHORT)
        trainval, test = holdout_split(ds, 0.2, seed=0)
        assert len(test) == 36 and len(trainval) == 156
        np.testing.assert_array_equal(np.bincount(test.labels, minlength=N_CLASSES), [9, 9, 9, 9])
        np.testing.assert_array_equal(
            np.bincount(trainval.labels, minlength=N_CLASSES), [39, 39, 39, 39]
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_partition_disjoint_and_complete(self, seed):
        ds = synthesize_dataset(seed=8, **DEFAULT_COHORT)
        trainval, test = holdout_split(ds, 0.2, seed=seed)
        combined = np.vstack([trainval.features, test.features])
        assert combined.shape[0] == len(ds)
        # every original row appears exactly once (rows are unique floats)
        original = {row.tobytes() for row in ds.features}
        recovered = [row.tobytes() for row in combined]
        assert len(recovered) == len(set(recovered))
        assert set(recovered) == original

    def test_deterministic_per_seed(self):
        ds = synthesize_dataset(seed=8, **DEFAULT_COHORT)
        a1, b1 = holdout_split(ds, 0.2, seed=5)
        a2, b2 = holdout_split(ds, 0.2, seed=5)
        np.testing.assert_array_equal(b1.features, b2.features)
        np.testing.assert_array_equal(a1.features, a2.features)

    def test_missing_class_rejected(self):
        ds = tiny_dataset()
        three_classes = ds.subset(np.flatnonzero(ds.labels != 2))
        with pytest.raises(ValidationError, match="'Moderate'"):
            holdout_split(three_classes, 0.2, seed=0)

    def test_degenerate_floor_raises(self):
        ds = tiny_dataset(n=4)  # one sample per class
        with pytest.raises(ValidationError, match="holdout test set is empty"):
            holdout_split(ds, 0.5, seed=0)

    def test_fraction_bounds(self):
        ds = tiny_dataset()
        with pytest.raises(ValidationError):
            holdout_split(ds, 0.0, seed=0)
        with pytest.raises(ValidationError):
            holdout_split(ds, 1.0, seed=0)


class TestLooSplits:
    def test_fold_count_and_sizes(self):
        maps = list(loo_splits(12, range(12)))
        assert len(maps) == 12
        for rows in maps:
            assert rows.shape == (11,)

    def test_every_sample_held_out_exactly_once(self):
        held = [set(range(10)) - set(rows.tolist()) for rows in loo_splits(10, range(10))]
        assert held == [{k} for k in range(10)]

    def test_two_sample_case(self):
        assert [rows.tolist() for rows in loo_splits(2, [0, 1])] == [[1], [0]]

    def test_folds_may_be_any_subset_in_order(self):
        maps = loo_splits(30, np.arange(20, 30))
        for k, rows in zip(range(20, 30), maps):
            assert rows.tolist() == [r for r in range(30) if r != k]

    def test_requires_two_samples(self):
        with pytest.raises(ValidationError):
            list(loo_splits(1, [0]))

    @pytest.mark.parametrize("n_rows, folds", [
        (0, []), (5, [0, 5]), (5, [-1]), (5, [0.0]), (5.0, [0]), (True, [0]),
    ])
    def test_bad_rows_or_folds_raise_before_any_map(self, n_rows, folds):
        with pytest.raises(ValidationError):
            next(loo_splits(n_rows, folds))


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Dataset(np.zeros((2, 84)), [0, 1], [0, 0])
        with pytest.raises(ValidationError):
            Dataset(np.zeros((0, 85)), [], [])
        with pytest.raises(ValidationError):
            Dataset(np.zeros((2, 85)), [0, 9], [0, 0])

    @pytest.mark.parametrize("labels, participants", [
        ([0.7, 3.9], [1, 2]),
        ([0, 3], [1.5, 2.2]),
        (["1", "2"], [1, 2]),
        ([True, False], [1, 2]),
        ([0, 1], [True, False]),
        ([0, 1], [2**70, 1]),
        ([0, 1], ["1", "2"]),
    ])
    def test_non_integer_labels_or_participants_rejected(self, labels, participants):
        with pytest.raises(ValidationError, match="must be integers"):
            Dataset(np.zeros((2, 85)), labels, participants)

    @pytest.mark.parametrize("indices", [
        np.array([False, True, True]),
        [True, False],
        [0.9, 2.7],
        np.array([1.0, 2.0]),
        ["1", "2"],
        [],
    ], ids=["bool-mask", "bool-list", "floats", "integral-floats", "strings", "empty-list"])
    def test_subset_rejects_non_integer_indices(self, indices):
        ds = Dataset(np.zeros((3, 85)), [0, 1, 2], [7, 8, 9])
        with pytest.raises(ValidationError, match="subset indices must be integers"):
            ds.subset(indices)

    def test_subset_takes_integer_indices_of_any_width(self):
        ds = Dataset(np.zeros((3, 85)), [0, 1, 2], [7, 8, 9])
        for dtype in (np.int8, np.uint32, np.int64):
            subset = ds.subset(np.array([2, 0], dtype=dtype))
            np.testing.assert_array_equal(subset.participants, [9, 7])
