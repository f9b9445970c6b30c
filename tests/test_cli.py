import csv
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import SRC, needs_fork, reaped, run_python

import mlpinit.cli as cli
from mlpinit.data import CSV_HEADER, load_csv
from mlpinit.errors import DivergedTrainingError


def run_cli(*args, cwd=None):
    return run_python("-m", "mlpinit.cli", *args, cwd=cwd)


def test_run_writes_all_outputs(tmp_path):
    out = tmp_path / "out"
    code = cli.main(
        [
            "run", "--topology", "2", "--init", "kaiming", "--synthetic",
            "--participants", "4", "--records", "8", "--seed", "3",
            "--epochs", "2", "--no-loo", "--out", str(out),
            "--save-model", str(tmp_path / "model.bin"),
        ]
    )
    assert code == 0
    assert (out / "result.json").exists()
    assert (out / "report.txt").exists()
    assert (out / "result.csv").exists()
    assert (tmp_path / "model.bin").exists()
    payload = json.loads((out / "result.json").read_text())
    assert payload["config"]["topology"] == 2
    assert payload["config"]["family"] == "kaiming"
    csv_lines = (out / "result.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 5  # header + one row per class


RESULT_CSV_HEADER = (
    "topology,family,dist,seed,class,precision,recall,f1,support,accuracy,"
    "macro_precision,macro_recall,macro_f1,loo_accuracy"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--topology", "3", "--init", "kaiming", "--seed", "7"],
        ["run", "--topology", "1", "--init", "xavier", "--seed", "2", "--no-loo"],
        ["suite", "--seed", "1", "--no-loo"],
    ],
    ids=["run-loo", "run-no-loo", "suite"],
)
def test_result_csv_cells_equal_result_json(tmp_path, argv):
    out = tmp_path / "out"
    code = cli.main(argv + [
        "--synthetic", "--participants", "4", "--records", "8", "--epochs", "2",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads((out / "result.json").read_text())
    results = [c["result"] for c in payload["cells"]] if "cells" in payload else [payload]
    text = (out / "result.csv").read_text()
    assert text.splitlines()[0] == RESULT_CSV_HEADER
    rows = list(csv.DictReader(text.splitlines()))
    expected = [(result, entry) for result in results for entry in result["holdout"]["per_class"]]
    assert len(rows) == len(expected) == 4 * len(results)
    for row, (result, entry) in zip(rows, expected):
        want = {
            **{k: result["config"][k] for k in ("topology", "family", "dist", "seed")},
            **entry,
            **{k: result["holdout"][k]
               for k in ("accuracy", "macro_precision", "macro_recall", "macro_f1")},
        }
        assert set(row) == set(want) | {"loo_accuracy"}
        for column, value in want.items():
            # int("2") == 2 and float(text) == value hold only for exact cells
            assert type(value)(row[column]) == value, column
        if "--no-loo" in argv:
            assert result["loo"] is None and row["loo_accuracy"] == ""
        else:
            assert float(row["loo_accuracy"]) == result["loo"]["mean_accuracy"]


def test_rerun_produces_byte_identical_result_json(tmp_path):
    args = [
        "run", "--topology", "1", "--init", "xavier", "--synthetic",
        "--participants", "4", "--records", "8", "--seed", "9",
        "--epochs", "2", "--no-loo",
    ]
    cli.main(args + ["--out", str(tmp_path / "a")])
    cli.main(args + ["--out", str(tmp_path / "b")])
    assert (tmp_path / "a/result.json").read_bytes() == (tmp_path / "b/result.json").read_bytes()


def test_suite_writes_six_cells(tmp_path):
    out = tmp_path / "suite"
    code = cli.main(
        [
            "suite", "--synthetic", "--participants", "4", "--records", "8",
            "--seed", "1", "--epochs", "2", "--no-loo", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["base_seed"] == 1
    assert len(payload["cells"]) == 6
    keys = {(c["topology"], c["family"]) for c in payload["cells"]}
    assert keys == {(t, f) for t in (1, 2, 3) for f in ("xavier", "kaiming")}
    csv_lines = (out / "result.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + 6 * 4


def test_synth_round_trips_through_loader(tmp_path):
    path = tmp_path / "cohort.csv"
    code = cli.main(
        ["synth", "--out", str(path), "--seed", "5", "--participants", "3", "--records", "4"]
    )
    assert code == 0
    ds = load_csv(path)
    assert len(ds) == 12


def test_grad_check_passes(capsys):
    code = cli.main(["grad-check", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("[ok]") == 6


def test_init_stats_json(capsys):
    code = cli.main(["init-stats", "--seed", "1", "--draws", "2000", "--json"])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert len(stats) == 16  # 4 schemes x 4 fan-ins
    for entry in stats:
        assert abs(entry["empirical_variance"] - entry["target_variance"]) < 0.2 * entry["target_variance"]


def test_init_stats_text_has_one_line_per_scheme_and_fan_in(capsys):
    assert cli.main(["init-stats", "--seed", "1", "--draws", "2000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert cli.main(["init-stats", "--seed", "1", "--draws", "2000", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert len(lines) == len(stats) == 16  # 4 schemes x 4 fan-ins
    for line, entry in zip(lines, stats):
        head = re.fullmatch(r"(\S+) +d=(\d+) +var ([\d.]+) \(target ([\d.]+)\)(.*)", line)
        assert head, line
        scheme, fan_in, var, target, tail = head.groups()
        assert (scheme, int(fan_in)) == (entry["scheme"], entry["fan_in"])
        assert (var, target) == (f"{entry['empirical_variance']:.6f}", f"{entry['target_variance']:.6f}")
        if scheme.endswith("uniform"):
            bound = re.fullmatch(r"  max\|w\| ([\d.]+) \(bound ([\d.]+)\)", tail)
            assert bound, line
            assert float(bound[1]) <= float(bound[2])
            assert bound[2] == f"{entry['bound']:.6f}"
        else:
            assert tail == ""


@pytest.mark.parametrize("draws", ["0", "-5"])
def test_init_stats_draws_below_one_is_a_config_error(draws, capsys):
    # --help rounds draws down to whole rows of the fan-in, at least one row;
    # a count below 1 is refused rather than silently raised to one row
    code = cli.main(["init-stats", "--draws", draws])
    assert code == 2
    assert "draws must be >= 1" in capsys.readouterr().err


def test_missing_data_file_exits_3(tmp_path, capsys):
    # suite as run: the data source fails the whole call, before any output
    for command in (["run", "--topology", "1", "--init", "xavier"], ["suite", "--no-loo"]):
        out = tmp_path / command[0]
        code = cli.main(command + ["--data", str(tmp_path / "missing.csv"), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith("data error: ")
        assert list(out.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_run_reads_its_data_from_a_fifo(tmp_path, fifo):
    path = tmp_path / "cohort.csv"
    assert cli.main(["synth", "--seed", "4", "--out", str(path)]) == 0
    args = ["run", "--topology", "1", "--init", "xavier", "--epochs", "2", "--no-loo"]
    assert cli.main(args + ["--data", str(path), "--out", str(tmp_path / "file")]) == 0
    stream = fifo(path.read_bytes())
    assert cli.main(args + ["--data", str(stream), "--out", str(tmp_path / "fifo")]) == 0
    from_file, from_fifo = (
        json.loads((tmp_path / out / "result.json").read_text()) for out in ("file", "fifo")
    )
    assert from_fifo["holdout"] == from_file["holdout"]


def test_non_utf8_data_file_exits_3(tmp_path, capsys):
    path = tmp_path / "cohort.csv"
    row = ",".join(["1", "None"] + ["1.0"] * 84 + ["\xff1.0"])
    path.write_bytes((",".join(CSV_HEADER) + "\n" + row + "\n").encode("latin-1"))
    code = cli.main(
        ["run", "--topology", "1", "--init", "xavier", "--data", str(path),
         "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert "row 2, column 'st_22': '\ufffd1.0' holds the byte b'\\xff'" in capsys.readouterr().err


def test_participant_id_outside_int64_exits_3(tmp_path, capsys):
    path = tmp_path / "cohort.csv"
    row = ",".join(["99999999999999999999999", "None"] + ["1.0"] * 85)
    path.write_text(",".join(CSV_HEADER) + "\n" + row + "\n")
    code = cli.main(
        ["run", "--topology", "1", "--init", "xavier", "--data", str(path),
         "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert "row 2, column 'participant'" in capsys.readouterr().err


def test_underscore_in_a_number_exits_3(tmp_path, capsys):
    path = tmp_path / "cohort.csv"
    row = ",".join(["1", "None"] + ["1.0"] * 84 + ["1_0.5"])
    path.write_text(",".join(CSV_HEADER) + "\n" + row + "\n")
    code = cli.main(
        ["run", "--topology", "1", "--init", "xavier", "--data", str(path),
         "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert "row 2, column 'st_22': '1_0.5'" in capsys.readouterr().err


def test_csv_with_byte_order_mark_exits_3(tmp_path, capsys):
    path = tmp_path / "cohort.csv"
    row = ",".join(["1", "None"] + ["1.0"] * 85)
    path.write_bytes(("\ufeff" + ",".join(CSV_HEADER) + "\n" + row + "\n").encode("utf-8"))
    code = cli.main(
        ["run", "--topology", "3", "--init", "kaiming", "--data", str(path),
         "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert "header" in capsys.readouterr().err


def test_suite_on_a_bad_csv_exits_3_and_writes_no_output(tmp_path, capsys):
    path = tmp_path / "cohort.csv"
    row = ",".join(["1", "None"] + ["1.0"] * 84 + ["nan"])
    path.write_text(",".join(CSV_HEADER) + "\n" + row + "\n")
    code = cli.main(["suite", "--data", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "row 2, column 'st_22'" in capsys.readouterr().err
    assert list((tmp_path / "o").iterdir()) == []


def test_suite_on_a_cohort_with_an_empty_class_exits_2_as_run_does(tmp_path, capsys):
    # one record per participant: a class with no sample cannot be stratified
    cohort = ["--synthetic", "--records", "1", "--no-loo", "--epochs", "1"]
    errors = []
    for command in (["run", "--topology", "1", "--init", "xavier"], ["suite"]):
        out = tmp_path / command[0]
        assert cli.main(command + cohort + ["--out", str(out)]) == 2
        errors.append(capsys.readouterr().err)
        assert list(out.iterdir()) == []
    assert errors[0] == errors[1]
    assert errors[0].startswith("config error: class 'Mild' has 0 samples")


def test_an_interrupted_write_leaves_each_output_whole_and_no_temporary(tmp_path, monkeypatch):
    out = tmp_path / "out"
    argv = ["run", "--topology", "1", "--init", "xavier", "--synthetic", "--participants", "4",
            "--records", "8", "--epochs", "2", "--no-loo"]
    assert cli.main(argv + ["--seed", "1", "--out", str(out)]) == 0
    assert cli.main(argv + ["--seed", "2", "--out", str(tmp_path / "new")]) == 0
    old = {path.name: path.read_bytes() for path in out.iterdir()}
    new = {name: (tmp_path / "new" / name).read_bytes() for name in old}
    assert sorted(old) == sorted(cli._OUTPUT_NAMES)
    assert all(old[name] != new[name] for name in old)
    real, writes = Path.write_text, []

    def interrupted(path, text, *args, **kwargs):
        # an interrupt cuts the second output's write off halfway
        writes.append(path)
        if len(writes) == 2:
            real(path, text[: len(text) // 2], *args, **kwargs)
            raise KeyboardInterrupt
        return real(path, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", interrupted)
    assert cli.main(argv + ["--seed", "2", "--out", str(out)]) == 130
    assert len(writes) == 2
    assert sorted(path.name for path in out.iterdir()) == sorted(old)
    for name in old:
        assert (out / name).read_bytes() in (old[name], new[name]), name


def test_bad_config_exits_2(tmp_path):
    code = cli.main(
        ["run", "--topology", "1", "--init", "xavier", "--synthetic",
         "--epochs", "0", "--out", str(tmp_path / "o")]
    )
    assert code == 2


def test_empty_holdout_exits_2_without_a_warning(tmp_path):
    # 2 participants x 4 records: two records per class, and floor(0.2 * 2) is 0
    result = run_cli("run", "--topology", "1", "--init", "xavier", "--synthetic",
                     "--participants", "2", "--records", "4", "--no-loo",
                     "--out", str(tmp_path / "o"))
    assert result.returncode == 2
    assert result.stderr == (
        "config error: holdout test set is empty: floor(fraction * class count) "
        "is 0 for every class\n"
    )


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_separation_exits_2(tmp_path, capsys, value):
    csv_path = tmp_path / "cohort.csv"
    for argv in (["synth", "--out", str(csv_path)],
                 ["run", "--topology", "1", "--init", "xavier", "--synthetic",
                  "--out", str(tmp_path / "o")],
                 ["suite", "--synthetic", "--out", str(tmp_path / "o")]):
        code = cli.main(argv + ["--separation", value])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"config error: separation must be finite and nonnegative, got {value}"
        )
    assert not csv_path.exists()
    assert not (tmp_path / "o").exists()


def test_a_bad_cohort_is_a_config_error_for_suite_too(tmp_path, capsys):
    # run and suite refuse a cohort argument alike, before --out is made
    for command in (["run", "--topology", "1", "--init", "xavier"], ["suite"]):
        out = tmp_path / command[0]
        code = cli.main(command + ["--synthetic", "--participants", "1", "--no-loo",
                                   "--epochs", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "config error: participants must be >= 2, got 1\n"
        assert not out.exists()


def test_diverged_training_exits_4(monkeypatch, tmp_path):
    def boom(config):
        raise DivergedTrainingError("non-finite loss at epoch 1 (stub)")

    monkeypatch.setattr(cli, "run_experiment", boom)
    code = cli.main(
        ["run", "--topology", "1", "--init", "xavier", "--synthetic",
         "--out", str(tmp_path / "o")]
    )
    assert code == 4


@pytest.mark.parametrize("command", [
    ["run", "--topology", "3", "--init", "kaiming", "--out", "{blocked}"],
    ["suite", "--out", "{blocked}"],
    ["run", "--topology", "3", "--init", "kaiming", "--out", "{out}", "--save-model", "{blocked}"],
])
def test_an_out_dir_that_cannot_be_made_exits_3_before_training(command, monkeypatch, tmp_path,
                                                                 capsys):
    def train(config):
        raise AssertionError("trained before the output directory was checked")

    monkeypatch.setattr(cli, "run_experiment", train)
    monkeypatch.setattr(cli, "run_suite", train)
    blocker = tmp_path / "file"
    blocker.write_text("")
    paths = {"blocked": blocker / "x", "out": tmp_path / "out"}
    code = cli.main([arg.format(**paths) for arg in command] + ["--synthetic"])
    assert code == 3
    assert capsys.readouterr().err.startswith("data error: ")
    assert not paths["out"].exists()


def test_a_save_model_path_that_is_a_directory_exits_3_before_training(monkeypatch, tmp_path,
                                                                      capsys):
    def train(config):
        raise AssertionError("trained before --save-model was checked")

    monkeypatch.setattr(cli, "run_experiment", train)
    out = tmp_path / "out"
    code = cli.main(["run", "--topology", "1", "--init", "xavier", "--synthetic",
                     "--out", str(out), "--save-model", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("data error: ")
    assert not (out / "result.json").exists()
    assert not out.exists()


def test_a_save_model_path_in_the_out_dir_to_be_made_is_no_error(monkeypatch, tmp_path):
    def boom(config):
        raise DivergedTrainingError("non-finite loss at epoch 1 (stub)")

    monkeypatch.setattr(cli, "run_experiment", boom)
    out = tmp_path / "out"
    code = cli.main(["run", "--topology", "1", "--init", "xavier", "--synthetic",
                     "--out", str(out), "--save-model", str(out / "m.bin")])
    assert code == 4  # it trained
    assert out.is_dir()


def _tree(root: Path) -> dict:
    """Every path under ``root``, a file's with its bytes."""
    return {path: path.is_file() and path.read_bytes() for path in root.rglob("*")}


@pytest.mark.parametrize("command, data, save_model", [
    ("run", "c.csv", "c.csv"),
    ("run", "c.csv", "o/../c.csv"),
    ("run", "c.csv", "o/result.json"),
    ("run", "c.csv", "o/./report.txt"),
    ("run", "c.csv", "o"),
    ("run", "c.csv", "o/../o"),
    ("run", "o/result.csv", None),
    ("suite", "o/report.txt", None),
    ("suite", "o/../o/result.json", None),
], ids=["model-is-data", "model-resolves-to-data", "model-is-result-json",
        "model-resolves-to-report", "model-is-out", "model-resolves-to-out", "run-data-is-result-csv", "suite-data-is-report",
        "suite-data-resolves-to-result-json"])
def test_an_output_that_would_overwrite_an_input_or_output_exits_2(
    command, data, save_model, monkeypatch, tmp_path, capsys
):
    def train(config):
        raise AssertionError("trained before the paths were checked")

    monkeypatch.setattr(cli, "run_experiment", train)
    monkeypatch.setattr(cli, "run_suite", train)
    monkeypatch.chdir(tmp_path)
    Path(data).parent.mkdir(parents=True, exist_ok=True)
    Path(data).write_bytes(b"the input\n")
    before = _tree(tmp_path)
    argv = [command, "--data", data, "--out", "o"]
    if command == "run":
        argv += ["--topology", "1", "--init", "xavier"]
    if save_model:
        argv += ["--save-model", save_model]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert _tree(tmp_path) == before


def test_grad_check_exits_1_when_an_error_reaches_the_bound(monkeypatch, capsys):
    monkeypatch.setattr(cli, "grad_check", lambda *args, **kwargs: 1.0)
    assert cli.main(["grad-check"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_argparse_rejects_unknown_topology():
    result = run_cli("run", "--topology", "9", "--init", "xavier", "--synthetic")
    assert result.returncode == 2


def test_subprocess_entry_point(tmp_path):
    result = run_cli(
        "run", "--topology", "1", "--init", "kaiming", "--synthetic",
        "--participants", "4", "--records", "8", "--epochs", "2",
        "--no-loo", "--seed", "2", "--out", str(tmp_path / "out"),
    )
    assert result.returncode == 0, result.stderr
    assert "Overall Accuracy" in result.stdout
    assert (tmp_path / "out" / "report.txt").exists()


@needs_fork
@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
    or not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs two CPUs for a pool and /proc's children list",
)
def test_sigint_to_a_pooled_run_exits_130_with_no_traceback_and_no_worker_left(tmp_path):
    run = subprocess.Popen(
        [sys.executable, "-m", "mlpinit.cli", "run", "--topology", "3", "--init", "kaiming",
         "--synthetic", "--out", str(tmp_path / "out")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    try:
        children_file = Path(f"/proc/{run.pid}/task/{run.pid}/children")
        deadline = time.monotonic() + 60
        workers = []
        while not workers and run.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
            workers = [int(pid) for pid in children_file.read_text().split()]
        assert workers, "the run started no worker"
        run.send_signal(signal.SIGINT)
        _, err = run.communicate(timeout=60)
    finally:
        run.kill()
        run.wait()
    assert run.returncode == 130, err
    assert err == "interrupted\n"
    assert all(reaped(pid) for pid in workers)
    # the interrupt came during training, before any output was written
    assert list((tmp_path / "out").iterdir()) == []
