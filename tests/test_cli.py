import json
import os
import subprocess
import sys
from pathlib import Path

import mlpinit.cli as cli
from mlpinit.data import CSV_HEADER, load_csv
from mlpinit.errors import DivergedTrainingError, WorkerError

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "mlpinit.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


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


def test_missing_data_file_exits_3(tmp_path):
    code = cli.main(
        ["run", "--topology", "1", "--init", "xavier", "--data",
         str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o")]
    )
    assert code == 3


def test_non_utf8_data_file_exits_3(tmp_path, capsys):
    path = tmp_path / "cohort.csv"
    path.write_bytes(b"participant,label\xff\n")
    code = cli.main(
        ["run", "--topology", "1", "--init", "xavier", "--data", str(path),
         "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert "not UTF-8 text at byte offset 17" in capsys.readouterr().err


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


def test_bad_config_exits_2(tmp_path):
    code = cli.main(
        ["run", "--topology", "1", "--init", "xavier", "--synthetic",
         "--epochs", "0", "--out", str(tmp_path / "o")]
    )
    assert code == 2


def test_diverged_training_exits_4(monkeypatch, tmp_path):
    def boom(config):
        raise DivergedTrainingError("non-finite loss at epoch 1 (stub)")

    monkeypatch.setattr(cli, "run_experiment", boom)
    code = cli.main(
        ["run", "--topology", "1", "--init", "xavier", "--synthetic",
         "--out", str(tmp_path / "o")]
    )
    assert code == 4


def test_dead_worker_exits_4(monkeypatch, tmp_path, capsys):
    def boom(config):
        raise WorkerError("a LOO worker process died (stub)")

    monkeypatch.setattr(cli, "run_experiment", boom)
    code = cli.main(
        ["run", "--topology", "1", "--init", "xavier", "--synthetic",
         "--out", str(tmp_path / "o")]
    )
    assert code == 4
    assert "worker process died" in capsys.readouterr().err


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
