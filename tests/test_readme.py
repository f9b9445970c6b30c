"""README.md stays true: its examples run and the constants it names are the code's.

The fenced ``python`` block runs in this process. Each line of the CLI quick
start runs, in order and in one temporary directory, as ``python -m
mlpinit.cli`` with ``PYTHONPATH`` at ``src``; a line whose comment says
``slow`` is only parsed with ``cli.build_parser()``. Every number or name
README takes from the code is read back out of README's text (with its line
wraps undone) and compared with the code, so changing either one fails here.
"""

import os
import re
import shlex
import string
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import run_python

import mlpinit.cli as cli
from mlpinit import (
    KAIMING_NORMAL,
    XAVIER_NORMAL,
    DivergedTrainingError,
    ExperimentConfig,
    ParseError,
    Rng,
    SyntheticSpec,
    Topology,
    ValidationError,
    build_model,
    data,
    holdout_split,
    load_csv,
    save_model,
    synthesize_dataset,
)
from mlpinit.data import CSV_HEADER
from mlpinit.harness import LOO_GROUP_SIZE
from mlpinit.initializers import target_variance

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
PROSE = " ".join(README.split())  # README with its line wraps undone


def _section(title: str) -> str:
    """The text of README's ``## title`` section."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def _fenced(text: str, lang: str) -> list:
    """The bodies of the fenced ``lang`` blocks in ``text``."""
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.S | re.M)


def _exit_codes(text: str) -> dict:
    """``{code: meaning}`` of the ``- N: meaning`` list in ``text``, each
    meaning on one line with ``code`` quotes as ``code``."""
    items = re.findall(r"^- (\d): (.*(?:\n  .*)*)", text.replace("``", "`"), re.M)
    return {int(code): " ".join(meaning.split()) for code, meaning in items}


README_CODES = _exit_codes(_section("Quick start (CLI)"))


def _code_for(label: str) -> int:
    """The exit code README gives the meaning that starts with ``label:`` or is ``label``."""
    [code] = [c for c, meaning in README_CODES.items() if meaning.split(":")[0] == label]
    return code


def test_the_library_quick_start_runs(capsys):
    [block] = _fenced(README, "python")
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    out = capsys.readouterr().out
    assert "Overall Accuracy" in out
    assert out.endswith(f"{namespace['result'].holdout.accuracy}\n")


def test_the_cli_quick_start_runs(tmp_path):
    """Each line runs as README says to run it without installing, and every
    ``run`` line writes the files README lists."""
    [block] = _fenced(_section("Quick start (CLI)"), "bash")
    outputs = re.findall(r"^- `([\w.]+)` - ", _section("Quick start (CLI)"), re.M)
    assert f"write {['no', 'one', 'two', 'three'][len(outputs)]} files" in PROSE
    ran = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "mlpinit", line
        args = cli.build_parser().parse_args(argv[1:])
        if "slow" in comment:
            continue
        result = run_python("-m", "mlpinit.cli", *argv[1:], cwd=tmp_path)
        assert result.returncode == _code_for("success"), (line, result.stderr)
        if args.command == "run":
            for name in outputs:
                (tmp_path / args.out / name).unlink()  # the next run must write it again
        ran.append(args.command)
    assert sorted(ran) == ["grad-check", "init-stats", "run", "run", "synth"]


def test_the_uninstalled_entry_point_runs_from_the_repo_root():
    [prefix] = re.findall(r"`PYTHONPATH=(\S+) python -m (\S+) \.\.\.`", PROSE)
    pythonpath, module = prefix
    result = subprocess.run(
        [sys.executable, "-m", module, "--help"], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath), cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr


SPEC = SyntheticSpec()


def _trainval_size() -> int:
    cohort = synthesize_dataset(0, SPEC.participants, SPEC.records_per_participant, SPEC.separation)
    trainval, _ = holdout_split(cohort, ExperimentConfig.holdout_fraction, seed=0)
    return len(trainval)


@pytest.mark.parametrize("pattern, value", [
    pytest.param(r"(\d+)% holdout", round(100 * ExperimentConfig.holdout_fraction), id="holdout"),
    pytest.param(r"lockstep groups of (\d+)", LOO_GROUP_SIZE, id="loo-group"),
    pytest.param(r"(\d+) participants x", SPEC.participants, id="participants"),
    pytest.param(r"participants x (\d+) records", SPEC.records_per_participant, id="records"),
    pytest.param(r"separation (\d+\.\d+)", SPEC.separation, id="separation"),
    pytest.param(r"`ExperimentConfig\.epochs` \((\d+)\)", ExperimentConfig.epochs, id="epochs"),
    pytest.param(r"for (\d+) columns total", len(CSV_HEADER), id="columns"),
    pytest.param(r"adds (\d+) LOO trainings", _trainval_size(), id="loo-trainings"),
])
def test_a_constant_readme_names_is_the_codes(pattern, value):
    found = re.findall(pattern, PROSE)
    assert found, pattern
    assert [type(value)(text) for text in found] == [value] * len(found)


def test_the_cli_defaults_are_the_ones_readme_names():
    parser = cli.build_parser()
    for argv in (["run", "--topology", "1", "--init", "xavier", "--synthetic"],
                 ["suite", "--synthetic"], ["synth", "--out", "x.csv"]):
        args = parser.parse_args(argv)
        assert (args.participants, args.records, args.separation) == (
            SPEC.participants, SPEC.records_per_participant, SPEC.separation
        )
        if argv[0] != "synth":
            assert args.epochs == ExperimentConfig.epochs


def test_the_csv_header_is_the_one_readme_shows():
    [header] = _fenced(_section("Data"), "")
    columns = []
    for token in header.strip().split(","):
        if ".." in token:
            first, last = token.split("..")
            stem = first.rsplit("_", 1)[0]
            columns += [f"{stem}_{k:02d}" for k in range(int(first[-2:]), int(last[-2:]) + 1)]
        else:
            columns.append(token)
    assert tuple(columns) == CSV_HEADER


def test_readme_lists_the_bytes_a_data_row_may_hold():
    [listed] = re.findall(r"A data row holds only ASCII letters, digits, (.*?), so", PROSE)
    punctuation = "".join(re.findall(r"`(.)`", listed))
    assert sorted(data._ROW_BYTES.decode()) == sorted(
        string.ascii_letters + string.digits + punctuation
    )


def test_each_csv_form_readme_lists_loads(tmp_path):
    [forms] = re.findall(r"A feature cell may read (.*?), and a row may end in (.*?)\.", PROSE)
    cells = re.findall(r"`([^`]+)`", forms[0])
    ends = [{"LF": b"\n", "CRLF": b"\r\n", "CR": b"\r"}[name]
            for name in re.findall(r"\b(CRLF|LF|CR)\b", forms[1])]
    assert len(cells) == 4 and len(ends) == 3
    rows = [",".join(["7", "Mild", cell] + ["1.0"] * 84).encode() for cell in cells]
    content = ",".join(CSV_HEADER).encode() + ends[0]
    for k, row in enumerate(rows):
        content += row + ends[k % len(ends)]
    path = tmp_path / "forms.csv"
    path.write_bytes(content)
    assert load_csv(path).features[:, 0].tolist() == [float(cell) for cell in cells]


def test_the_xavier_form_readme_names_is_the_one_drawn():
    [(xavier, kaiming)] = re.findall(
        r"Xavier is the fan-in form, with variance (\d)/fan_in .*? its Kaiming has variance "
        r"(\d)/fan_in", PROSE
    )
    assert "Glorot & Bengio's (2010) form, 2/(fan_in + fan_out), is the alternative" in PROSE
    dims = Topology.THREE_LAYER.layer_dims
    for fan_in, fan_out in zip(dims, dims[1:]):
        assert target_variance(XAVIER_NORMAL, fan_in) == int(xavier) / fan_in
        assert target_variance(KAIMING_NORMAL, fan_in) == int(kaiming) / fan_in
        assert target_variance(XAVIER_NORMAL, fan_in) != 2 / (fan_in + fan_out)


def test_a_model_file_has_the_layout_readme_gives(tmp_path):
    [magic] = re.findall(r"the `(\w+)` magic", PROSE)
    model = build_model(Rng(0), Topology.THREE_LAYER, KAIMING_NORMAL)
    save_model(model, tmp_path / "m.bin")
    data = (tmp_path / "m.bin").read_bytes()
    header = struct.unpack_from(f"<{len(magic)}s3I", data)
    assert header[0] == magic.encode() and header[2:] == (3, len(model.layers))
    offset = struct.calcsize(f"<{len(magic)}s3I")
    for layer in model.layers:
        assert struct.unpack_from("<2I", data, offset) == layer.weights.shape
        offset += 8 + 8 * (layer.weights.size + layer.bias.size)
    assert offset == len(data)


def test_readme_lists_the_exit_codes_of_the_cli_docstring():
    assert README_CODES == _exit_codes(cli.__doc__)
    assert sorted(README_CODES) == list(range(len(README_CODES)))


@pytest.mark.parametrize("error, label", [
    (ValidationError("bad"), "config error"),
    (ParseError("bad"), "data error"),
    (DivergedTrainingError("bad"), "training diverged"),
])
def test_an_error_exits_with_the_code_readme_gives_it(error, label, monkeypatch, tmp_path,
                                                     capsys):
    def fail(config):
        raise error

    monkeypatch.setattr(cli, "run_experiment", fail)
    argv = ["run", "--topology", "1", "--init", "xavier", "--synthetic", "--out", str(tmp_path)]
    assert cli.main(argv) == _code_for(label)
    assert capsys.readouterr().err == f"{label}: bad\n"


def test_an_interrupt_exits_with_the_code_readme_and_the_cli_docstring_give_it(
        monkeypatch, tmp_path, capsys):
    # _exit_codes reads the one-digit codes; 130 is the shell's 128 + SIGINT
    line = "- 130: interrupted (SIGINT, as by Ctrl-C)"
    assert line in _section("Quick start (CLI)").splitlines()
    assert line in cli.__doc__.splitlines()

    def interrupt(config):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_experiment", interrupt)
    argv = ["run", "--topology", "1", "--init", "xavier", "--synthetic", "--out", str(tmp_path)]
    assert cli.main(argv) == 130
    assert capsys.readouterr().err == "interrupted\n"


def test_every_repo_path_readme_names_exists():
    paths = re.findall(r"`((?:src|tests|demos|perfbench)/[\w./]+)`", README)
    assert paths
    for path in paths:
        assert (ROOT / path).exists(), path
