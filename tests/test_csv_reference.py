"""Differential test: ``load_csv`` against the whole-file loader it replaced.

``reference_load_csv`` is the loader that read the file as one string and
split it with ``str.splitlines()``, kept verbatim with its two helpers. On
every file of the corpus, the streamed ``load_csv`` must return the same
array bytes or raise the same exception type with the same message, with
its real block size and with small blocks forced at one and two workers.
"""

from pathlib import Path

import numpy as np
import pytest

from mlpinit import _pool, data
from mlpinit.data import CSV_HEADER, FEATURE_NAMES, N_FEATURES, Dataset, load_csv
from mlpinit.errors import DataError, FormatError, ParseError

LABEL_NAMES = ("None", "Mild", "Moderate", "Severe")
N_CLASSES = 4


def _parse_label(token: str, lineno: int) -> int:
    if token in LABEL_NAMES:
        return LABEL_NAMES.index(token)
    try:
        value = int(token)
    except ValueError:
        raise ParseError(
            f"row {lineno}, column 'label': unknown label token {token!r} "
            f"(expected one of {'/'.join(LABEL_NAMES)} or 0-3)"
        ) from None
    if not 0 <= value < N_CLASSES:
        raise ParseError(f"row {lineno}, column 'label': label {value} outside 0-3")
    return value


def reference_load_csv(path) -> Dataset:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text at byte offset {exc.start}") from None
    lines = text.splitlines()
    if not lines:
        raise FormatError(f"{path}: file is empty")
    header = tuple(lines[0].split(","))
    if header != CSV_HEADER:
        n_feat = len(header) - 2
        if n_feat != N_FEATURES:
            raise FormatError(
                f"{path}: header has {n_feat} feature columns, expected {N_FEATURES}"
            )
        raise FormatError(
            f"{path}: header column names do not match the "
            f"participant,label,gsr_00..st_22 contract"
        )
    features = np.empty((len(lines) - 1, N_FEATURES))
    participants, labels = [], []
    try:
        for i, line in enumerate(lines[1:]):
            lineno = i + 2
            parts = line.split(",")
            if len(parts) != len(CSV_HEADER):
                raise FormatError(
                    f"{path}: row {lineno} has {len(parts)} columns, "
                    f"expected {len(CSV_HEADER)}"
                )
            # int() and float() accept digit-group underscores ("1_0.5" is
            # 10.5); the contract's plain decimals have none.
            if "_" in line:
                j = next(j for j, cell in enumerate(parts) if "_" in cell)
                raise ParseError(
                    f"row {lineno}, column {CSV_HEADER[j]!r}: {parts[j]!r} "
                    f"contains '_', which plain decimal numbers do not"
                )
            try:
                participant = int(parts[0])
            except ValueError:
                raise ParseError(
                    f"row {lineno}, column 'participant': {parts[0]!r} is not an integer"
                ) from None
            if not -(2**63) <= participant < 2**63:
                raise ParseError(
                    f"row {lineno}, column 'participant': {parts[0]!r} is outside the int64 range"
                )
            participants.append(participant)
            labels.append(_parse_label(parts[1], lineno))
            try:
                features[i] = list(map(float, parts[2:]))
            except ValueError:
                for j, cell in enumerate(parts[2:]):
                    try:
                        float(cell)
                    except ValueError:
                        raise ParseError(
                            f"row {lineno}, column {FEATURE_NAMES[j]!r}: {cell!r} is not a number"
                        ) from None
    except DataError:
        # A non-finite value in an earlier row is the first fault in file order.
        _check_finite(features[:i], ParseError)
        raise
    if not participants:
        raise FormatError(f"{path}: no data rows")
    _check_finite(features, ParseError)
    return Dataset(features, labels, participants)


def _check_finite(features: np.ndarray, error: type[Exception]) -> None:
    """Raise ``error`` naming the CSV row and column of the first NaN or inf."""
    bad = ~np.isfinite(features)
    if bad.any():
        i, j = np.argwhere(bad)[0].tolist()
        raise error(f"row {i + 2}, column {FEATURE_NAMES[j]!r}: value is not finite")


HEADER = ",".join(CSV_HEADER).encode()


def row(participant="1", label="None", cells=None, **replace) -> bytes:
    """A data row; ``replace`` maps feature index ``f<j>`` to a cell's text."""
    cells = list(cells) if cells is not None else [f"{0.25 * j!r}" for j in range(N_FEATURES)]
    for key, value in replace.items():
        cells[int(key[1:])] = value
    return ",".join([participant, label, *cells]).encode("utf-8")


GOOD = [row("1", "None"), row("2", "Mild", f3="-1e-300"), row("-7", "3", f84="12.5")]
ROWS = b"\n".join(GOOD)

CORPUS = {
    "lf": HEADER + b"\n" + ROWS + b"\n",
    "crlf": (HEADER + b"\n" + ROWS + b"\n").replace(b"\n", b"\r\n"),
    "lone-cr": (HEADER + b"\n" + ROWS + b"\n").replace(b"\n", b"\r"),
    "cr-then-lf": HEADER + b"\r" + GOOD[0] + b"\n" + GOOD[1] + b"\r\n" + GOOD[2],
    "no-trailing-newline": HEADER + b"\n" + ROWS,
    "blank-line": HEADER + b"\n" + GOOD[0] + b"\n\n" + GOOD[1] + b"\n",
    "trailing-blank-line": HEADER + b"\n" + ROWS + b"\n\n",
    "bom": b"\xef\xbb\xbf" + HEADER + b"\n" + ROWS + b"\n",
    "bom-mid-row": HEADER + b"\n" + GOOD[0] + b"\xef\xbb\xbf\n",
    "empty": b"",
    "only-newline": b"\n",
    "header-only": HEADER + b"\n",
    "header-only-no-newline": HEADER,
    "header-wrong-name": HEADER.replace(b"gsr_05", b"gsr_5") + b"\n" + ROWS + b"\n",
    "header-short": HEADER.rsplit(b",", 1)[0] + b"\n" + ROWS + b"\n",
    "bad-utf8-in-header": HEADER[:30] + b"\xff" + HEADER[30:] + b"\n" + ROWS + b"\n",
    "bad-utf8-after-faulty-row": HEADER + b"\n" + GOOD[0] + b"\n" + row(f7="oops") + b"\n"
    + GOOD[1][:60] + b"\xfe" + GOOD[1][60:] + b"\n",
    "bad-utf8-after-inf-row": HEADER + b"\n" + row(f1="inf") + b"\n" + GOOD[1] + b"\n\x80",
    "bad-utf8-after-bad-header": HEADER[:-1] + b"\n" + ROWS + b"\n\xc3(",
    "truncated-multibyte-at-eof": HEADER + b"\n" + ROWS + b"\n" + GOOD[0] + b"\xe2\x82",
    "truncated-multibyte-before-lf": HEADER + b"\n" + GOOD[0] + b"\xe2\x82\n" + GOOD[1],
    "non-number-after-partly-parsed-row": HEADER + b"\n" + GOOD[0] + b"\n"
    + row(f2="-inf", f60="1.0.0") + b"\n" + row(f4="nan") + b"\n",
    "partly-parsed-row-then-nothing": HEADER + b"\n" + row(f84="x") + b"\n",
    "non-finite-rows-before-later-error": HEADER + b"\n" + GOOD[0] + b"\n" + row(f10="inf")
    + b"\n" + row(f20="nan") + b"\n" + row(f3="oops") + b"\n",
    "non-finite-row-before-short-row": HEADER + b"\n" + row(f40="1e999") + b"\n1,None,1.0\n",
    "non-finite-only": HEADER + b"\n" + GOOD[0] + b"\n" + row(f84="-inf") + b"\n"
    + row(f0="nan") + b"\n",
    "short-row": HEADER + b"\n" + GOOD[0] + b"\n" + GOOD[1].rsplit(b",", 1)[0] + b"\n",
    "long-row": HEADER + b"\n" + GOOD[0] + b",1.0\n",
    "underscore": HEADER + b"\n" + GOOD[0] + b"\n" + row("2", "Mild", f3="1_0.5") + b"\n",
    "unknown-label": HEADER + b"\n" + row(label="severe") + b"\n",
    "label-out-of-range": HEADER + b"\n" + row(label="4") + b"\n",
    "participant-not-int": HEADER + b"\n" + row(participant="1.5") + b"\n",
    "participant-too-big": HEADER + b"\n" + GOOD[0] + b"\n" + row(participant=str(2**63))
    + b"\n",
    "participant-lowest-int64": HEADER + b"\n" + row(participant=str(-(2**63))) + b"\n",
    "non-ascii-digits": HEADER + b"\n" + row(f5="\u0661.5") + b"\n",
}
# Characters that str.splitlines() breaks at but a byte-line reader does not.
for name, char in (("vt", "\x0b"), ("ff", "\x0c"), ("fs", "\x1c"), ("nel", "\x85"),
                   ("ls", "\u2028")):
    enc = char.encode("utf-8")
    CORPUS[f"{name}-in-row"] = HEADER + b"\n" + GOOD[0][:40] + enc + GOOD[0][40:] + b"\n"
    CORPUS[f"{name}-between-rows"] = HEADER + b"\n" + GOOD[0] + enc + GOOD[1] + b"\n"
    CORPUS[f"{name}-ends-row"] = HEADER + b"\n" + GOOD[0] + enc + b"\n" + GOOD[1] + b"\n"
    CORPUS[f"{name}-in-header"] = HEADER[:50] + enc + HEADER[50:] + b"\n" + ROWS + b"\n"
    CORPUS[f"{name}-ends-header"] = HEADER + enc + ROWS + b"\n"


# Files whose first fault sits in a later block at the small block sizes:
# the rows before it parse, in blocks of their own.
LEAD = b"\n".join([HEADER, *GOOD, *GOOD]) + b"\n"
LATER_BLOCKS = {
    "later-block-fault-free": LEAD + ROWS + b"\n",
    "later-block-non-number": LEAD + row(f7="oops") + b"\n" + ROWS + b"\n",
    "later-block-short-row": LEAD + GOOD[1].rsplit(b",", 1)[0] + b"\n" + ROWS + b"\n",
    "later-block-blank-line": LEAD + b"\n" + ROWS + b"\n",
    "later-block-non-finite": LEAD + row(f30="nan") + b"\n" + ROWS + b"\n",
    "non-finite-then-later-block-label": HEADER + b"\n" + row(f2="inf") + b"\n"
    + b"\n".join([*GOOD, *GOOD]) + b"\n" + row(label="9") + b"\n",
    "later-block-bad-utf8": LEAD + GOOD[0][:70] + b"\xff" + GOOD[0][70:] + b"\n",
    "bad-utf8-after-parse-error": HEADER + b"\n" + row(participant="x") + b"\n"
    + b"\n".join([*GOOD, *GOOD]) + b"\n" + GOOD[2][:90] + b"\xc3(" + b"\n",
    "later-block-crlf": (LEAD + ROWS + b"\n").replace(b"\n", b"\r\n"),
    "later-block-vt": LEAD + GOOD[0] + b"\x0b" + GOOD[1] + b"\n",
}
FILES = {**CORPUS, **LATER_BLOCKS}


def outcome(load, path):
    """The arrays' bytes, or the exception's type and message."""
    try:
        ds = load(path)
    except (DataError, OSError) as exc:
        return type(exc), str(exc)
    return (ds.features.tobytes(), ds.features.shape, ds.labels.tobytes(),
            ds.participants.tobytes())


# Load block sizes forced on top of the real one. A file of S bytes is cut
# into S // B equal blocks of B to 2B - 1 bytes (one if S < 2B). Blocks of
# at least 150 bytes split every row from the next and leave blocks in which
# no line starts; at least 1000 bytes put two to four rows in a block and cut
# a row at most block ends, in the files of 2000 bytes or more.
BLOCK_BYTES = (150, 1000)


def in_process_and_pooled(argname, values):
    """Parametrize a test over ``values``: at the real block size under each
    value's own id, then with each forced block size at one worker, under
    ``<value>-1w-<block bytes>``, and at two, under ``<value>-pool-<block bytes>``."""
    cases = [(v, None) for v in values]
    ids = [str(v) for v in values]
    for workers, tag in ((1, "1w"), (2, "pool")):
        for size in BLOCK_BYTES:
            cases += [(v, (workers, size)) for v in values]
            ids += [f"{v}-{tag}-{size}" for v in values]
    return pytest.mark.parametrize((argname, "blocks"), cases, ids=ids, indirect=["blocks"])


@pytest.fixture
def blocks(request, monkeypatch):
    """Nothing for None; for ``(workers, block bytes)``, load blocks of that
    size mapped by that many workers."""
    if request.param is not None:
        workers, size = request.param
        monkeypatch.setattr(data, "_CSV_BLOCK_BYTES", size)
        monkeypatch.setattr(_pool, "workers", lambda n_tasks: workers)


@in_process_and_pooled("name", sorted(CORPUS) + sorted(LATER_BLOCKS))
def test_matches_the_whole_file_loader(tmp_path, name, blocks):
    path = tmp_path / "cohort.csv"
    path.write_bytes(FILES[name])
    assert outcome(load_csv, path) == outcome(reference_load_csv, path)


def test_corpus_loads_some_files_and_rejects_others(tmp_path):
    # Both error classes occur, and some files load.
    path = tmp_path / "cohort.csv"
    kinds = set()
    for content in CORPUS.values():
        path.write_bytes(content)
        result = outcome(reference_load_csv, path)
        kinds.add(result[0] if isinstance(result[0], type) else "ok")
    assert kinds == {"ok", FormatError, ParseError}


MUTATIONS = [b"\n", b"\r", b"\r\n", b",", b"_", b"", b"x", b"inf", b"nan", b"\xff",
             b"\xe2\x82", b"\x0c", b"\xc2\x85", b"\xe2\x80\xa8", b"-", b"9" * 30]


@in_process_and_pooled("seed", range(8))
def test_matches_the_whole_file_loader_on_mutated_files(tmp_path, seed, blocks):
    # Seeded random edits of a valid file, each compared on its own.
    rng = np.random.default_rng(seed)
    base = CORPUS["lf"]
    path = tmp_path / "cohort.csv"
    for _ in range(25):
        content = bytearray(base)
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(0, len(content) + 1))
            cut = int(rng.integers(0, 3))
            content[at:at + cut] = MUTATIONS[int(rng.integers(len(MUTATIONS)))]
        path.write_bytes(bytes(content))
        assert outcome(load_csv, path) == outcome(reference_load_csv, path), bytes(content)
