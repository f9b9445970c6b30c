"""Dataset container, CSV ingestion, synthetic cohorts, and split protocols.

A sample is 85 physiological features (23 GSR, 39 pupil-dilation, 23 skin
temperature) plus a 4-level severity label and a participant id. The CSV
contract is ASCII: a header ``participant,label,gsr_00..gsr_22,pd_00..pd_38,
st_00..st_22`` (87 columns), labels as ``None|Mild|Moderate|Severe`` or the
integers 0-3, features as plain decimal floats, no quoting.
"""

from __future__ import annotations

import io
import math
import string
from array import array
from pathlib import Path

import numpy as np

from . import _pool
from .errors import DataError, FormatError, ParseError, ValidationError, _check_int, _check_real
from .numerics import Rng, _check_ints, _check_reals

LABEL_NAMES = ("None", "Mild", "Moderate", "Severe")
N_CLASSES = 4

GSR_FEATURES = tuple(f"gsr_{i:02d}" for i in range(23))
PD_FEATURES = tuple(f"pd_{i:02d}" for i in range(39))
ST_FEATURES = tuple(f"st_{i:02d}" for i in range(23))
FEATURE_NAMES = GSR_FEATURES + PD_FEATURES + ST_FEATURES
N_FEATURES = len(FEATURE_NAMES)  # 85

CSV_HEADER = ("participant", "label") + FEATURE_NAMES
_HEADER_BYTES = ",".join(CSV_HEADER).encode()
# The only bytes a data row may hold. int() and float() also take spaces,
# tabs, "_" digit groups and non-ASCII digits, which no cell of the contract
# holds.
_ROW_BYTES = (string.ascii_letters + string.digits + "+-.,").encode()

# save_csv and load_csv map their work through the worker pool in as many
# equal blocks as hold at least these rows (save_csv) or file bytes
# (load_csv) each, or in one. The parent holds a few blocks' text or rows in
# transit, so the blocks are small. A file of fewer than two blocks, like the
# 192-row default cohort (340 KB), is one task, which the pool runs
# in-process: a pool's start would cost more than it saves.
_CSV_BLOCK_ROWS = 128
_CSV_BLOCK_BYTES = 256 * 1024

# Synthetic-cohort noise geometry. Scales apply to the whole nuisance vector
# (expected norm ~0.2 each for observation noise and the shared participant
# offset), not per coordinate. At the default separation the class means then
# dominate both nuisances, which is what lets the small published training
# budgets reach >=0.90 holdout accuracy on a 192-record desk-scale cohort.
_NOISE_STD = 0.2 / np.sqrt(N_FEATURES)
_PARTICIPANT_OFFSET_STD = 0.2 / np.sqrt(N_FEATURES)
# Rows of record noise drawn at once. A block's temporaries are about three
# times its rows of features; 256 rows keep them near 0.5 MB, and the 192-row
# default cohort is one block.
_SYNTH_BLOCK_ROWS = 256


class Dataset:
    """Ordered, immutable-by-convention collection of samples.

    Stored columnar: ``features`` is (n, 85) float64, ``labels`` and
    ``participants`` are (n,) int64. Features must be given as integers or
    floats, labels and participant ids as integers, labels in [0, 4) and ids
    in the int64 range: ValidationError names any other dtype, bool
    included, or value, rather than casting it.
    """

    def __init__(self, features, labels, participants):
        features = _check_reals("features", features)
        if features.ndim != 2 or features.shape[1] != N_FEATURES:
            raise ValidationError(
                f"features must be (n, {N_FEATURES}), got shape {features.shape}"
            )
        n = features.shape[0]
        if n == 0:
            raise ValidationError("a dataset must contain at least one sample")
        if np.shape(labels) != (n,) or np.shape(participants) != (n,):
            raise ValidationError(
                f"labels/participants must both have shape ({n},), got "
                f"{np.shape(labels)} and {np.shape(participants)}"
            )
        self.features = features
        self.labels = _check_ints("label", labels, lo=0, hi=N_CLASSES)
        self.participants = _check_ints("participant id", participants)

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices) -> "Dataset":
        # a cast would read a bool mask as rows 0 and 1 and truncate floats,
        # and numpy would read a negative index from the end
        indices = _check_ints("subset indices", indices, lo=0, hi=len(self))
        return Dataset(self.features[indices], self.labels[indices], self.participants[indices])


def _parse_label(token: bytes, lineno: int) -> int:
    names = [name.encode() for name in LABEL_NAMES]
    if token in names:
        return names.index(token)
    try:
        value = int(token)
    except ValueError:
        raise ParseError(
            f"row {lineno}, column 'label': unknown label token {token.decode()!r} "
            f"(expected one of {'/'.join(LABEL_NAMES)} or 0-3)"
        ) from None
    if not 0 <= value < N_CLASSES:
        raise ParseError(f"row {lineno}, column 'label': label {value} outside 0-3")
    return value


def _parse_row(line: bytes, lineno: int, path) -> tuple[int, int, list[float]]:
    """One data row's participant id, label and 85 features, or a DataError."""
    parts = line.split(b",")
    if len(parts) != len(CSV_HEADER):
        raise FormatError(
            f"{path}: row {lineno} has {len(parts)} columns, expected {len(CSV_HEADER)}"
        )
    if line.translate(None, _ROW_BYTES):
        j, cell = next((j, c) for j, c in enumerate(parts) if c.translate(None, _ROW_BYTES))
        raise ParseError(
            f"row {lineno}, column {CSV_HEADER[j]!r}: {cell.decode(errors='replace')!r} "
            f"holds the byte {cell.translate(None, _ROW_BYTES)[:1]!r}, which is not an ASCII "
            f"letter, digit, '+', '-' or '.'"
        )
    try:
        participant = int(parts[0])
    except ValueError:
        raise ParseError(
            f"row {lineno}, column 'participant': {parts[0].decode()!r} is not an integer"
        ) from None
    if not -(2**63) <= participant < 2**63:
        raise ParseError(
            f"row {lineno}, column 'participant': {parts[0].decode()!r} is outside the "
            f"int64 range"
        )
    label = _parse_label(parts[1], lineno)
    try:
        return participant, label, list(map(float, parts[2:]))
    except ValueError:
        for j, cell in enumerate(parts[2:]):
            try:
                float(cell)
            except ValueError:
                raise ParseError(
                    f"row {lineno}, column {FEATURE_NAMES[j]!r}: {cell.decode()!r} is not a number"
                ) from None
        raise


def _check_header(line: bytes, path) -> None:
    """Raise FormatError unless ``line`` is the contract's header."""
    if line == _HEADER_BYTES:
        return
    n_feat = line.count(b",") - 1
    if n_feat != N_FEATURES:
        raise FormatError(f"{path}: header has {n_feat} feature columns, expected {N_FEATURES}")
    raise FormatError(
        f"{path}: header column names do not match the "
        f"participant,label,gsr_00..st_22 contract"
    )


def load_csv(path) -> Dataset:
    """Load a dataset from the documented 87-column CSV contract.

    The file is cut into as many equal byte ranges of at least
    ``_CSV_BLOCK_BYTES`` as it holds, or one, each a task mapped through the
    worker pool; a file of fewer than two blocks, like the 192-row default
    cohort, is one task and maps in-process. Each task parses the
    lines that start in its range, one line of bytes at a time, and the
    calling process appends their rows in file order to one growing float64
    buffer, which becomes the dataset's feature matrix without a copy. A
    pipe or other file that is not a regular file is one task, read once
    from its start. Peak memory in the calling process is the matrix (with
    the buffer's few percent of spare capacity) plus a few blocks' rows in
    transit. A row ends at LF, CRLF or a lone CR, as ``bytes.splitlines``
    splits.

    Raises OSError for a missing file, and otherwise names the first fault in
    file order: FormatError for a wrong header, or the first faulty row's
    first failed check, in this order: FormatError for the column count,
    then ParseError (naming the column) for a byte other than an ASCII
    letter, digit, ``+``, ``-``, ``.`` or ``,``, a participant id that is not
    an int64, an unknown label token, a non-numeric and a non-finite feature.
    """
    path = Path(path)
    size = path.stat().st_size if path.is_file() else 0
    n_tasks = max(1, size // _CSV_BLOCK_BYTES)
    starts = [size * k // n_tasks for k in range(n_tasks)]
    # the last task reads to the end, so a pipe is one task from byte 0
    tasks = [(path, start, stop) for start, stop in zip(starts, starts[1:] + [math.inf])]
    features = array("d")
    participants, labels = array("q"), array("q")
    n_lines, bad_line = 0, None
    blocks = _pool.fork_map(_parse_csv_block, tasks)
    for block_ids, block_labels, block_rows, block_lines, fault in blocks:
        if bad_line is None:
            participants.frombytes(block_ids)
            labels.frombytes(block_labels)
            features.frombytes(block_rows)
            if fault is not None:
                bad_line = (n_lines + fault[0], fault[1])
        n_lines += block_lines
    if not n_lines:
        raise FormatError(f"{path}: file is empty")
    features = np.frombuffer(features).reshape(-1, N_FEATURES)
    # A non-finite value in an earlier row is the first fault in file order.
    _check_finite(features, ParseError)
    if bad_line is not None:
        lineno, line = bad_line
        if lineno == 1:
            _check_header(line, path)
        _parse_row(line, lineno, path)
    if not participants:
        raise FormatError(f"{path}: no data rows")
    return Dataset(features, labels, participants)


def _parse_csv_block(task) -> tuple[bytes, bytes, bytes, int, tuple[int, bytes] | None]:
    """The participant ids, labels and features, as array bytes, of the rows
    on the lines of ``path`` that start in the byte range [start, stop), the
    number of those lines, and their first fault.

    A line starts at byte 0 or after a ``\\n``; each ``\\n``-ended piece
    splits as the whole file does under ``bytes.splitlines``. The range at
    byte 0 starts with the header. The fault is ``(index, line)`` of the
    first line, counted from 1, that raised DataError, and the parse stops
    there; None if there is no fault.
    """
    path, start, stop = task
    participants, labels, features = array("q"), array("q"), array("d")
    n_lines, fault = 0, None
    # A fixed read buffer: the file system's preferred block size can be MBs.
    with open(path, "rb", buffering=io.DEFAULT_BUFFER_SIZE) as file:
        offset = start
        if start:  # the line holding byte start - 1 is an earlier block's
            file.seek(start - 1)
            offset += len(file.readline()) - 1
        while fault is None and offset < stop and (raw := file.readline()):
            offset += len(raw)
            for line in raw.splitlines():
                n_lines += 1
                try:
                    if n_lines == 1 and not start:
                        _check_header(line, path)
                        continue
                    participant, label, row = _parse_row(line, 0, path)
                except DataError:
                    fault = (n_lines, line)
                    break
                participants.append(participant)
                labels.append(label)
                features.extend(row)
    # bytes, not arrays: a pickled array is rebuilt in the caller through one
    # more copy of the block
    return participants.tobytes(), labels.tobytes(), features.tobytes(), n_lines, fault


def _check_finite(features: np.ndarray, error: type[Exception]) -> None:
    """Raise ``error`` naming the CSV row and column of the first NaN or inf."""
    # min and max are finite exactly when every value is; they need no
    # temporary the size of the matrix.
    if np.isfinite(features.min(initial=0.0)) and np.isfinite(features.max(initial=0.0)):
        return
    i, j = np.argwhere(~np.isfinite(features))[0].tolist()
    raise error(f"row {i + 2}, column {FEATURE_NAMES[j]!r}: value is not finite")


def save_csv(dataset: Dataset, path) -> None:
    """Write ``dataset`` in the same CSV contract ``load_csv`` reads.

    Features are written with repr precision so a round trip is bit-exact.
    The rows are cut into as many equal blocks of at least
    ``_CSV_BLOCK_ROWS`` as there are, or one, and formatted through the
    worker pool; the calling process writes each block's text in order as it
    arrives. The bytes are the same at any worker count.
    Raises ValidationError, naming the first row and column in file order,
    for a feature that is NaN or infinite, which ``load_csv`` would reject;
    the check runs before the file is opened, so no partial file is left.
    """
    path = Path(path)
    _check_finite(dataset.features, ValidationError)
    n_blocks = max(1, len(dataset) // _CSV_BLOCK_ROWS)
    columns = (dataset.participants, dataset.labels, dataset.features)
    blocks = zip(*(np.array_split(column, n_blocks) for column in columns))
    with path.open("wb") as out:
        out.write(_HEADER_BYTES + b"\n")
        for text in _pool.fork_map(_format_csv_block, blocks):
            out.write(text)


def _format_csv_block(block) -> bytes:
    """The ASCII CSV lines of a block of (participants, labels, features) rows."""
    participants, labels, features = block
    return "".join(
        f"{participant},{LABEL_NAMES[label]},{','.join(map(repr, row))}\n"
        for participant, label, row in zip(
            participants.tolist(), labels.tolist(), features.tolist()
        )
    ).encode("ascii")


def synthesize_dataset(
    seed: int, participants: int, records_per_participant: int, separation: float
) -> Dataset:
    """Generate a synthetic cohort shaped like the study data.

    Each class c gets a mean vector: a random unit-norm direction scaled by
    ``separation * c / 3`` (class 0 sits at the origin). Every record adds a
    per-participant offset and observation noise (expected norm 0.2 each).
    Labels cycle 0,1,2,3 within each participant's records, so with
    ``SyntheticSpec``'s 16 x 12 default every participant covers all four
    classes and the cohort is exactly class-balanced. Deterministic per seed.

    The record noise is drawn into the preallocated feature matrix in blocks
    of rows, so peak memory is the output plus one block's temporaries.
    Raises ValidationError for a seed or count that is no integer (or is a
    bool), fewer than 2 participants, no records, or a separation that is
    no real number (or is a bool), negative, NaN or infinite.
    """
    participants = _check_int("participants", participants, 2)
    records_per_participant = _check_int("records_per_participant", records_per_participant, 1)
    _check_real("separation", separation)
    if not 0 <= separation < math.inf:
        raise ValidationError(
            f"separation must be finite and nonnegative, got {separation}"
        )
    rng = Rng(seed)
    class_means = rng._normal_rows(N_CLASSES, N_FEATURES, 0.0, 1.0)
    for c, direction in enumerate(class_means):
        direction /= np.linalg.norm(direction)
        direction *= separation * c / 3.0
    offsets = rng._normal_rows(participants, N_FEATURES, 0.0, _PARTICIPANT_OFFSET_STD**2)
    n = participants * records_per_participant
    labels = np.tile(np.arange(records_per_participant) % N_CLASSES, participants)
    pids = np.repeat(np.arange(participants), records_per_participant)
    features = np.empty((n, N_FEATURES))
    # Row k of a block of normal rows has the bits of the k-th normal call,
    # so block by block the noise is the same stream as one draw of n rows.
    for start in range(0, n, _SYNTH_BLOCK_ROWS):
        rows = slice(start, start + _SYNTH_BLOCK_ROWS)
        block = features[rows]
        np.add(class_means[labels[rows]], offsets[pids[rows]], out=block)
        block += rng._normal_rows(len(block), N_FEATURES, 0.0, _NOISE_STD**2)
    return Dataset(features, labels, pids)


def standardize(train: Dataset, *others: Dataset):
    """Z-score every split using the train split's statistics only.

    Returns ``(datasets, mean, std)`` where ``datasets[0]`` is the
    standardized train split followed by the other splits in order. The
    per-feature std is floored at 1e-8 so constant features map to 0 instead
    of dividing by zero. Test statistics are never consulted. Each split is
    centred into its new matrix and scaled in place, so a split costs its
    output and no temporary.
    """
    mean = train.features.mean(axis=0)
    std = np.maximum(train.features.std(axis=0), 1e-8)

    def apply(ds: Dataset) -> Dataset:
        features = ds.features - mean
        features /= std
        return Dataset(features, ds.labels, ds.participants)

    return [apply(train)] + [apply(ds) for ds in others], mean, std


def holdout_split(dataset: Dataset, fraction: float = 0.2, seed: int = 0):
    """Stratified holdout split: per class, floor(fraction * count) test rows.

    Returns ``(trainval, test)``; the two are disjoint and union-complete, and
    the selection is deterministic per seed. Raises ValidationError if any of
    the four classes has no samples, or if the floor rule leaves the test set
    empty.
    """
    _check_real("fraction", fraction)
    if not 0.0 < fraction < 1.0:
        raise ValidationError(f"fraction must lie in (0, 1), got {fraction}")
    rng = Rng(seed)
    test_idx = []
    for c in range(N_CLASSES):
        class_idx = np.flatnonzero(dataset.labels == c)
        if class_idx.size == 0:
            raise ValidationError(
                f"class {LABEL_NAMES[c]!r} has 0 samples; cannot stratify"
            )
        k = int(np.floor(fraction * class_idx.size))
        shuffled = class_idx[rng.permutation(class_idx.size)]
        test_idx.extend(shuffled[:k].tolist())
    test_idx = np.sort(np.asarray(test_idx, dtype=np.int64))
    if test_idx.size == 0:
        raise ValidationError(
            "holdout test set is empty: floor(fraction * class count) is 0 "
            "for every class"
        )
    mask = np.ones(len(dataset), dtype=bool)
    mask[test_idx] = False
    trainval_idx = np.flatnonzero(mask)
    return dataset.subset(trainval_idx), dataset.subset(test_idx)


def loo_splits(n_rows: int, folds):
    """Leave-one-record-out row maps: for each fold k of ``folds``, in order,
    the rows ``0 .. n_rows - 1`` without row k.

    A generator, so it checks on the first ``next()``, before any map is
    yielded: ValidationError for fewer than 2 rows, or for folds that are
    not integers in [0, n_rows). An empty list is float64 to numpy, so it is
    refused; an empty integer array yields nothing.
    """
    n_rows = _check_int("leave-one-out rows", n_rows, 2)
    all_rows = np.arange(n_rows)
    for k in _check_ints("LOO fold", folds, lo=0, hi=n_rows).tolist():
        yield np.delete(all_rows, k)
