"""Seeded mutation fuzzing of the two file readers, ``load_csv`` and ``load_model``.

Each mutant is a valid file with one or two byte ranges replaced by a
piece of the grammar's edge cases. A CSV mutant must load if and only if an
independent oracle accepts it, to the values the oracle reads; a model file
mutant must load or raise ``MlpInitError``. Any other exception fails.
"""

import math
import random
import re

import numpy as np

from mlpinit import XAVIER_NORMAL, Rng, Topology, build_model, load_csv, load_model, save_model
from mlpinit.data import CSV_HEADER
from mlpinit.errors import DataError, MlpInitError

PIECES = [
    b"\n", b"\r", b"\r\n", b",", b"+", b"-", b"e", b"E-3", b".", b"0", b"7", b"nan", b"inf",
    b"-Infinity", b"_", b"\x00", b" ", b"\t", b"\xef\xbb\xbf", b"\xc2\xa0", b"\xe2\x80\xa8",
    b"\xc2\x85", b"\xd9\xa1", b"\xef\xbc\x91", b"\xff", b"None", b"Mild", b"9" * 20, b"",
]


def mutants(base: bytes, seed: int, count: int):
    """``count`` seeded mutants of ``base``, each with one or two edits."""
    rng = random.Random(seed)
    for _ in range(count):
        content = bytearray(base)
        for _ in range(rng.randint(1, 2)):
            at = rng.randint(0, len(content))
            content[at:at + rng.randint(0, 2)] = rng.choice(PIECES)
        yield bytes(content)


# The CSV contract's grammar, written out from README: a plain ASCII decimal
# or nan/inf (rejected later as not finite) in a feature cell, an ASCII
# integer in the participant and label cells.
INTEGER = rb"[+-]?[0-9]+"
FEATURE = re.compile(
    rb"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)", re.IGNORECASE
)
LABEL = re.compile(rb"None|Mild|Moderate|Severe|" + INTEGER)
LABELS = {b"None": 0, b"Mild": 1, b"Moderate": 2, b"Severe": 3}


def oracle(content: bytes):
    """``(participants, labels, features)`` if the contract accepts
    ``content``, else None. Rows end at LF, CRLF or a lone CR."""
    lines = re.split(rb"\r\n|\r|\n", content)
    if lines[-1] == b"":
        lines.pop()
    if not lines[1:] or lines[0] != ",".join(CSV_HEADER).encode():
        return None
    participants, labels, features = [], [], []
    for line in lines[1:]:
        cells = line.split(b",")
        if len(cells) != len(CSV_HEADER) or not re.fullmatch(INTEGER, cells[0]):
            return None
        if not (LABEL.fullmatch(cells[1]) and all(FEATURE.fullmatch(c) for c in cells[2:])):
            return None
        label = LABELS[cells[1]] if cells[1] in LABELS else int(cells[1])
        row = [float(c) for c in cells[2:]]
        if not (-(2**63) <= int(cells[0]) < 2**63 and 0 <= label <= 3):
            return None
        if not all(map(math.isfinite, row)):
            return None
        participants.append(int(cells[0]))
        labels.append(label)
        features.append(row)
    return participants, labels, features


def small_csv() -> bytes:
    """A header and 3 rows whose cells are short, so edits hit every grammar part."""
    cells = ["1.5", "-2", "3e1", ".5", "+0.25", "7.", "0"]
    rows = [
        ",".join([str(p), label] + [cells[(p + j) % len(cells)] for j in range(85)])
        for p, label in ((0, "None"), (1, "2"), (12, "Severe"))
    ]
    return ("\n".join([",".join(CSV_HEADER), *rows]) + "\n").encode()


def test_a_csv_mutant_loads_exactly_when_the_oracle_accepts_it(tmp_path):
    path = tmp_path / "cohort.csv"
    base = small_csv()
    assert oracle(base) is not None
    outcomes = {"loaded": 0, "rejected": 0}
    for content in mutants(base, seed=20221, count=2000):
        path.write_bytes(content)
        expected = oracle(content)
        try:
            ds = load_csv(path)
        except DataError:
            assert expected is None, content
            outcomes["rejected"] += 1
            continue
        assert expected is not None, content
        participants, labels, features = expected
        assert ds.participants.tolist() == participants
        assert ds.labels.tolist() == labels
        assert ds.features.tobytes() == np.array(features).tobytes(), content
        outcomes["loaded"] += 1
    # both sides of the oracle are exercised
    assert min(outcomes.values()) >= 50, outcomes


def test_a_model_file_mutant_loads_or_raises_a_library_error(tmp_path):
    path = tmp_path / "model.bin"
    save_model(build_model(Rng(3), Topology.ONE_LAYER, XAVIER_NORMAL), path)
    base = path.read_bytes()
    outcomes = {"loaded": 0, "rejected": 0}
    fields = 8 + 3 * 4 + 2 * 4  # the magic, three uint32s and the layer's (out, in)
    heads = list(mutants(base[:fields], seed=7, count=700))
    # each edited head alone, so cut short, then followed by the parameters
    for content in heads + [head + base[fields:] for head in heads] + list(mutants(base, 8, 300)):
        path.write_bytes(content)
        try:
            load_model(path)
        except MlpInitError:
            outcomes["rejected"] += 1
        else:
            outcomes["loaded"] += 1
    assert min(outcomes.values()) >= 50, outcomes
