"""Known-answer tests for the outputs that do not depend on the BLAS kernel.

README's Determinism section says which of these are bit-identical on every
platform (the RNG's words, uniform draws and permutations, the uniform
initializers, the splits and the file formats) and which only per numpy SIMD
path (everything drawn through ``Rng.normal``, whose ``log`` can differ in
the last bit). Each case hashes one output with sha256 and compares it with
the digest recorded when the case was written; a change to any of them
changes the bits of every experiment that uses it. A case of the second
group is checked against the digest of the SIMD path that
``mlpinit._platform.fingerprint()`` names, or against either where it reads
"unknown". Training is bit-identical only per BLAS kernel, so no trained
weights appear here. On a machine where numpy dispatches to AVX-512, one more
test reruns this file with those targets disabled, so both recorded paths
are checked on every run.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import run_python

from mlpinit._platform import AVX512_TARGETS, fingerprint
from mlpinit.data import Dataset, holdout_split, save_csv, synthesize_dataset
from mlpinit.harness import save_model
from mlpinit.initializers import ALL_SCHEMES, initialize
from mlpinit.network import Topology, build_model
from mlpinit.numerics import Rng, derive_seed

# Seeds at both ends of the 64-bit range, a negative one (taken mod 2**64)
# and one wider than 64 bits.
SEEDS = (0, 1, 42, 2**63, 2**64 - 1, -7, 2**70 + 3)


def _u64(values) -> bytes:
    return np.asarray(values, dtype=np.uint64).astype("<u8").tobytes()


def _f64(values) -> bytes:
    return np.asarray(values, dtype=np.float64).astype("<f8").tobytes()


def _words():
    # the scalar path (randbelow) and the bulk path share one counter
    out = []
    for seed in SEEDS:
        rng = Rng(seed)
        out.append(_u64(rng._next_block(1000)))
        rng.randbelow(2)
        out.append(_u64(rng._next_block(3)))
    return b"".join(out)


def _random():
    return b"".join(_f64(Rng(seed).random(1001)) for seed in SEEDS)


def _normal():
    return b"".join(
        _f64(Rng(seed).normal(n, mean, variance))
        for seed in SEEDS
        for n, mean, variance in ((1000, 0.0, 1.0), (7, -1.5, 0.25))
    )


def _permutation():
    return b"".join(_u64(Rng(seed).permutation(n)) for seed in SEEDS for n in (1, 2, 85, 156))


def _randbelow():
    bounds = (1, 2, 3, 4, 7, 100, 1000003, 2**32 + 1, 2**63 + 5, 2**64)
    return _u64([Rng(seed).randbelow(b) for seed in SEEDS for b in bounds for _ in range(5)])


def _derive_seed():
    streams = (0, 1, 2, 3, 4, 155, 2**32, 2**64 - 1)
    return _u64([derive_seed(seed, stream) for seed in SEEDS for stream in streams])


def _initialize(scheme):
    def digest_input():
        rng = Rng(derive_seed(11, 3))
        return b"".join(_f64(initialize(rng, scheme, rows, cols))
                        for rows, cols in ((50, 85), (20, 50), (4, 20)))
    return digest_input


def _synthesis():
    out = []
    for seed, participants, records, separation in ((0, 16, 12, 2.0), (2**64 - 1, 3, 5, 0.5)):
        ds = synthesize_dataset(seed, participants, records, separation)
        out += [_f64(ds.features), ds.labels.astype("<i8").tobytes(),
                ds.participants.astype("<i8").tobytes()]
    return b"".join(out)


def _synthesis_at_workload_size():
    # the cohort-io benchmark's 384 x 12 cohort: one block of 4,608 records
    out = []
    for seed in (0, 2**64 - 1):
        ds = synthesize_dataset(seed, 384, 12, 2.0)
        out += [_f64(ds.features), ds.labels.astype("<i8").tobytes(),
                ds.participants.astype("<i8").tobytes()]
    return b"".join(out)


def _holdout_indices():
    # participant ids are the row numbers, so each split's ids are its indices
    out = []
    for n, seed, fraction in ((192, 0, 0.2), (157, 2**64 - 1, 0.3), (40, 9, 0.5)):
        labels = (np.arange(n) * 7 // 3) % 4
        ds = Dataset(np.zeros((n, 85)), labels, np.arange(n))
        trainval, test = holdout_split(ds, fraction, seed)
        out += [_u64(trainval.participants), _u64(test.participants)]
    return b"".join(out)


def _csv_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cohort.csv"
        save_csv(synthesize_dataset(5, 4, 3, 2.0), path)
        return path.read_bytes()


def _model_bytes():
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        for k, topology in enumerate(Topology):
            for scheme in ALL_SCHEMES:
                save_model(build_model(Rng(100 + k), topology, scheme), path)
                out.append(path.read_bytes())
    return b"".join(out)


CASES = {
    "rng-words": _words,
    "rng-random": _random,
    "rng-normal": _normal,
    "rng-permutation": _permutation,
    "rng-randbelow": _randbelow,
    "derive-seed": _derive_seed,
    **{f"initialize-{scheme}": _initialize(scheme) for scheme in ALL_SCHEMES},
    "synthesize-dataset": _synthesis,
    "synthesize-dataset-384x12": _synthesis_at_workload_size,
    "holdout-split-indices": _holdout_indices,
    "save-csv-bytes": _csv_bytes,
    "save-model-bytes": _model_bytes,
}

# One digest per case. The cases drawn through Rng.normal have one per numpy
# log code path: its AVX-512 loops, and its AVX2 loops, whose bits its older
# x86 paths share.
EXPECTED = {
    "rng-words": "a8a78ce2bdef699d771bd21aec422a1872fb9cd1c0d9c657ebfa6a4e7c97ec07",
    "rng-random": "510e4ad64861a8aac389d8b47b1fd16e06148839197a51c5c4b8f02440a8a419",
    "rng-normal": {
        "avx512": "a774b22517c74dee24e48c3e77053ac0fbd1c053a53261277e8881fa5ae6b861",
        "avx2": "f0a87ada15d13d0c30dd54ef59a1b5cc84000bcb0a0fdc4b7f8aba68ad7e34ef",
    },
    "rng-permutation": "604978dcae0f40ca9899106627dd0d7c799f6e4da50a85fe0e91922db3e9a8b3",
    "rng-randbelow": "52f62d9bbc66774308337a30699cb3b85ccf8048627d8503fbbdc0f358db7c1f",
    "derive-seed": "70eb09ef576c353ee5a9786c02ecdd07dcb019e765a44de7211d5c6f1843a055",
    "initialize-xavier-normal": {
        "avx512": "a58876b1287040089fd0d30b0d903aed8c2144d299782db47b9e3bbc9a7dfc3d",
        "avx2": "b3f1ea841dabe02933bc6222d6a69a07ae2de8677730443d5a710f0d62191350",
    },
    "initialize-xavier-uniform": "86b74867f7ef840fd7e3ce86b866657f53cf8febe5245db9823bbd2eb89ff3c3",
    "initialize-kaiming-normal": {
        "avx512": "0767fd7dbfd5bc8e013ace52f4a6ecae1eb6f12f77097c97ccbbc753a7248810",
        "avx2": "e30987042843d0456d276f42d31cc3b11c52d1bfa045345c2923be3d4e52e9b0",
    },
    "initialize-kaiming-uniform": "a313903c7eede6538d32b21501d4080335c31bf86d3a7ae8a184d85f3092c828",
    "synthesize-dataset": {
        "avx512": "933870b94f0b16fb1c3236a8b4895851c3b061b8d6aadfaa90c406e8f16f5869",
        "avx2": "11192bff979a120a45c35a93ae959c5bfc5f9a17589d3bad149c60808b9dc3bf",
    },
    "synthesize-dataset-384x12": {
        "avx512": "a286d502ee6ae138c59afc73fa39df148b5fd5f88586226de17bd67ecb895fbf",
        "avx2": "7a5ff21874e704729d14ba8fc386656385d63978299f5fc23e00d3e9db67bf68",
    },
    "holdout-split-indices": "84230a10c27e921974c924826ab5cbd92037a89cca3d5cf4ac32260e8bd96d74",
    "save-csv-bytes": "607d16605b19d948adc318cc2bdb435d2133a9d7f7669ce61adba67cffeeb62b",
    "save-model-bytes": {
        "avx512": "540f2acb7ba16110b55067c00d56e72889926428ef1003abd592f959397bc8f3",
        "avx2": "6e8c1876896154c318f569e2913b669995f0130bc549f324a161f8400c498b77",
    },
}


@pytest.mark.parametrize("name", list(CASES))
def test_known_answer(name):
    digest = hashlib.sha256(CASES[name]()).hexdigest()
    expected = EXPECTED[name]
    if isinstance(expected, dict):  # one digest per numpy log code path
        simd = fingerprint()[1]
        if simd == "unknown":
            assert digest in expected.values()
            return
        expected = expected["avx512" if simd == "avx512" else "avx2"]
    assert digest == expected


CHILD = """
import sys
import pytest
from mlpinit._platform import fingerprint
assert fingerprint()[1] == "avx2", fingerprint()
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", "-k", "not avx2_path", {path!r}]))
"""


def test_known_answers_hold_on_the_numpy_avx2_path():
    if fingerprint()[1] != "avx512":
        pytest.skip("numpy reports no AVX-512 dispatch target to disable here")
    env = {"NPY_DISABLE_CPU_FEATURES": " ".join(AVX512_TARGETS)}
    done = run_python("-c", CHILD.format(path=__file__), env=env)
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"{len(CASES)} passed" in done.stdout, done.stdout
