"""Known answers for trained bits, per OpenBLAS kernel and numpy SIMD path.

README's contract is that trained weights and ``result.json`` are
bit-identical per numpy SIMD path and BLAS kernel. Each case here hashes
with sha256 what a training gives: a small LOO experiment per topology (its
``result_to_dict`` JSON and every byte of the reported model's parameters)
and, per topology, a 20-fold ``_train`` stack whose 50 rows per fold walk
full and short batches (every parameter byte). A change meant to keep every
trained bit must reproduce these digests; one that changes bits on purpose
records them again and says why in CHANGES.md.

The cases run in subprocesses: under ``OPENBLAS_CORETYPE=Haswell``, and on a
CPU with AVX-512 also under SkylakeX, each on numpy's own SIMD path and, where
numpy dispatches to AVX-512, once more with those targets disabled. Each
child's ``mlpinit._platform.fingerprint()`` must read the forced kernel, and
with the targets disabled numpy's AVX2 path. A run skips, with the reason,
where the kernel cannot be forced or no digests were recorded for its
(kernel, SIMD path).
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from mlpinit._platform import AVX512_TARGETS, fingerprint

CHILD = """
import hashlib, json
import numpy as np
from mlpinit._platform import fingerprint
from mlpinit.harness import ExperimentConfig, SyntheticSpec, _train, result_to_dict, run_experiment
from mlpinit.initializers import KAIMING_NORMAL, KAIMING_UNIFORM, XAVIER_NORMAL, XAVIER_UNIFORM
from mlpinit.network import Topology
from mlpinit.numerics import Rng, derive_seed

def parameter_bytes(model):
    return b"".join(a.tobytes() for layer in model.layers for a in (layer.weights, layer.bias))

digests = {}
for topology, scheme in ((Topology.ONE_LAYER, XAVIER_NORMAL),
                         (Topology.TWO_LAYER, KAIMING_UNIFORM),
                         (Topology.THREE_LAYER, KAIMING_NORMAL)):
    result = run_experiment(ExperimentConfig(
        topology=topology, scheme=scheme, seed=11, epochs=30,
        synthetic=SyntheticSpec(participants=8, records_per_participant=6, separation=1.0),
    ))
    blob = json.dumps(result_to_dict(result), sort_keys=True).encode()
    blob += parameter_bytes(result.model)
    digests[f"loo-{topology.value}-layer-{scheme}"] = hashlib.sha256(blob).hexdigest()

features = Rng(5).uniform(-2.0, 2.0, 64 * 85).reshape(64, 85)
labels = np.arange(64) % 4
rows = np.stack([Rng(derive_seed(6, k)).permutation(64)[:50] for k in range(20)])
for topology, scheme in ((Topology.ONE_LAYER, XAVIER_UNIFORM),
                         (Topology.TWO_LAYER, KAIMING_NORMAL),
                         (Topology.THREE_LAYER, XAVIER_NORMAL)):
    config = ExperimentConfig(topology=topology, scheme=scheme, seed=0, epochs=12,
                              synthetic=SyntheticSpec())
    stack = _train(config, features, labels, rows,
                   [Rng(derive_seed(7, k)) for k in range(20)], [f"fold {k}" for k in range(20)])
    blob = parameter_bytes(stack)
    digests[f"stack20-{topology.value}-layer-{scheme}"] = hashlib.sha256(blob).hexdigest()

print(json.dumps({"fingerprint": fingerprint(), "digests": digests}))
"""

# Per (OpenBLAS kernel, numpy SIMD path), the digest of each case.
EXPECTED = {
    ("Haswell", "avx512"): {
        "loo-1-layer-xavier-normal":
            "6a8c516841b717d6812cad0ac6d09a9d3c8a4410e880d8caccb7ce26de64ca28",
        "loo-2-layer-kaiming-uniform":
            "c06cea285fb2eb6cb5e3c0f1cd1e79e0206c4ef8d687ae77a10b9e43a9918408",
        "loo-3-layer-kaiming-normal":
            "009f894ed43f183936b9a54b7b1a5ebe925a41942cf6883aea1c1434f097dd53",
        "stack20-1-layer-xavier-uniform":
            "6379f67f28566b49b9380a8dcbade9df5b9b84af890230a16d63e3f5f20b4f75",
        "stack20-2-layer-kaiming-normal":
            "b314a3ee17fac6b9f4cb74163c4cb6c4a016a70de73b7d2696b22f07554d8b40",
        "stack20-3-layer-xavier-normal":
            "8916ea4d1e47e9a56a40e72c1d4ee84360c4730fb266dc84c5dd867a9e3ecfcf",
    },
    ("Haswell", "avx2"): {
        "loo-1-layer-xavier-normal":
            "a3783c224bb403cb01c1483ceeb5ee516f2c45f606ddb56709c0fc2ea1bd3593",
        "loo-2-layer-kaiming-uniform":
            "76a8c8aef87dbb3ff392cd2963fd539b52038f405ae4d8567a7debcb1e1aaa55",
        "loo-3-layer-kaiming-normal":
            "fef61c7ec00325fad18caab37526b2adababd436f9f5747277dd444eda728208",
        "stack20-1-layer-xavier-uniform":
            "2b186766066a953d525fe2b368d8e9fe074c72332bfdf99030f0b0c1e0601863",
        "stack20-2-layer-kaiming-normal":
            "4b32e08adfaa28f19df37887dad528189004440a7f5855bac0d02d3c8176726a",
        "stack20-3-layer-xavier-normal":
            "f1330795df8d8dc91e7389f1b51bed20894649a48429d44f26714e5eb2d236d4",
    },
    ("SkylakeX", "avx512"): {
        "loo-1-layer-xavier-normal":
            "c6513302e692cd6d0a4acacc8b280b4cf5c1711262e96a161a9876c9feedc088",
        "loo-2-layer-kaiming-uniform":
            "2e3b46ed58fba980a1a5b474965ced5e32419be02a3f6922454cee4e0f5fbbd2",
        "loo-3-layer-kaiming-normal":
            "59fa93c5907df0061140a0291e552f4348332132b59ad42397e262d3c0e0e3e0",
        "stack20-1-layer-xavier-uniform":
            "c8961e18292b8a10cf7a0a2586c8cf0fb3ab073b6a6e797b59a67664580c2f0b",
        "stack20-2-layer-kaiming-normal":
            "4144b33fe469fca7633385dade5ee1ec0cf2fb8c72ff3e3545f02f0f725a843d",
        "stack20-3-layer-xavier-normal":
            "4989e76c5ebf9069d3a10eb1a8682a2b26798c21c584d71b3eef98e3838ec062",
    },
    ("SkylakeX", "avx2"): {
        "loo-1-layer-xavier-normal":
            "60082cc4978ca7b5182bdf6624490a078dcb40537091f3a6600b9c5824f15bee",
        "loo-2-layer-kaiming-uniform":
            "06a553508b8e306462f7dccd81c6146160bb1bdcc1566ce4420735c48df8a608",
        "loo-3-layer-kaiming-normal":
            "0d941cef68e9241754040716b10a4101946ef23eb31585f05637aba47999e02e",
        "stack20-1-layer-xavier-uniform":
            "c516ee9a0e59f4ca369ac5bfba1af411645b6020d306723fea0d6395b4c00c43",
        "stack20-2-layer-kaiming-normal":
            "7fa9582f22966edcb53e3d4d6040e0df4947fff2034a896f29756288d520801e",
        "stack20-3-layer-xavier-normal":
            "fabef83bfaaa9491cec37c3f44e0f6732b613302d27448b0d558be195b61cc9a",
    },
}


def _child(kernel: str, disable_avx512: bool) -> dict:
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disable_avx512:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(AVX512_TARGETS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.skipif(
    sys.platform != "linux" or platform.machine() != "x86_64",
    reason="OPENBLAS_CORETYPE names x86_64 OpenBLAS kernels, and the probe reads /proc",
)
@pytest.mark.parametrize("kernel", ["Haswell", "SkylakeX"])
@pytest.mark.parametrize("numpy_path", ["native", "avx2"])
def test_trained_bits_match_the_known_answers(kernel, numpy_path, dynamic_openblas):
    _, simd = fingerprint()
    if not dynamic_openblas:
        pytest.skip("numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH, "
                    "so OPENBLAS_CORETYPE cannot force a kernel")
    if simd not in ("avx2", "avx512"):
        pytest.skip(f"the fingerprint names no AVX2 here (numpy's {simd} path), "
                    f"so OpenBLAS may not run its {kernel} kernel")
    if kernel == "SkylakeX" and simd != "avx512":
        pytest.skip(f"numpy's AVX-512 targets are off here (its {simd} path), "
                    "so OpenBLAS may not run its SkylakeX kernel")
    if numpy_path == "avx2" and simd != "avx512":
        pytest.skip("numpy reports no AVX-512 dispatch target to disable here")
    run = _child(kernel, disable_avx512=numpy_path == "avx2")
    kernels, simd = run["fingerprint"]
    assert kernels == [kernel], f"OPENBLAS_CORETYPE={kernel} ran the kernels {kernels}"
    if numpy_path == "avx2":
        assert simd == "avx2", f"NPY_DISABLE_CPU_FEATURES left numpy on its {simd} path"
    expected = EXPECTED.get((kernel, simd))
    if expected is None:
        pytest.skip(f"no digests recorded for the {kernel} kernel on numpy's {simd} path")
    assert run["digests"] == expected, f"{kernel} kernel, numpy {simd} path"
