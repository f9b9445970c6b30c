"""What the BLAS and SIMD tests need to know about this machine's numpy.

Not a test module: ``tests/test_blas_kernels.py`` and
``tests/test_trained_bits.py`` import it, in the test process and in the
subprocesses they start with ``OPENBLAS_CORETYPE`` set.
"""

import ctypes

import numpy as np

# numpy's AVX-512 dispatch targets; disabling them (NPY_DISABLE_CPU_FEATURES)
# makes numpy take its AVX2 loops.
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")

_CORENAME_FUNCTIONS = (
    "scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename",
)


def corenames() -> list[str]:
    """The kernel name of each OpenBLAS library this process has mapped,
    read from the library itself through ``ctypes``; [] where the process
    has no ``/proc/self/maps`` to list them."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except FileNotFoundError:
        return []
    names = []
    for lib in libs:
        for name in _CORENAME_FUNCTIONS:
            get = getattr(ctypes.CDLL(lib), name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                names.append(get().decode())
                break
    return names


def dynamic_openblas() -> bool:
    """Is numpy's BLAS an OpenBLAS built with DYNAMIC_ARCH, whose kernel
    ``OPENBLAS_CORETYPE`` picks?"""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas["name"] and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


def cpu_features() -> dict:
    """numpy's CPU feature flags, as its dispatch sees them; {} where numpy
    does not report them."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return {}
    return __cpu_features__


def simd_path() -> str:
    """The x86 SIMD level numpy's ``exp`` and ``log`` loops run at:
    "avx512", "avx2" or "baseline"."""
    features = cpu_features()
    if features.get("X86_V4") or features.get("AVX512_SKX"):
        return "avx512"
    if features.get("AVX2") and features.get("FMA3"):
        return "avx2"
    return "baseline"
