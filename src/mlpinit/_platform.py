"""Which determinism tier this process is in: README's Determinism section
pins drawn bits per numpy SIMD path and trained bits per BLAS kernel. The
library never imports this module, so ``import mlpinit`` does not run it."""

import ctypes
import platform

try:  # this loads numpy, and with it its BLAS
    from numpy._core._multiarray_umath import __cpu_dispatch__
except ImportError:  # numpy 1 keeps it in numpy.core
    __cpu_dispatch__ = ()

# numpy's AVX-512 dispatch targets, as its build lists them: X86_V4,
# AVX512_ICL and AVX512_SPR from numpy 2.4 on, AVX512F, AVX512_SKX and the
# like before it. With any of them on, numpy's ``exp`` and ``log`` run their
# AVX-512 loops; disabling all of them (by naming them in
# NPY_DISABLE_CPU_FEATURES) makes numpy take its AVX2 loops.
AVX512_TARGETS = tuple(t for t in __cpu_dispatch__ if t == "X86_V4" or t.startswith("AVX512"))


def fingerprint() -> tuple[tuple[str, ...], str]:
    """``(kernels, simd)``: the kernel name of each OpenBLAS library this
    process has mapped, read from it through ``ctypes`` (none without a
    ``/proc/self/maps``), and numpy's x86 SIMD path: "avx512", "avx2" or
    "baseline". The path is "unknown" off x86, and where numpy's CPU feature
    table cannot be imported."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    kernels = []
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except FileNotFoundError:
        libs = []
    for lib in libs:
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename"):
            get = getattr(ctypes.CDLL(lib), name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                kernels.append(get().decode())
                break
    x86 = platform.machine().lower() in ("x86_64", "amd64", "i386", "i686")
    if not x86 or not features:
        simd = "unknown"
    elif any(features.get(target) for target in AVX512_TARGETS):
        simd = "avx512"
    elif features.get("AVX2") and features.get("FMA3"):
        simd = "avx2"
    else:
        simd = "baseline"
    return tuple(kernels), simd
