"""Decisions hold across numpy SIMD targets.

numpy runs exp and log1p through AVX-512 loops where the CPU has them and
through AVX2 loops otherwise, and the two round differently, so the
equivocation bytes of a construction depend on the target.  The decisions
built on them must not: the golden profile (tests/test_golden.py: the
info-set sha256, k and the four failed-pool lists) must pass unchanged in
a subprocess whose numpy has its AVX-512 targets disabled.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import genoweave

TESTS = Path(__file__).resolve().parent
AVX2 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def _python_under_avx2(*args: str) -> subprocess.CompletedProcess:
    # the subprocess imports the same genoweave as this process
    path = os.pathsep.join(filter(None, [str(Path(genoweave.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, **AVX2, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=600)


@pytest.mark.skipif(not (__cpu_features__.get("AVX512_SKX")
                         and {"X86_V4", "AVX512_SKX"} & set(__cpu_dispatch__)),
                    reason="numpy does not dispatch AVX512_SKX here, so the subprocess "
                           "would run the same target as this process")
def test_golden_decisions_hold_under_avx2():
    probe = _python_under_avx2(
        "-c", "from numpy._core._multiarray_umath import __cpu_features__ as f; "
              "print(f['AVX512_SKX'], f['AVX2'])")
    assert probe.stdout.split() == ["False", "True"], probe.stdout + probe.stderr
    run = _python_under_avx2("-m", "pytest", "-q", "-p", "no:cacheprovider",
                             str(TESTS / "test_golden.py"))
    assert run.returncode == 0 and "5 passed" in run.stdout, run.stdout[-4000:] + run.stderr
