"""Smoke tests: the fast examples must run end to end.

``generation_with_quantized_kv`` loads a model trained on first run and
is exercised by the benches that share its code paths; here we run the
examples that complete in seconds (``llm_quantization`` on the
committed ``unit-test`` model).
"""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "examples")


def run_example(name: str, *args: str, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "max |difference| = 0.00e+00" in out
    assert "MANT grids" in out


def test_datatype_explorer():
    out = run_example("datatype_explorer.py")
    assert "pot4" in out and "Reverse lookup" in out


def test_kv_cache_streaming():
    out = run_example("kv_cache_streaming.py")
    assert "two-phase window" in out
    # MANT's K error column must beat INT4's on the outlier channel data.
    assert "decode:" in out


def test_accelerator_comparison():
    out = run_example("accelerator_comparison.py")
    assert "geomeans" in out
    assert "BitFusion" in out


def test_llm_quantization_unit_test():
    # The KV row runs the teacher-forced perplexity through the KV caches.
    out = run_example("llm_quantization.py", "unit-test")
    assert "PTQ comparison on unit-test" in out
    assert "MANT W4A8 + KV 8/4" in out
