"""The benchmark harness against the library it imports and patches.

perfbench imports and wraps library names (the single-instance solvers, the
stacked solvers batch_engine re-exports, the loss aliases in gradients), so
a rename or deletion there breaks the benchmark before any timing runs.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-4000:]
