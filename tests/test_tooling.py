"""The benchmark harness against the library it imports and patches.

perfbench imports and wraps library names (the single-instance solvers, the
stacked solvers batch_engine re-exports, the loss aliases in gradients), so
a rename or deletion there breaks the benchmark before any timing runs.
"""

import os
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


def test_perfbench_seams_exist(monkeypatch):
    # The traced run wraps library names, some of which (batch_engine's
    # re-exported row solvers) the library itself no longer calls; a
    # cleanup that deletes one fails here instead of in the slow self-test.
    for path in (ROOT / "src", ROOT / "perfbench"):
        monkeypatch.syspath_prepend(str(path))
    import workloads

    session = workloads.Session(workloads.WORKLOADS["desk_train"], seed=0, trace=True)
    try:
        session.install()
    finally:
        session.uninstall()


def test_import_stays_light():
    # A fresh `import hardneg` is most of perfbench's setup_s; the CLI and
    # argparse load only when the command line runs.
    probe = "import sys, hardneg; print('hardneg.cli' in sys.modules, 'argparse' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False"]
