"""The benchmark harness against the library it imports and patches.

perfbench imports and wraps library names (the single-instance solvers, the
stacked solvers batch_engine re-exports, the loss aliases in gradients), so
a rename or deletion there breaks the benchmark before any timing runs.
"""

import json
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
    # argparse load only when the command line runs, and statistics (a few
    # ms to import) not at all.
    probe = ("import sys, hardneg; print(*(name in sys.modules for name in "
             "('hardneg.cli', 'argparse', 'statistics')))")
    result = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False", "False"]


def test_module_entry_point_exit_codes(tmp_path):
    # `python -m hardneg.cli` exits through sys.exit(main()): input errors,
    # argparse's among them, give exit 2 and one JSON object on stdout. So do
    # an instance that is not UTF-8 and an output name taken by a directory,
    # which used to end in a traceback and exit 1.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "hardneg.cli", *argv], cwd=tmp_path,
                              capture_output=True, text=True, timeout=60, env=env)

    (tmp_path / "latin1.json").write_bytes(b"\xff{}")
    (tmp_path / "taken" / "solution.json").mkdir(parents=True)
    instance = str(ROOT / "configs" / "instance_arc.json")
    for argv in (("solve", "instance.json", "--bogus"), ("solve", "missing.json"),
                 ("solve", "latin1.json"), ("solve", instance, "--out-dir", "taken")):
        result = run(*argv)
        assert result.returncode == 2, argv
        assert result.stderr == ""
        assert list(json.loads(result.stdout)) == ["error", "message"]
    result = run("--version")
    assert result.returncode == 0
    assert result.stdout.strip()
