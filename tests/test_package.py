"""The package's public surface."""

import os
import subprocess
import sys
from pathlib import Path

import twistsense

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_exported_name_resolves_once():
    names = twistsense.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(twistsense, name)] == []


def test_dense_reference_check_runs_on_numpy_alone():
    # The runtime depends on numpy only, so the command line and its dense
    # reference check must never import scipy.
    script = (
        "import sys, twistsense.cli\n"
        "assert twistsense.cli.main(['validate', '--only', 'dense_reference']) == 0\n"
        "assert 'scipy' not in sys.modules\n"
    )
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "PASS protocols.dense_reference" in run.stdout
