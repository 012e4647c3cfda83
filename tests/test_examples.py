"""Every script under ``examples/`` runs to completion.

The examples import the public API the way a reader would, so a
deletion or rename that leaves one behind fails here rather than in
the reader's terminal.  Each runs in a fresh interpreter, from a
scratch directory, with only ``src/`` on the path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES, "no examples/*.py"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, (
        f"{script.name} exited {completed.returncode}:\n{completed.stderr}"
    )
