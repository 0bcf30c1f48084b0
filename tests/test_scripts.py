import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


@pytest.mark.parametrize("script, args", [
    ("survey_finite_classes.py", ["--max-n", "3"]),
    ("refined_space_walkthrough.py", ["--family-size", "4", "--chain", "3"]),
])
def test_script_runs(script, args):
    done = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *args],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
