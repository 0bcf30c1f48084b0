import os
import re
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def run_script(script, *args):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *args],
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script, args", [
    ("survey_finite_classes.py", ["--max-n", "3"]),
    ("refined_space_walkthrough.py", ["--family-size", "4", "--chain", "3"]),
])
def test_script_runs(script, args):
    done = run_script(script, *args)
    assert done.returncode == 0, done.stderr


def test_survey_output():
    # the timings are cut; the longest chain has n(n+1)/2 orbits for n >= 1
    done = run_script("survey_finite_classes.py", "--max-n", "3")
    assert done.returncode == 0, done.stderr
    assert [re.sub(r" \[\d+\.\d+s\]$", "", line) for line in done.stdout.splitlines()] == [
        "n=0: topologies=1 orbits=1 oracle_agrees=True strongly_reversible_orbits=1 "
        "weakly_reversible_orbits=1 hasse_edges=0 longest_chain=1",
        "n=1: topologies=1 orbits=1 oracle_agrees=True strongly_reversible_orbits=1 "
        "weakly_reversible_orbits=1 hasse_edges=0 longest_chain=1",
        "n=2: topologies=4 orbits=3 oracle_agrees=True strongly_reversible_orbits=2 "
        "weakly_reversible_orbits=3 hasse_edges=2 longest_chain=3",
        "n=3: topologies=29 orbits=9 oracle_agrees=True strongly_reversible_orbits=2 "
        "weakly_reversible_orbits=9 hasse_edges=12 longest_chain=6",
    ] + [f"n={n}: equivalence classes differing from homeomorphism classes: 0 "
         "(finite ground sets force zero)" for n in range(4)]
