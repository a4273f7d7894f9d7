"""The convention calibration sweep, run as a script in a fresh interpreter."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run the script's main(), then report the conventions it leaves behind
DRIVER = """
import runpy, sys
main = runpy.run_path("scripts/calibrate_conventions.py")["main"]
rc = main()
from qpslab.conventions import ACTIVE, FROZEN
print("after:", ACTIVE.get() is FROZEN)
sys.exit(rc)
"""


def test_calibration_keeps_exactly_the_frozen_combination():
    done = subprocess.run([sys.executable, "-c", DRIVER], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    survivors = next(l for l in lines if l.startswith("surviving combination(s):"))
    assert ast.literal_eval(survivors.split(":", 1)[1].strip()) == [("-1/2", 1, 1)]
    # the sweep leaves the frozen conventions active
    assert lines[-1] == "after: True"
