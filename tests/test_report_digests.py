"""The report-digest sweep script, on one suite and group and on the float
route, in a fresh interpreter, and its arguments."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qpslab.campaigns import CampaignConfig, run_suite
from qpslab.conventions import CORRUPTIONS
from qpslab.linalg import FLOAT

ROOT = Path(__file__).resolve().parents[1]

DRIVER = """
import json, runpy
ns = runpy.run_path("scripts/report_digests.py")
print(json.dumps(ns["digests"](suites=("double",), groups=("sl2",))))
print(json.dumps(ns["digests"](suites=("diagram-gs",), groups=("gl3",),
                               corruptions=(), seeds=(11,))))
"""


def test_report_digests_on_one_suite_and_group():
    done = subprocess.run([sys.executable, "-c", DRIVER], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    got, float_route = map(json.loads, done.stdout.splitlines())
    assert sorted(got) == sorted(f"double/sl2/{c}/{s}"
                                 for c in ("frozen", *CORRUPTIONS) for s in (11, 12))
    # the digest of the report with generated_at blanked, as the golden tests take it
    report = run_suite(CampaignConfig(suite="double", group="sl2", samples=4, seed=11))
    text = dataclasses.replace(report, generated_at="").to_json()
    assert got["double/sl2/frozen/11"] == hashlib.sha256(text.encode()).hexdigest()
    # omega-sign fails A2 on the double, so its reports differ
    assert got["double/sl2/omega-sign/11"] != got["double/sl2/frozen/11"]
    # a suite with a float route adds it, at the frozen conventions
    report = run_suite(CampaignConfig(suite="diagram-gs", group="gl3", backend=FLOAT,
                                      samples=4, seed=11))
    text = dataclasses.replace(report, generated_at="").to_json()
    assert float_route == {"diagram-gs-float/gl3/frozen/11":
                           hashlib.sha256(text.encode()).hexdigest()}


SCRIPT = ROOT / "scripts" / "report_digests.py"

# main with a sweep that fails the run, so that no case below runs one
NO_SWEEP = f"""
import runpy, sys
main = runpy.run_path({str(SCRIPT)!r})["main"]
main.__globals__["digests"] = lambda: sys.exit("the sweep ran")
sys.exit(main(sys.argv[1:]))
"""


def run_without_a_sweep(cwd, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", NO_SWEEP, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("args, code", [
    (["-h"], 0), (["--help"], 0), (["-o"], 2), (["--output", "d.json"], 2),
    (["-"], 2), (["a.json", "b.json"], 2), (["a.json", "--help"], 2),
])
def test_options_print_the_usage_and_write_nothing(tmp_path, args, code):
    # an argument that starts with "-" is no output path: the help exits 0,
    # any other option 2, and neither runs the sweep or makes a file
    done = run_without_a_sweep(tmp_path, *args)
    assert done.returncode == code, done.stdout + done.stderr
    assert (done.stdout if code == 0 else done.stderr).startswith("usage: ")
    assert list(tmp_path.iterdir()) == []


def test_an_unwritable_output_is_refused_before_the_sweep(tmp_path):
    done = run_without_a_sweep(tmp_path, str(tmp_path / "missing" / "d.json"))
    assert done.returncode == 2, done.stdout + done.stderr
    assert done.stderr.startswith("error: cannot write digests")
