"""The report-digest sweep script, on one suite and group, in a fresh interpreter."""

import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

from qpslab.campaigns import CampaignConfig, run_suite
from qpslab.conventions import CORRUPTIONS

ROOT = Path(__file__).resolve().parents[1]

DRIVER = """
import json, runpy
ns = runpy.run_path("scripts/report_digests.py")
print(json.dumps(ns["digests"](suites=("double",), groups=("sl2",))))
"""


def test_report_digests_on_one_suite_and_group():
    done = subprocess.run([sys.executable, "-c", DRIVER], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    got = json.loads(done.stdout)
    assert sorted(got) == sorted(f"double/sl2/{c}/{s}"
                                 for c in ("frozen", *CORRUPTIONS) for s in (11, 12))
    # the digest of the report with generated_at blanked, as the golden tests take it
    report = run_suite(CampaignConfig(suite="double", group="sl2", samples=4, seed=11))
    text = dataclasses.replace(report, generated_at="").to_json()
    assert got["double/sl2/frozen/11"] == hashlib.sha256(text.encode()).hexdigest()
    # omega-sign fails A2 on the double, so its reports differ
    assert got["double/sl2/omega-sign/11"] != got["double/sl2/frozen/11"]
