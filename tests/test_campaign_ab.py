"""The paired campaign timer, on checkouts whose workload is one tiny
campaign.

A stand-in checkout links the repository's ``src`` and has a
``bench/harness.py`` that runs the real harness and then replaces its
workload table, so the script runs unchanged on a campaign small enough
for a unit test.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "campaign_ab.py"
sys.path.insert(0, str(ROOT / "bench"))

import harness  # noqa: E402

STUB = """\
import sys
from pathlib import Path

sys.path.append({bench!r})
exec(compile(Path({harness!r}).read_text(), {harness!r}, "exec"))
WORKLOADS = {{"tiny": (Campaign({suite!r}, "sl2", EXACT, 1),)}}
"""


def checkout(path: Path, suite: str) -> Path:
    """A checkout of this repository whose workload "tiny" is one point of
    ``suite`` on sl2."""
    (path / "bench").mkdir(parents=True)
    (path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    (path / "bench" / "harness.py").write_text(STUB.format(
        bench=str(ROOT / "bench"), harness=str(ROOT / "bench" / "harness.py"),
        suite=suite))
    return path


def run(parent: Path, change: Path, out: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change), "--workload", "tiny",
         "--rounds", "2", "--label", "smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=60)


def test_one_campaign_on_the_same_checkout_twice(tmp_path):
    side = checkout(tmp_path / "side", "regact")
    done = run(side, side, tmp_path)
    assert done.returncode == 0, done.stderr
    out = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert out["workload"] == "tiny" and out["rounds"] == 2
    assert out["seed"] == harness.DEFAULT_SEED
    # the same code on both sides writes the same reports
    assert out["reports_identical"]
    (label, cell), = out["campaigns"].items()
    assert label == "regact.sl2"
    assert cell["parent_cpu_s"] > 0 and cell["change_cpu_s"] > 0
    assert 0 <= cell["change_faster"] <= 2
    assert out["round"]["ratio"] == cell["ratio"]
    assert json.loads(done.stdout.splitlines()[-1]) == out["round"]


def test_checkouts_with_different_campaigns_are_refused(tmp_path):
    parent = checkout(tmp_path / "parent", "regact")
    change = checkout(tmp_path / "change", "bivector")
    done = run(parent, change, tmp_path)
    assert done.returncode != 0 and "list different campaigns" in done.stderr
    assert not (tmp_path / "BENCH_smoke.json").exists()
