"""Tests of the benchmark itself: the instruments change no report, leave no
wrapper behind and count exactly, and every workload completes a tiny run.

Run with ``python -m pytest bench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import layertrace  # noqa: E402
from harness import EXACT, FLOAT, Campaign  # noqa: E402
from qpslab.scalars import QQi  # noqa: E402

TINY = (
    Campaign("gs-theorem1", "sl2", EXACT, 2),
    Campaign("double", "sl2", EXACT, 1),
    Campaign("bivector", "gl2", EXACT, 1),
    Campaign("diagram-gs", "sl3", FLOAT, 3),
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _digests(tracer=None):
    out = []
    for i, c in enumerate(TINY):
        if tracer is not None:
            tracer.campaign = i
        res = harness.run_campaign(c, 5)
        assert not res.raised
        out.append(res.digest)
    return out


def _bindings():
    """Identity of every name the instruments may replace."""
    owners = layertrace._qpslab_modules() + [QQi] + [
        owner for owner, _ in layertrace.LAYER_CALLS.values() if isinstance(owner, type)]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_traced_and_counted_reports_are_byte_identical():
    plain = _digests()
    with layertrace.SpanTracer() as tracer:
        traced = _digests(tracer)
    with layertrace.WorkCounter():
        counted = _digests()
    assert traced == plain
    assert counted == plain
    assert tracer.campaigns_seen() == set(range(len(TINY)))


def test_wrappers_are_removed_after_the_run():
    from qpslab import campaigns, dirac, gspringer, linalg

    original_kernel = linalg.kernel
    before = _bindings()
    with layertrace.SpanTracer():
        for mod in (linalg, dirac, gspringer, campaigns):
            assert mod.kernel is not original_kernel
            assert mod.kernel.__wrapped__ is original_kernel
        _digests()
    with pytest.raises(RuntimeError):
        with layertrace.WorkCounter():
            assert QQi.__mul__ is not before[(id(QQi), "__mul__")]
            raise RuntimeError("body failed")
    assert _bindings() == before


def test_counts_repeat_exactly():
    runs = []
    for _ in range(2):
        with layertrace.WorkCounter() as counter:
            _digests()
        runs.append(counter.counts)
    assert runs[0] == runs[1]
    assert all(v > 0 for v in runs[0].values())


def test_per_layer_run_reports_every_named_metric(monkeypatch):
    monkeypatch.setitem(harness.WORKLOADS, "tiny", TINY)
    out = harness.per_layer("tiny", 3)
    assert out["correct"], out["info"]
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(out["metrics"]) == names


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke_run(workload):
    """One round at the default seed: verdicts and recorded digests hold."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(harness.DEFAULT_SEED),
                             "--seconds", "0.001", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["correct"] is True
    assert out["attempted"] == sum(c.samples for c in harness.WORKLOADS[workload])
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", "small-mix", "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_round_count_is_fixed_by_seconds():
    """The work of a run, and so its verdict counts, does not depend on timing."""
    for workload in harness.WORKLOADS:
        assert harness.round_count(workload, 0.001) == 1
        assert harness.round_count(workload, SPEC["run_seconds"]) >= 3
