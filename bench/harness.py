"""Workloads, timed rounds and the correctness gate of the qpslab benchmark.

One client runs campaigns one after another through the public
``campaigns.run_suite`` with ``jobs=1`` (a closed loop: the next campaign
starts when the previous report is back).  A workload is a fixed list of
(suite, group, backend, samples) campaigns; one pass over the list is a
round.  Round ``r`` of workload seed ``s`` uses campaign seed ``s * 1000 + r``,
so every round verifies fresh points and the same seed gives the same
inputs.  A run does a fixed number of whole rounds, sized from ``--seconds``,
so the same seed and seconds always verify the same points and give the same
``attempted`` and ``failed``.  See README.md for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from qpslab import campaigns, liegroup
from qpslab.linalg import EXACT, FLOAT

import layertrace
import speedprobe

DEFAULT_SEED = 20260809
GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
SETUP_REPEATS = 7

SL3GL3 = ("sl3", "gl3")
SL2GL2 = ("sl2", "gl2")


@dataclasses.dataclass(frozen=True)
class Campaign:
    suite: str
    group: str
    backend: str
    samples: int

    @property
    def label(self) -> str:
        suite = self.suite if self.backend == EXACT else f"{self.suite}-{self.backend}"
        return f"{suite}.{self.group}"


WORKLOADS = {
    # elimination-bound: rref/kernel/rank and QuotientChart on 14x14..28x28;
    # 4 samples = the 3 forced degenerate strata of gspoint_stream + 1 generic
    "quotient-sl3gl3": tuple(
        Campaign(s, g, EXACT, 4)
        for s in ("gs-theorem1", "gs-theorem2", "bivector", "regact")
        for g in SL3GL3),
    # matmul- and dual-number-bound: A4 samples and the Dorfman closure
    "double-sl3gl3": tuple(
        Campaign(s, g, EXACT, 1)
        for s in ("double", "dorfman-closure", "cartan-dirac")
        for g in SL3GL3),
    # per-call overhead on 2x2/3x3 matrices, plus the only float path
    "small-mix": tuple(
        Campaign(s, g, EXACT, 6) for s in campaigns.SUITE_NAMES for g in SL2GL2
    ) + tuple(Campaign("diagram-gs", g, FLOAT, 20) for g in SL2GL2 + SL3GL3),
}


# wall seconds of one round on the reference box (2 shared cores) at its
# usual speed; a run of ``seconds`` does ``seconds / ROUND_S`` whole rounds
ROUND_S = {"quotient-sl3gl3": 8.0, "double-sl3gl3": 5.0, "small-mix": 5.0}


def workload_groups(name: str) -> list[str]:
    return sorted({c.group for c in WORKLOADS[name]})


def round_seed(seed: int, r: int) -> int:
    return seed * 1000 + r


@dataclasses.dataclass
class CampaignResult:
    campaign: Campaign
    seconds: float
    wrong_points: int
    digest: str | None  # SHA-256 of the report without its timestamp
    raised: bool = False
    probe_s: float = 0.0  # mean speed probe just before and just after


def canonical_report(report) -> str:
    """The report as JSON with ``generated_at`` blanked: fixed per inputs."""
    return dataclasses.replace(report, generated_at="").to_json()


def run_campaign(c: Campaign, seed: int) -> CampaignResult:
    cfg = campaigns.CampaignConfig(suite=c.suite, group=c.group, backend=c.backend,
                                   samples=c.samples, seed=seed, jobs=1)
    t0 = perf_counter()
    try:
        report = campaigns.run_suite(cfg)
    except Exception:
        # an exception is a wrong verdict on every point of the campaign;
        # record it and keep measuring the rest of the workload
        seconds = perf_counter() - t0
        traceback.print_exc()
        return CampaignResult(c, seconds, c.samples, None, raised=True)
    seconds = perf_counter() - t0
    wrong = {r["point_index"] for r in report.checks if not r["passed"]}
    digest = hashlib.sha256(canonical_report(report).encode()).hexdigest()
    return CampaignResult(c, seconds, len(wrong), digest)


def run_round(workload: str, seed: int, r: int, tracer=None) -> list[CampaignResult]:
    """One pass over the workload's campaigns."""
    out = []
    before = speedprobe.probe()
    for i, c in enumerate(WORKLOADS[workload]):
        if tracer is not None:
            tracer.campaign = len(WORKLOADS[workload]) * r + i
        res = run_campaign(c, round_seed(seed, r))
        after = speedprobe.probe()
        res.probe_s = (before + after) / 2
        before = after
        out.append(res)
    return out


def round_count(workload: str, seconds: float) -> int:
    """Whole rounds that fill about ``seconds`` on the reference box.

    The count depends on nothing measured, so the verified points, and with
    them ``attempted`` and ``failed``, are fixed by the seed and ``seconds``.
    """
    return max(1, round(seconds / ROUND_S[workload]))


def run_rounds(workload: str, seed: int, seconds: float) -> list[list[CampaignResult]]:
    """Closed loop over ``round_count`` whole rounds."""
    return [run_round(workload, seed, r) for r in range(round_count(workload, seconds))]


def measure_setup(groups: list[str], src: Path, repeats: int = SETUP_REPEATS) -> float:
    """Median time for a fresh interpreter to import qpslab and build contexts.

    Each interpreter times its set-up, then the speed probe; the set-up time
    is rescaled to reference speed.  One unrecorded start comes first, so
    byte-compilation is not charged to set-up.
    """
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(src)!r}, {str(Path(__file__).parent)!r}]\n"
        "t0 = time.perf_counter()\n"
        "import qpslab.campaigns\n"
        "from qpslab.liegroup import context\n"
        f"for g in {groups!r}:\n"
        "    context(g)\n"
        "setup = time.perf_counter() - t0\n"
        "import speedprobe\n"
        "print(speedprobe.rescale(setup, speedprobe.probe(4)))\n"
    )
    times = []
    for _ in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def round_digests(workload: str, results: list[CampaignResult]) -> dict[str, str]:
    """Digests of the exact campaigns of one round (float reports are not
    byte-stable across platforms, so they are left out)."""
    return {f"{workload}/{res.campaign.label}": res.digest
            for res in results if res.campaign.backend == EXACT}


@dataclasses.dataclass
class Verdicts:
    attempted: int = 0
    wrong: int = 0
    exact_wrong: int = 0
    errors: int = 0

    def add(self, results: list[CampaignResult]) -> None:
        for res in results:
            self.attempted += res.campaign.samples
            self.wrong += res.wrong_points
            if res.campaign.backend == EXACT:
                self.exact_wrong += res.wrong_points
            self.errors += res.raised

    @property
    def share(self) -> float:
        return self.wrong / self.attempted

    @property
    def exact_ok(self) -> bool:
        """Every exact check is a true consequence of the paper, so any
        failed exact check is a wrong verdict.  Float ``diagram-gs`` false
        failures are a known defect: counted in ``wrong``, not gated here."""
        return self.exact_wrong == 0 and self.errors == 0


def check_golden(workload: str, seed: int, first_round: list[CampaignResult]) -> list[str]:
    """Mismatches against the recorded digests; only the default seed has them."""
    if seed != DEFAULT_SEED:
        return []
    golden = json.loads(GOLDEN_PATH.read_text())
    return [key for key, digest in round_digests(workload, first_round).items()
            if golden.get(key) != digest]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_contexts(workload: str) -> None:
    for g in workload_groups(workload):
        liegroup.context(g)


def rescaled_seconds(results: list[CampaignResult]) -> float:
    return sum(speedprobe.rescale(res.seconds, res.probe_s) for res in results)


def typical_rate(rounds: list[list[CampaignResult]]) -> float:
    """Points per second of a typical round.

    Each campaign contributes its median time at reference speed over the
    rounds that reached it, so a burst of contention during one campaign does
    not move the figure, while every round's fresh points still count.
    """
    columns = [[] for _ in rounds[0]]
    for results in rounds:
        for column, res in zip(columns, results):
            column.append(speedprobe.rescale(res.seconds, res.probe_s))
    points = sum(res.campaign.samples for res in rounds[0])
    return points / sum(statistics.median(column) for column in columns)


def end_to_end(workload: str, seed: int, seconds: float, src: Path) -> dict:
    """Untraced run: the end-to-end metrics and the verdict gate."""
    setup = measure_setup(workload_groups(workload), src)
    build_contexts(workload)
    rounds = run_rounds(workload, seed, seconds)
    verdicts = Verdicts()
    for results in rounds:
        verdicts.add(results)
    mismatched = check_golden(workload, seed, rounds[0])
    metrics = {
        "points_per_s": (typical_rate(rounds), "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    wall = sum(res.seconds for results in rounds for res in results)
    info = {"rounds": len(rounds), "wrong_verdict_share": verdicts.share,
            "wall_points_per_s": verdicts.attempted / wall,
            "digest_mismatches": mismatched}
    return result(verdicts.exact_ok and not mismatched, verdicts, metrics, info)


def per_layer(workload: str, seed: int) -> dict:
    """Traced run on round 0: counted, untraced, then with spans.

    The counting pass goes first and doubles as warm-up for the two timed
    passes.  All three verify the same points, and their reports must be
    byte-identical apart from ``generated_at``.  ``s_per_point`` is raw wall
    time, as a user sees it; the overhead ratio compares rescaled times.
    """
    build_contexts(workload)
    with layertrace.WorkCounter() as counter:
        counted = run_round(workload, seed, 0)
    plain = run_round(workload, seed, 0)
    with layertrace.SpanTracer() as tracer:
        traced = run_round(workload, seed, 0, tracer)

    verdicts = Verdicts()
    verdicts.add(plain)
    plain_digests = round_digests(workload, plain)
    same = {f"{kind}_equal": round_digests(workload, other) == plain_digests
            for kind, other in (("traced", traced), ("counted", counted))}
    mismatched = check_golden(workload, seed, plain)

    metrics = {}
    for name, row in tracer.summary().items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    for name, value in counter.counts.items():
        metrics[name] = (value, "bits" if name.endswith("max_bits") else "count")
    metrics["trace.overhead_ratio"] = (rescaled_seconds(traced) / rescaled_seconds(plain),
                                       "ratio")
    metrics["wrong_verdict_share"] = (verdicts.share, "share")
    by_label = {res.campaign.label: res for res in plain}
    for label in all_campaign_labels():
        res = by_label.get(label)
        value = res.seconds / res.campaign.samples if res else 0.0
        metrics[f"campaigns.{label}.s_per_point"] = (value, "s")
    info = {"spans": tracer.span_count, **same, "digest_mismatches": mismatched}
    ok = verdicts.exact_ok and all(same.values()) and not mismatched
    return result(ok, verdicts, metrics, info)


def all_campaign_labels() -> list[str]:
    return list(dict.fromkeys(c.label for camps in WORKLOADS.values() for c in camps))


def result(correct: bool, verdicts: Verdicts, metrics: dict, info: dict) -> dict:
    return {
        "correct": bool(correct),
        "attempted": verdicts.attempted,
        "failed": verdicts.wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }
