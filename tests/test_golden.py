"""Golden report digests: every suite on every CLI group, and the corruptions.

Each digest is the SHA-256 of a campaign report's JSON with ``generated_at``
blanked, for every suite x {sl2, sl3, gl2, gl3} on the exact backend at 3
samples and the acceptance seed, plus corrupted runs on sl2 (``CORRUPTED``),
each ``--corrupt`` switch at least once.  Reports are deterministic in their
inputs, so a digest change is a behaviour change: argue it in CHANGES.md,
never simply re-record.

Re-record (only after such an argument) with::

    PYTHONPATH=src python tests/test_golden.py --record
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from qpslab.campaigns import CLI_GROUPS, SUITE_NAMES, CampaignConfig, run_suite

GOLDEN = Path(__file__).with_name("golden_digests.json")
SEED = 20260809
SAMPLES = 3

# (corruption, sl2 suite) pairs the corruption is known to break, so the
# digest also covers the failure witnesses: each corruption once, plus every
# sigma and omega corruption on the suites whose moment conditions are built
# from the adjoint matrix
CORRUPTED = (
    ("sigma-half", "dorfman-closure"),
    ("sigma-ad-flip", "lemma-kernel"),
    ("omega-sign", "double"),
    ("dorfman-eta", "dorfman-closure"),
    ("sigma-half", "double"),
    ("sigma-ad-flip", "double"),
    ("sigma-half", "gs-theorem1"),
    ("sigma-ad-flip", "gs-theorem1"),
    ("omega-sign", "gs-theorem1"),
    ("sigma-ad-flip", "cartan-dirac"),
)


def _configs() -> dict[str, CampaignConfig]:
    out = {}
    for suite in SUITE_NAMES:
        for group in CLI_GROUPS:
            out[f"{suite}/{group}"] = CampaignConfig(
                suite=suite, group=group, samples=SAMPLES, seed=SEED)
    for corrupt, suite in CORRUPTED:
        out[f"{suite}/sl2/corrupt={corrupt}"] = CampaignConfig(
            suite=suite, group="sl2", samples=SAMPLES, seed=SEED, corrupt=corrupt)
    return out


def digest(cfg: CampaignConfig) -> str:
    report = dataclasses.replace(run_suite(cfg), generated_at="")
    return hashlib.sha256(report.to_json().encode()).hexdigest()


CONFIGS = _configs()


def test_golden_file_covers_every_config():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CONFIGS)


@pytest.mark.parametrize("key", list(CONFIGS))
def test_report_digest_unchanged(key):
    golden = json.loads(GOLDEN.read_text())
    assert digest(CONFIGS[key]) == golden[key]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    digests = {key: digest(cfg) for key, cfg in CONFIGS.items()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
