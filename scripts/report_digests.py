#!/usr/bin/env python3
"""SHA-256 digests of campaign reports, for a byte-identity check of a change.

Runs every suite x {sl2, gl2, sl3, gl3} x {frozen conventions and each
``--corrupt`` switch} x seeds {11, 12} at 4 samples on the exact backend,
blanks ``generated_at`` and writes the digest of each report's JSON, keyed
``suite/group/corruption/seed`` (400 digests).  Reports are deterministic in
their inputs, so two source trees give the same behaviour on these runs
exactly when their outputs compare equal::

    python3 scripts/report_digests.py /tmp/parent.json    # in one checkout
    python3 scripts/report_digests.py /tmp/change.json    # in the other
    diff /tmp/parent.json /tmp/change.json

Run it from the root of a checkout: it imports that checkout's ``src``.
Without an output path the JSON goes to standard output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys

sys.path.insert(0, "src")

from qpslab.campaigns import CLI_GROUPS, SUITE_NAMES, CampaignConfig, run_suite
from qpslab.conventions import CORRUPTIONS

SEEDS = (11, 12)
SAMPLES = 4
FROZEN_KEY = "frozen"


def digests(suites=SUITE_NAMES, groups=CLI_GROUPS,
            corruptions=(None, *CORRUPTIONS), seeds=SEEDS) -> dict[str, str]:
    """The report digest of every run in the product of the arguments."""
    out = {}
    for suite in suites:
        for group in groups:
            for corrupt in corruptions:
                for seed in seeds:
                    cfg = CampaignConfig(suite=suite, group=group, samples=SAMPLES,
                                         seed=seed, corrupt=corrupt)
                    report = dataclasses.replace(run_suite(cfg), generated_at="")
                    key = f"{suite}/{group}/{corrupt or FROZEN_KEY}/{seed}"
                    out[key] = hashlib.sha256(report.to_json().encode()).hexdigest()
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: report_digests.py [OUTPUT.json]", file=sys.stderr)
        return 2
    text = json.dumps(digests(), indent=1, sort_keys=True) + "\n"
    if argv:
        with open(argv[0], "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
