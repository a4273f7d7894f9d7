#!/usr/bin/env python3
"""SHA-256 digests of campaign reports, for a byte-identity check of a change.

Runs every suite x {sl2, gl2, sl3, gl3} x {frozen conventions and each
``--corrupt`` switch} x seeds {11, 12} at 4 samples on the exact backend,
keyed ``suite/group/corruption/seed`` (400 digests), and diagram-gs on the
float backend, keyed ``diagram-gs-float/group/frozen/seed`` (8 more).  It
blanks ``generated_at`` and writes the digest of each report's JSON.
Reports are deterministic in their inputs, so two source trees give the
same behaviour on these runs exactly when their outputs compare equal::

    python3 scripts/report_digests.py /tmp/parent.json    # in one checkout
    python3 scripts/report_digests.py /tmp/change.json    # in the other
    diff /tmp/parent.json /tmp/change.json

Run it from the root of a checkout: it imports that checkout's ``src``.
Without an output path the JSON goes to standard output; ``-h`` or
``--help`` prints the usage, and any other argument that starts with ``-``
is refused (exit 2) before the sweep, as is an output path that cannot be
written.
"""

from __future__ import annotations

import contextlib
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
    """The report digest of every run in the product of the arguments, and
    of diagram-gs on the float backend, if among ``suites``, in each group
    and seed at the frozen conventions."""
    runs = {f"{suite}/{group}/{corrupt or FROZEN_KEY}/{seed}": CampaignConfig(
        suite=suite, group=group, samples=SAMPLES, seed=seed, corrupt=corrupt)
        for suite in suites for group in groups for corrupt in corruptions
        for seed in seeds}
    if "diagram-gs" in suites:
        runs.update({f"diagram-gs-float/{group}/{FROZEN_KEY}/{seed}": CampaignConfig(
            suite="diagram-gs", group=group, backend="float", samples=SAMPLES,
            seed=seed) for group in groups for seed in seeds})
    out = {}
    for key, cfg in runs.items():
        report = dataclasses.replace(run_suite(cfg), generated_at="")
        out[key] = hashlib.sha256(report.to_json().encode()).hexdigest()
    return out


USAGE = "usage: report_digests.py [-h] [OUTPUT.json]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv in (["-h"], ["--help"]):
        print(USAGE)
        return 0
    # an option is no output path: refuse it before the sweep
    if len(argv) > 1 or any(a.startswith("-") for a in argv):
        print(USAGE, file=sys.stderr)
        return 2
    # open the output before the sweep, so that a path that cannot be
    # written is refused at once
    try:
        sink = open(argv[0], "w") if argv else None
    except OSError as exc:
        print(f"error: cannot write digests: {exc}", file=sys.stderr)
        return 2
    with sink or contextlib.nullcontext():
        (sink or sys.stdout).write(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
