"""Command-line interface: seeded verification campaigns and evaluations.

Exit codes: 0 all checks passed, 1 some check failed, 2 usage or input
error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .campaigns import (CLI_GROUPS, EVAL_KINDS, CampaignConfig, SUITE_NAMES,
                        UsageError, eval_command, run_suite)
from .conventions import CORRUPTIONS
from .linalg import EXACT, FLOAT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpslab",
        description="pointwise verification campaigns for multiplicative "
                    "quasi-Poisson geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a seeded verification suite")
    v.add_argument("suite", choices=SUITE_NAMES)
    v.add_argument("--group", choices=CLI_GROUPS, default="sl2")
    v.add_argument("--backend", choices=(EXACT, FLOAT), default=EXACT,
                   help="float: diagram-gs's Weyl-fiber record, decided "
                        "exactly like every record")
    v.add_argument("--samples", type=int, default=20)
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--report", type=str, default=None,
                   help="write the JSON report to this path")
    v.add_argument("--corrupt", choices=sorted(CORRUPTIONS),
                   default=None, help="negative-control hook (testing only)")

    e = sub.add_parser("eval", help="evaluate one quantity from JSON input")
    e.add_argument("kind", choices=EVAL_KINDS)
    e.add_argument("input", type=str, help="path to the input JSON file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "verify":
        cfg = CampaignConfig(
            suite=args.suite,
            group=args.group,
            backend=args.backend,
            samples=args.samples,
            seed=args.seed,
            jobs=args.jobs,
            corrupt=args.corrupt,
        )
        try:
            cfg.validate()
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # open the report before the campaign, so that a path that cannot be
        # written is a usage error and not a failed run
        try:
            sink = open(args.report, "w") if args.report else None
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
        with sink or contextlib.nullcontext():
            report = run_suite(cfg)
            text = report.to_json()
            if sink:
                sink.write(text + "\n")
        s = report.summary
        print(f"{args.suite} [{cfg.group}/{cfg.backend}] seed={cfg.seed} "
              f"samples={cfg.samples}: {s['passed']}/{s['total']} checks passed")
        if not args.report:
            print(text)
        return 0 if report.all_passed else 1

    try:
        with open(args.input) as fh:
            payload = json.load(fh)
    # ValueError: malformed JSON, not UTF-8, or an integer past the digit limit
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 2
    try:
        out = eval_command(args.kind, payload)
    except KeyError as exc:
        # a field the kind reads is absent from the input object
        print(f"error: missing field {exc.args[0]!r}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out, sort_keys=True, indent=1, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
