#!/usr/bin/env python3
"""Paired CPU time of one benchmark workload's campaigns in two checkouts.

Two persistent worker processes, one per checkout, each import that
checkout's ``src`` and ``bench/harness.py``.  Every round runs the
workload's campaign list (``harness.WORKLOADS``) at the campaign seed the
benchmark's default run uses for that round (``harness.round_seed`` of
``harness.DEFAULT_SEED``); each campaign runs on both sides back to back,
the side that goes first alternating from one campaign to the next.  A
worker times ``harness.run_campaign`` by its own CPU time, so the other
side and other processes on the box enter only through the box's speed,
which both sides of a pair share.  One untimed pass over the list comes
first::

    python3 scripts/campaign_ab.py --workload quotient-sl3gl3 --rounds 14 \\
        --label quotient PARENT_CHECKOUT CHANGE_CHECKOUT

It writes ``BENCH_<label>.json`` (in ``--out``, default the current
directory): for each campaign, the median CPU seconds of each side, their
ratio (change over parent) and the number of rounds the change was faster;
the same for each whole round; and whether the two sides' reports were
byte-identical in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def worker(checkout: str) -> int:
    """Serve requests, one JSON line each, against ``checkout``."""
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import dataclasses
    from time import process_time

    import harness
    import qpslab

    if Path(qpslab.__file__).resolve().parent != (root / "src" / "qpslab").resolve():
        raise SystemExit(f"campaign_ab: imported qpslab from {qpslab.__file__}")
    for line in sys.stdin:
        req = json.loads(line)
        if "round" not in req:
            camps = harness.WORKLOADS[req["workload"]]
            reply = {"seed": harness.DEFAULT_SEED,
                     "campaigns": [[c.label, dataclasses.astuple(c)] for c in camps]}
        else:
            c = harness.WORKLOADS[req["workload"]][req["index"]]
            seed = harness.round_seed(harness.DEFAULT_SEED, req["round"])
            t0 = process_time()
            result = harness.run_campaign(c, seed)
            reply = {"cpu": process_time() - t0, "digest": result.digest}
        print(json.dumps(reply), flush=True)
    return 0


class Side:
    """One checkout's worker process."""

    def __init__(self, checkout: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", checkout],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ask(self, req: dict):
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("campaign_ab: a worker exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def faster(parent: list, change: list) -> int:
    return sum(c < p for p, c in zip(parent, change))


def compare(args) -> dict:
    sides = {"parent": Side(args.parent), "change": Side(args.change)}
    try:
        lists = {name: side.ask({"workload": args.workload}) for name, side in sides.items()}
        if lists["parent"] != lists["change"]:
            raise SystemExit("campaign_ab: the checkouts list different campaigns")
        seed = lists["change"]["seed"]
        labels = [lab for lab, _ in lists["change"]["campaigns"]]
        cpu = {name: {lab: [] for lab in labels} for name in sides}
        identical = True
        # round -1 is the untimed pass, at round 0's seed
        for r in range(-1, args.rounds):
            for i, lab in enumerate(labels):
                order = ("parent", "change") if (r + i) % 2 == 0 else ("change", "parent")
                req = {"workload": args.workload, "index": i, "round": max(r, 0)}
                got = {name: sides[name].ask(req) for name in order}
                digest = got["parent"]["digest"]
                identical &= digest is not None and digest == got["change"]["digest"]
                if r >= 0:
                    for name in sides:
                        cpu[name][lab].append(got[name]["cpu"])
    finally:
        for side in sides.values():
            side.close()
    rounds = {name: [sum(runs[k] for runs in cpu[name].values()) for k in range(args.rounds)]
              for name in sides}
    out = {"workload": args.workload, "seed": seed, "rounds": args.rounds,
           "reports_identical": identical, "campaigns": {}}
    for key in cpu["change"]:
        p, c = cpu["parent"][key], cpu["change"][key]
        out["campaigns"][key] = {
            "parent_cpu_s": statistics.median(p), "change_cpu_s": statistics.median(c),
            "ratio": statistics.median(c) / statistics.median(p),
            "change_faster": faster(p, c)}
    p, c = rounds["parent"], rounds["change"]
    out["round"] = {"parent_cpu_s": statistics.median(p), "change_cpu_s": statistics.median(c),
                    "ratio": statistics.median(c) / statistics.median(p),
                    "change_faster": faster(p, c)}
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        return worker(argv[1])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="the checkout to compare against")
    p.add_argument("change", help="the checkout under test")
    p.add_argument("--workload", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--rounds", type=int, default=14)
    p.add_argument("--out", default=".")
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be positive")
    out = compare(args)
    path = Path(args.out) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(out["round"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
