"""qpslab benchmark: exact-verification throughput, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload quotient-sl3gl3 --seed 1 --seconds 25 --trace 0

``--seconds`` sizes the run: it does the whole rounds that take about that
long on the reference box, so a seed always verifies the same points.
``--trace 0`` measures the end-to-end metrics with no instrument installed;
``--trace 1`` runs the first round untraced, traced and counted, and reports
the per-layer metrics.  Every metric is printed as ``name value unit``; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status 0 means the run
completed; ``correct`` says whether every verdict was right.  Without the
package sources next to this directory the run exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("quotient-sl3gl3", "double-sl3gl3", "small-mix")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=20260809)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class CheckoutError(RuntimeError):
    pass


def load_harness():
    """Import the benchmark against this checkout's ``src/qpslab`` only."""
    if not (SRC / "qpslab" / "__init__.py").is_file():
        raise CheckoutError(f"bench: no package sources at {SRC}/qpslab")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import qpslab

    if Path(qpslab.__file__).resolve().parent != (SRC / "qpslab").resolve():
        raise CheckoutError(f"bench: imported qpslab from {qpslab.__file__}, not {SRC}")
    import harness

    return harness


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        harness = load_harness()
    except CheckoutError as e:
        print(e, file=sys.stderr)
        return 2
    if args.trace:
        out = harness.per_layer(args.workload, args.seed)
    else:
        out = harness.end_to_end(args.workload, args.seed, args.seconds, SRC)
    info = out.pop("info")
    for key, value in info.items():
        print(f"# {key} {value}")
    for name, m in out["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
