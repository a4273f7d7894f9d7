"""Machine-speed probe: a fixed piece of small exact-rational arithmetic.

The reference box (2 shared cores) switches between a fast and a slow state
for seconds at a time as other tenants load its cores; the same campaign
then takes up to 1.4x as long, which swamps the differences the benchmark
exists to show.  Timing this probe next to every campaign measures the
state, and :func:`rescale` converts a wall time to the time it would have
taken at the probe's reference speed.  The probe does what qpslab's exact
kernel does most (``Fraction`` products and sums of small height, as in an
8x8 matmul), so both slow down together.  It imports nothing from qpslab.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# probe time on the reference box (2 shared cores, Python 3.11) in its fast
# state; a fixed constant, so rescaled times keep their unit
REFERENCE_S = 0.0014

_N = 8
_A = [[Fraction((3 * i + 5 * j) % 19 - 9, 1 + (i * j) % 7) for j in range(_N)]
      for i in range(_N)]
_BT = [[Fraction((7 * i + 2 * j) % 17 - 8, 1 + (i + j) % 5) for j in range(_N)]
       for i in range(_N)]


def probe(repeats: int = 2) -> float:
    """Mean seconds of one fixed 8x8 rational matmul, timed now."""
    t0 = perf_counter()
    for _ in range(repeats):
        for row in _A:
            for col in _BT:
                acc = row[0] * col[0]
                for a, b in zip(row[1:], col[1:]):
                    acc = acc + a * b
    return (perf_counter() - t0) / repeats


def rescale(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at reference speed."""
    return seconds * REFERENCE_S / probe_s
