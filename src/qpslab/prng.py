"""Seeded, portable pseudo-randomness for verification campaigns.

The generator is SplitMix64 with the standard constants, so a campaign seed
reproduces the identical point stream in any implementation of the same
recipe.  The one derived quantity documents its derivation precisely:
``rational_pair(h)`` draws the numerator as the next 64-bit output modulo
2h + 1, less h (redrawn while a nonzero value is required), then the
denominator as 1 plus the next output modulo h, and returns the value as
its reduced integer pair ``(numerator, denominator)`` (denominator
positive, zero as ``(0, 1)``), with no ``Fraction`` built.  Every seeded
matrix of the package (the samplers of :mod:`qpslab.liegroup`, the
directions of the sampled d-identity and the pairing suite's random form)
is built into integer rows from these pairs.  The ``Fraction`` route of the
same draws, ``rational`` in ``tests/oracles.py``, is its oracle in the
tests.
"""

from __future__ import annotations

from math import gcd

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 PRNG (Steele/Lea/Flood constants)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def rational_pair(self, height: int, nonzero: bool = False) -> tuple[int, int]:
        """A rational of height ``height``, nonzero if asked, as its reduced
        integer pair (see the module docstring)."""
        if height < 1:
            raise ValueError("rational draws need a positive height")
        span = 2 * height + 1
        num = self.next_u64() % span - height
        while nonzero and num == 0:
            num = self.next_u64() % span - height
        den = 1 + self.next_u64() % height
        g = gcd(num, den)
        return num // g, den // g

    def fork(self, salt: int) -> "SplitMix64":
        """Derive an independent stream; used to key per-point work."""
        child = SplitMix64(self.state ^ ((salt * _GAMMA) & _MASK))
        child.next_u64()
        return child
