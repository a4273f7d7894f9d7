"""Seeded, portable pseudo-randomness for verification campaigns.

The generator is SplitMix64 with the standard constants, so a campaign seed
reproduces the identical point stream in any implementation of the same
recipe.  Derived quantities document their derivation precisely:

* ``below(n)``: next 64-bit output modulo ``n``;
* ``rational(h)``: numerator ``below(2h+1) - h``, denominator ``1 + below(h)``
  (redrawing the numerator while a nonzero value is required).

Sampling heights default to 10 to keep exact arithmetic fast.
"""

from __future__ import annotations

from fractions import Fraction

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

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def rational(self, height: int = 10, nonzero: bool = False) -> Fraction:
        num = self.below(2 * height + 1) - height
        while nonzero and num == 0:
            num = self.below(2 * height + 1) - height
        den = 1 + self.below(height)
        return Fraction(num, den)

    def fork(self, salt: int) -> "SplitMix64":
        """Derive an independent stream; used to key per-point work."""
        child = SplitMix64(self.state ^ ((salt * _GAMMA) & _MASK))
        child.next_u64()
        return child
