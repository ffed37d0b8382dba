"""Deterministic 64-bit PRNG (splitmix64) with the documented
integer-to-rational mapping: numerators in [-9, 9], denominators in
{1, 2, 3}.  Bit-exact across platforms, so seeded outputs are stable
golden-test material.
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1


class Rng:
    """splitmix64; the state advances by a fixed odd constant and the
    output is finalized with two xor-shift-multiply rounds."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def rational_int(self) -> tuple:
        """The draw of :meth:`rational` as ``(num, den)``, not reduced: the
        same two ``below`` calls, so the stream moves as it does there."""
        num = self.below(19) - 9
        den = self.below(3) + 1
        return num, den

    def rational(self) -> Fraction:
        return Fraction(*self.rational_int())

    def nonzero_rational(self) -> Fraction:
        while True:
            x = self.rational()
            if x != 0:
                return x

    def rationals(self, count: int) -> tuple:
        return tuple(self.rational() for _ in range(count))
