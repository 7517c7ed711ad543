"""Deterministic random generation.

All randomized instance generators in this package draw from SplitMix64, a
fixed, well-known 64-bit generator, so that a (seed, parameter) pair denotes
the same instance in any implementation.  Bounded draws use plain reduction
``next_u64() % bound`` of one 64-bit word, so a bound may be at most 2^64;
a larger one could never reach its upper part and raises ``ValueError``.
``rational(bound)`` draws its numerator with ``below(2 * bound + 1)``, so
its cap is ``bound < 2^63``.  Batch runners derive the seed of trial ``i``
as ``seed + i``.  Both conventions are part of the documented interface.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ExhaustedSampling

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

RETRY_BUDGET = 1000


class SplitMix64:
    """The SplitMix64 stream seeded with a 64-bit integer."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Integer in [0, bound), for 0 < bound <= 2^64."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound > _MASK64 + 1:
            raise ValueError("bound must be at most 2**64")
        return self.next_u64() % bound

    def rational(self, bound: int) -> Fraction:
        """A fraction with numerator in [-bound, bound] and denominator in
        [1, bound], for 1 <= bound < 2^63."""
        return Fraction(*self._ratio(bound))

    def _ratio(self, bound: int) -> tuple[int, int]:
        """The draw of ``rational(bound)`` as its reduced (numerator,
        denominator) pair."""
        if bound < 1:
            raise ValueError("bound must be >= 1")
        if bound >= 1 << 63:
            raise ValueError("bound must be below 2**63")
        num = self.below(2 * bound + 1) - bound
        den = self.below(bound) + 1
        g = gcd(num, den)
        return num // g, den // g

    def nonzero_rational(self, bound: int) -> Fraction:
        for _ in range(RETRY_BUDGET):
            value = self.rational(bound)
            if value != 0:
                return value
        raise ExhaustedSampling("could not draw a nonzero rational")

    def distinct_rationals(self, count: int, bound: int) -> list[Fraction]:
        """``count`` pairwise distinct rationals from ``rational(bound)``.
        Distinctness is decided on reduced (numerator, denominator) pairs."""
        values: list[Fraction] = []
        seen: set[tuple[int, int]] = set()
        budget = RETRY_BUDGET * max(count, 1)
        while len(values) < count:
            if budget <= 0:
                raise ExhaustedSampling(
                    f"could not draw {count} distinct rationals with bound {bound}"
                )
            budget -= 1
            pair = self._ratio(bound)
            if pair not in seen:
                seen.add(pair)
                values.append(Fraction(*pair))
        return values


def trial_seed(base_seed: int, index: int) -> int:
    """Seed for the index-th trial of a batch (documented as seed + index)."""
    return base_seed + index
