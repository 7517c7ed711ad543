"""SplitMix64: bounded draws reduce one 64-bit word, so their bounds are capped."""

from fractions import Fraction

import pytest

from pentagram_lab.rng import SplitMix64

FIRST_WORD = 16294208416658607535  # the first word of SplitMix64(0)


@pytest.mark.parametrize("bound", [1, 10, 2**63, 2**64 - 1, 2**64])
def test_below_reduces_one_word(bound):
    assert SplitMix64(0).below(bound) == FIRST_WORD % bound


@pytest.mark.parametrize("bound", [0, -1, 2**64 + 1, 2**65])
def test_below_rejects_bounds_one_word_cannot_cover(bound):
    with pytest.raises(ValueError):
        SplitMix64(0).below(bound)


def test_rational_cap():
    largest = 2**63 - 1
    words = SplitMix64(0)
    num = words.next_u64() % (2 * largest + 1) - largest
    den = words.next_u64() % largest + 1
    assert SplitMix64(0).rational(largest) == Fraction(num, den)
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        SplitMix64(0).rational(2**63)
