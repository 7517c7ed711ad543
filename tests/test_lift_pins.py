"""Pinned ``lift_report`` outcomes over fixed seed windows.

Each family draws seeds 0-149 at bound 10 and hashes, per seed, either
``repr(report)`` or ``"ErrorType: message"`` for a typed degeneracy.  The
windows include draws whose mating chain meets two parallel chords (the
"parallel or identical lines" errors below): a change to how mates are
computed must keep every verdict, error type and message.  The windows are
fixed; a draw is never skipped or re-seeded.
"""

import hashlib

import pytest

from pentagram_lab.corrugated import random_axis_aligned_m
from pentagram_lab.errors import PentagramError
from pentagram_lab.lifting import lift_report
from pentagram_lab.mirror import random_axis_aligned_mirror
from pentagram_lab.pentagram2d import random_axis_aligned

SEEDS = range(150)
BOUND = 10
PARALLEL = "DegenerateMeet: slot {}: parallel or identical lines have no single meet"

FAMILIES = {
    "planar_n5": lambda seed: random_axis_aligned(5, seed, BOUND),
    "mirror_n5": lambda seed: random_axis_aligned_mirror(5, seed, BOUND),
    "mirror_n6": lambda seed: random_axis_aligned_mirror(6, seed, BOUND),
    "corrugated_3_3": lambda seed: random_axis_aligned_m(3, 3, seed, BOUND),
}

# (SHA-256 of the per-seed lines, {seed: error line})
PINS = {
    "planar_n5": (
        "d52bd0a2cc10c4a1530ddef9670c126f77739913d6cd06204d0d071f1aaf7d89",
        {27: PARALLEL.format(2), 69: PARALLEL.format(0), 103: PARALLEL.format(4),
         116: PARALLEL.format(3),
         141: "DegenerateMeet: output label 13: meet of identical lines [1 : -4 : 2]"},
    ),
    "mirror_n5": (
        "b7375229836a0334d9ee7eb7bf83f75eb235c4604c2177221587fbab5e212197",
        {27: PARALLEL.format(2), 69: PARALLEL.format(0), 103: PARALLEL.format(3),
         116: PARALLEL.format(3)},
    ),
    "mirror_n6": (
        "e333010bd8ec888ba5cae5ee3511168db984a7cd753430ad44a8bb1ea71e49dc",
        {27: PARALLEL.format(2), 55: PARALLEL.format(5), 69: PARALLEL.format(0)},
    ),
    "corrugated_3_3": (
        "d15f6262cbf6391d205567eeb42f978c8161fd11f51a0acc404596c2baff9630",
        {3: PARALLEL.format(0), 58: PARALLEL.format(2), 60: PARALLEL.format(2),
         99: PARALLEL.format(0), 117: PARALLEL.format(1), 132: PARALLEL.format(0),
         135: PARALLEL.format(1),
         146: "NotAJoint: no usable lift within 9 attempts: "
              "hyperplanes not in general position"},
    ),
}


def _outcome(instance) -> str:
    try:
        return repr(lift_report(instance))
    except PentagramError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_lift_report_window_pinned(family):
    digest, errors = PINS[family]
    lines = [_outcome(FAMILIES[family](seed)) for seed in SEEDS]
    found = {seed: line for seed, line in zip(SEEDS, lines) if not line.startswith("LiftReport(")}
    assert found == errors
    text = "".join(line + "\n" for line in lines)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
