"""Long exact orbits pinned by the SHA-256 of every iterate's ``repr``.

One seeded draw per map, at sizes where the coordinates reach hundreds of
bits, so any change to the projective kernel that moves a single coordinate
of any step shows here.  The digests were recorded before the integer fast
path of ``projcore`` (int 2- and 3-tuples canonicalized directly, integer
coplanar meets) and must not change.
"""

import hashlib

import pytest

from pentagram_lab.corrugated import corrugated_step, random_axis_aligned_m
from pentagram_lab.errors import DegenerateJoin
from pentagram_lab.frieze import build_pattern, random_a1
from pentagram_lab.lower1d import random_b, t1_step
from pentagram_lab.mirror import mp_step, random_axis_aligned_mirror
from pentagram_lab.pentagram2d import pentagram_step, random_axis_aligned
from pentagram_lab.projcore import orbit
from pentagram_lab.rng import trial_seed

ITERATES = {
    "T002 n=16": lambda: orbit(random_axis_aligned(16, 0, 16).underlying, pentagram_step, 15),
    "T003 (4,5)": lambda: orbit(random_axis_aligned_m(4, 5, 0, 10).underlying, corrugated_step, 4),
    "T007 n=12": lambda: orbit(random_axis_aligned_mirror(12, 0, 12).underlying, mp_step, 11),
    "T008 n=24": lambda: orbit(random_b(24, 0, 24).initial_state(), t1_step, 23),
    "T005 n=12": lambda: build_pattern(random_a1(12, 0, 12)).rows,
}

DIGESTS = {
    "T002 n=16": "0388b3dce2b1f2fbdd2b3305385412ab134d31db1dbe40e555dcca598f0a6780",
    "T003 (4,5)": "d82176a47e30850b5bc6ec556da32ed0b6fcd8544b20e16a38f1297694df9499",
    "T007 n=12": "60ce82688705d7fe8e5469fec1f25e5ae16f4838cea48d9d74c9d056c75bec43",
    "T008 n=24": "9cc3245ef0309ce86a3742170904cee1babf6ac228a19d021ef758f6fc29e8ee",
    "T005 n=12": "b37d69557246b3c1954cdfbcb30f371ea401206f353606fa81a1a8e933689bd5",
}


@pytest.mark.parametrize("name", list(ITERATES))
def test_long_orbit_iterates_are_pinned(name):
    digest = hashlib.sha256()
    for state in ITERATES[name]():
        digest.update(repr(state).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == DIGESTS[name]


def test_corrugated_seed1_draw_stays_degenerate():
    """``verify --theorem T003 --random --m 4 --n 5 --trials 1 --seed 1``
    exits 2: two vertices of the step-3 input coincide, so one diagonal of
    the integer coplanar meet is no line."""
    polygon = random_axis_aligned_m(4, 5, trial_seed(1, 0), 10).underlying
    with pytest.raises(DegenerateJoin) as info:
        orbit(polygon, corrugated_step, 4)
    assert str(info.value) == (
        "step 3: output label 31: meet_coplanar_lines needs two genuine lines"
    )
