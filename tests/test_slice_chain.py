"""Projected slices of the lifted flats are the stages of the mating chain.

The lifting argument reads the map orbit off the slices of the H-flats.  For
a prism h with |h - k| <= 1, drop every coordinate past d from the slice
points of H_{g,k} by h: they are, as a set, the points of sequence (k-g)/2 at
stage g of ``_run_chain``.  The slices are the slicing pass's mates, meets of
chords in R^n, or come from ``slices_check`` where a slice does not mate;
the chain comes from ``_meet`` in R^d.  So the two sides share no meet, and
a mismatch points at one of them.

The windows are fixed: planar and mirror n=4-7 and corrugated (3,3), (3,4)
and (2,4), seeds 0-59, lifted at canonical heights.  A draw whose chain
raises a degeneracy, or whose canonical lift does not build or fails L2.2,
is counted, not replaced.

Open: the odd mirror.  Its lift raises n-1 of its n sequences, and the
library star-mates them.  Its projected slices match the star chain only
at g=1, where both are the lifted sequences: on odd n=5 and 7, seeds 0-59,
934 of 2,624 slices match, all of them at g=1.  Fully mating the lifted
sequences instead raises ``DegenerateMeet`` on all 117 of those draws whose
star chain runs.  Which sequences the projected
slices of the odd mirror's lift are past g=1 is not worked out from the
paper's mirror section, so odd n is checked at g=1 only.
"""

import pytest

from pentagram_lab import lifting
from pentagram_lab.corrugated import random_axis_aligned_m
from pentagram_lab.errors import PentagramError
from pentagram_lab.lifting import (
    build_A_sequences,
    canonical_heights,
    flat_H,
    parallel_lift,
    slices_check,
)
from pentagram_lab.mirror import random_axis_aligned_mirror
from pentagram_lab.pentagram2d import random_axis_aligned
from pentagram_lab.projcore import ProjPoint

SEEDS = range(60)
FAMILIES = {
    **{f"planar_n{n}": lambda seed, n=n: random_axis_aligned(n, seed) for n in range(4, 8)},
    **{f"mirror_n{n}": lambda seed, n=n: random_axis_aligned_mirror(n, seed)
       for n in range(4, 8)},
    **{f"corrugated_{m}_{n}": lambda seed, m=m, n=n: random_axis_aligned_m(m, n, seed)
       for m, n in ((3, 3), (3, 4), (2, 4))},
}


def _projected_slices(pj, recorded_pass, tally):
    """{(g, k, h): projected slice points} for |h - k| <= 1: the slicing
    pass's mates, or ``slices_check`` where a slice does not mate (a slice
    that is not complete there is left out)."""
    n, d = pj.n, pj.d
    mates = recorded_pass(pj)[2]
    flats, slices = pj.joint_flats(), {}
    cut = False
    for g in range(1, n):
        for k in range(g, 2 * (n - 1) - g + 1, 2):
            for h in pj.prism_labels():
                if abs(h - k) > 1:
                    continue
                if (g, k, h) in mates:
                    slices[g, k, h] = {ProjPoint((*num[:d], den)) for num, den in mates[g, k, h]}
                    continue
                cut = True
                report = slices_check(flat_H(g, k, flats), pj.prism_at(h))
                if report.ok:
                    slices[g, k, h] = {ProjPoint.affine(*p[:d]) for p in report.points}
    tally["cut draws" if cut else "mated draws"] += 1
    return slices


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_projected_slices_are_chain_stages(recorded_pass, family):
    tally = {"mated draws": 0, "cut draws": 0, "chain raised": 0, "refused": 0,
             "slices": 0}
    for seed in SEEDS:
        P = FAMILIES[family](seed)
        variant = lifting._variant(P)[0]
        seqs, op = lifting._lift_chain(variant, build_A_sequences(P))
        try:
            stages = lifting._run_chain(seqs, op)
        except PentagramError:
            tally["chain raised"] += 1
            continue
        try:
            pj = parallel_lift(seqs, canonical_heights(seqs[0].count, seqs[0].d))
        except PentagramError:
            tally["refused"] += 1
            continue
        if not lifting.general_position_check(pj.joints):
            tally["refused"] += 1
            continue
        top = 1 if variant == "mirror_odd" else pj.n - 1
        for (g, k, h), points in _projected_slices(pj, recorded_pass, tally).items():
            if g <= top:
                assert points == set(stages[g - 1][(k - g) // 2].proj), (seed, g, k, h)
                tally["slices"] += 1
    assert tally == CHAIN_CENSUS[family]


# draws whose slices with |h - k| <= 1 all mated, draws where one was cut
# from its flat, draws whose chain raised, draws whose canonical lift did not
# build or failed L2.2, and slices equal to their chain stage
CHAIN_CENSUS = {
    "corrugated_2_4": {"mated draws": 54, "cut draws": 0, "chain raised": 6, "refused": 0,
                       "slices": 432},
    "corrugated_3_3": {"mated draws": 58, "cut draws": 0, "chain raised": 2, "refused": 0,
                       "slices": 174},
    "corrugated_3_4": {"mated draws": 54, "cut draws": 0, "chain raised": 6, "refused": 0,
                       "slices": 432},
    "mirror_n4": {"mated draws": 60, "cut draws": 0, "chain raised": 0, "refused": 0,
                  "slices": 480},
    "mirror_n5": {"mated draws": 59, "cut draws": 0, "chain raised": 1, "refused": 0,
                  "slices": 354},
    "mirror_n6": {"mated draws": 58, "cut draws": 0, "chain raised": 2, "refused": 0,
                  "slices": 1276},
    "mirror_n7": {"mated draws": 58, "cut draws": 0, "chain raised": 2, "refused": 0,
                  "slices": 580},
    "planar_n4": {"mated draws": 60, "cut draws": 0, "chain raised": 0, "refused": 0,
                  "slices": 480},
    "planar_n5": {"mated draws": 59, "cut draws": 0, "chain raised": 1, "refused": 0,
                  "slices": 826},
    "planar_n6": {"mated draws": 58, "cut draws": 0, "chain raised": 2, "refused": 0,
                  "slices": 1276},
    "planar_n7": {"mated draws": 58, "cut draws": 0, "chain raised": 2, "refused": 0,
                  "slices": 1798},
}
