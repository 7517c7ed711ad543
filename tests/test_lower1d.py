"""Lower map T_1 on the projective line: the worked (1,2,6) orbit and means."""

from fractions import Fraction

import pytest

from pentagram_lab.errors import (
    DegenerateJoin,
    InfiniteVertex,
    NotAxisAligned,
    ZeroDenominator,
)
from pentagram_lab.lower1d import (
    AxisAlignedPair1,
    PairState1D,
    center_of_mass_p1,
    random_b,
    t1_step,
    verify_T008,
)
from pentagram_lab.projcore import P1_INFINITY, ProjPoint
from pentagram_lab.rng import SplitMix64

from conftest import p1


def as_values(row):
    return [p.p1_value() for p in row]


def test_worked_example_both_rows():
    pair = AxisAlignedPair1.from_values([1, 2, 6])
    state = t1_step(pair.initial_state())
    assert as_values(state.X) == [1, 2, 6]
    assert as_values(state.Y) == [Fraction(11, 6), Fraction(2, 3), Fraction(34, 9)]
    state = t1_step(state)
    assert as_values(state.Y) == [3, 3, 3]


def test_report_fields():
    rep = verify_T008(AxisAlignedPair1.from_values([1, 2, 6]))
    assert rep.ok
    assert rep.steps_taken == 2
    assert rep.expected == p1(3)
    assert as_values(rep.final_component) == [3, 3, 3]


def test_first_step_closed_form():
    # from below an infinity row, Z_i = (Y_i^2 - Y_{i-1} Y_{i+1}) / (2 Y_i - Y_{i-1} - Y_{i+1})
    rng = SplitMix64(21)
    done = 0
    while done < 50:
        vals = rng.distinct_rationals(5, 9)
        n = len(vals)
        if any(2 * vals[i] - vals[i - 1] - vals[(i + 1) % n] == 0 for i in range(n)):
            continue
        pair = AxisAlignedPair1.of(tuple(ProjPoint.p1(v) for v in vals))
        state = t1_step(pair.initial_state())
        for i, z in enumerate(as_values(state.Y)):
            y0, y1, y2 = vals[i - 1], vals[i], vals[(i + 1) % n]
            assert z == Fraction(y1 * y1 - y0 * y2, 2 * y1 - y0 - y2)
        done += 1


# bases on which no draw degenerates mid-orbit
CLEAN_BASE = {3: 0, 4: 1000, 5: 0, 6: 0, 7: 0, 8: 0}


@pytest.mark.parametrize("n", range(3, 9))
def test_random_collapse_to_mean(n):
    for s in range(20):
        pair = random_b(n, seed=CLEAN_BASE[n] + s)
        rep = verify_T008(pair)
        assert rep.ok
        mean = Fraction(sum(b.p1_value() for b in pair.B), n)
        assert rep.final_component[0] == ProjPoint.p1(mean)


def test_degenerate_draw_names_step_and_entry():
    with pytest.raises(ZeroDenominator) as info:
        verify_T008(random_b(4, 109))
    assert str(info.value) == (
        "step 3: entry 1: six-point harmonic solve is indeterminate"
    )


def test_center_of_mass_p1_plain_mean():
    B = [p1(1), p1(2), p1(6)]
    A = (P1_INFINITY,) * 3
    assert center_of_mass_p1(A, B) == p1(3)


def test_center_of_mass_p1_respects_chart():
    # move the common A-value to 0: mean must be computed in that chart
    A = (p1(0),) * 3
    B = [p1(1), p1(2), p1(6)]
    got = center_of_mass_p1(A, B)
    expected = Fraction(3, sum(Fraction(1, v.p1_value()) for v in B))
    assert got == ProjPoint.p1(expected)


def test_pair_state_rejects_matching_entries():
    with pytest.raises(DegenerateJoin):
        PairState1D.of((p1(1), p1(2), p1(5)), (p1(1), p1(3), p1(4)))


def test_axis_aligned_pair_validation():
    with pytest.raises(NotAxisAligned):
        AxisAlignedPair1.from_values([4, 4, 4])
    with pytest.raises(InfiniteVertex):
        AxisAlignedPair1.of((p1(1), P1_INFINITY, p1(2)))
