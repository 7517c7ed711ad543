"""Mirror pentagram map: worked orbit, parity of the collapse, correspondence."""

from fractions import Fraction

import pytest

from pentagram_lab import lower1d, mirror
from pentagram_lab.errors import DegenerateJoin, NotAxisAligned
from pentagram_lab.mirror import (
    AxisAlignedMirrorPair,
    CorrespondenceReport,
    MirrorPair,
    lift_from_p1,
    mp_inverse,
    mp_step,
    project,
    random_axis_aligned_mirror,
    random_mirror_pair,
    verify_T007,
    verify_correspondence,
)
from pentagram_lab.projcore import ProjPoint
from pentagram_lab.errors import PentagramError

from conftest import p1, pt2


def affine(pair):
    return [tuple(p.affine_coords()) for p in pair.points]


def test_worked_orbit_over_1_2_6():
    mp = AxisAlignedMirrorPair.from_values([1, 2, 6])
    step1 = mp_step(mp.underlying)
    assert affine(step1) == [
        (Fraction(11, 6), Fraction(2, 3)),
        (Fraction(2, 3), Fraction(-5, 3)),
        (Fraction(34, 9), Fraction(-1, 9)),
    ]
    step2 = mp_step(step1)
    assert affine(step2) == [(Fraction(3), Fraction(-1, 3))] * 3


def test_t007_report_over_1_2_6():
    rep = verify_T007(AxisAlignedMirrorPair.from_values([1, 2, 6]))
    assert rep.ok
    assert rep.steps_taken == 2
    assert rep.expected == pt2(3, Fraction(-1, 3))
    assert all(rep.roundtrips)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_collapse_parity(n):
    for s in range(10):
        pair = random_axis_aligned_mirror(n, seed=900 * n + s)
        rep = verify_T007(pair)
        assert rep.ok
        mean = Fraction(sum(pair.x_values()), n)
        y = Fraction(0) if n % 2 == 0 else Fraction(-1, n)
        assert rep.expected == pt2(mean, y)


def test_roundtrip_on_generic_pairs():
    done = 0
    s = 0
    while done < 40:
        pair = random_mirror_pair(4, seed=s)
        s += 1
        try:
            forward = mp_step(pair)
            assert mp_inverse(forward) == pair
            assert mp_step(mp_inverse(pair)) == pair
        except PentagramError:
            continue
        done += 1


def test_canonicalize_rescales_height():
    raw = MirrorPair.of([pt2(1, 4), pt2(2, 4), pt2(6, 4)])
    canon = AxisAlignedMirrorPair.canonicalize(raw)
    assert canon.x_values() == (1, 2, 6)
    assert affine(canon.underlying) == [(1, -1), (2, -1), (6, -1)]
    # already-canonical pairs are fixed
    again = AxisAlignedMirrorPair.canonicalize(canon.underlying)
    assert again.underlying == canon.underlying


def test_canonicalize_rejects_mixed_heights():
    raw = MirrorPair.of([pt2(1, 4), pt2(2, 5), pt2(6, 4)])
    with pytest.raises(NotAxisAligned):
        AxisAlignedMirrorPair.canonicalize(raw)


def test_axis_points_rejected_at_construction():
    with pytest.raises(DegenerateJoin):
        MirrorPair.of([pt2(1, 0), pt2(2, 1), pt2(6, 2)])


def test_lift_from_p1_places_at_minus_one():
    lifted = lift_from_p1([p1(1), p1(2), p1(6)])
    assert affine(lifted.underlying) == [(1, -1), (2, -1), (6, -1)]


def test_projection_drops_to_x():
    pair = MirrorPair.of([pt2(1, 4), pt2(Fraction(5, 2), -3), pt2(6, 1)])
    assert [p.p1_value() for p in project(pair)] == [1, Fraction(5, 2), 6]


def test_correspondence_exact_orbitwise():
    done = 0
    s = 0
    while done < 25:
        n = 3 + done % 4
        pair = random_mirror_pair(n, seed=5000 + s)
        s += 1
        try:
            for k in range(1, n):
                rep = verify_correspondence(pair, k)
                assert all(rep.per_step)
                assert rep.steps_taken == k
        except PentagramError:
            # the drawn pair or a projection landed on the degenerate locus;
            # outside the lemma's hypothesis, so it witnesses nothing
            continue
        done += 1
    assert done == 25


def _projecting_twice(pair, k):
    """verify_correspondence as a loop that projects both states at every
    step: the reference for the one that projects each state once."""
    state = lower1d.PairState1D.of(project(mp_inverse(pair)), project(pair))
    previous, per_step = pair, []
    for _ in range(k):
        current = mp_step(previous)
        state = lower1d.t1_step(state)
        per_step.append(state.X == project(previous) and state.Y == project(current))
        previous = current
    return CorrespondenceReport(steps_taken=k, per_step=tuple(per_step))


def _counted_projections(monkeypatch):
    calls = []
    real = mirror.project_vertical

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(mirror, "project_vertical", counted)
    return calls


def test_correspondence_projects_each_state_once(monkeypatch):
    # the 13 states MP^-1 P, ..., MP^11 P of 12 points, once each
    pair = random_mirror_pair(12, 3, 24)
    expected = _projecting_twice(pair, 11)
    calls = _counted_projections(monkeypatch)
    assert verify_correspondence(pair, 11) == expected
    assert all(expected.per_step)
    assert len(calls) == 156


def test_correspondence_skips_a_projection_the_report_does_not_read(monkeypatch):
    # step 2's T_1 state reads its X reversed, so that step fails before it
    # projects MP^2 P, and step 3 projects it as its previous state
    t1_step = lower1d.t1_step

    def spoiled_at_step_2():
        stepped = []

        def step(state):
            stepped.append(t1_step(stepped[-1] if stepped else state))
            if len(stepped) == 2:
                return lower1d.PairState1D(stepped[-1].X[::-1], stepped[-1].Y)
            return stepped[-1]

        return step

    pair = random_mirror_pair(6, 3, 24)
    monkeypatch.setattr(lower1d, "t1_step", spoiled_at_step_2())
    expected = _projecting_twice(pair, 4)
    monkeypatch.setattr(lower1d, "t1_step", spoiled_at_step_2())
    calls = _counted_projections(monkeypatch)
    report = verify_correspondence(pair, 4)
    assert report == expected
    assert report.per_step == (True, False, True, True)
    assert len(calls) == 6 * 6
    # step 3 projects MP^2 P, which step 2 left out, before MP^3 P
    assert calls[18:24] == list(mp_step(mp_step(pair)).points)


def test_degenerate_draw_wrap_around_cross_join_label():
    # at step 3 the last point equals the reflection of the first, so the
    # wrap-around cross join X_5 X'_1 degenerates; output 1 needs it first
    with pytest.raises(DegenerateJoin) as info:
        verify_T007(random_axis_aligned_mirror(5, 9428158358266441515, 10))
    assert str(info.value) == (
        "step 3: output index 1: join of coincident points (0 : 1 : 3)"
    )


@pytest.mark.parametrize(
    "points, message",
    [
        # X_3 = X'_1: only the wrap-around cross join X_3 X'_1 is degenerate
        ([(1, 2), (3, 5), (1, -2)],
         "output index 1: join of coincident points (1 : -2 : 1)"),
        # X_1 = X'_2: only the cross join X_1 X'_2 is degenerate
        ([(1, 2), (1, -2), (4, 7)],
         "output index 1: join of coincident points (1 : 2 : 1)"),
        # X_2 = X'_3: only X_2 X'_3 is degenerate; output 2 needs it first
        ([(1, 2), (3, 5), (3, -5), (4, 7)],
         "output index 2: join of coincident points (3 : 5 : 1)"),
    ],
    ids=["wrap-around", "first", "middle"],
)
def test_degenerate_cross_join_label(points, message):
    pair = MirrorPair.of([pt2(x, y) for x, y in points])
    with pytest.raises(DegenerateJoin) as info:
        mp_step(pair)
    assert str(info.value) == message


def test_inverse_degenerate_join_labels():
    # Q_2 = Q_3 spoils the join Q_2 Q_3 (output 2) and the reflected join
    # Q'_2 Q'_3 (output 3); output 2 comes first
    pair = MirrorPair((pt2(1, 2), pt2(3, 5), pt2(3, 5), pt2(4, 7)))
    with pytest.raises(DegenerateJoin) as info:
        mp_inverse(pair)
    assert str(info.value) == "output index 2: join of coincident points (3 : 5 : 1)"
    # Q_4 = Q_1 spoils Q_4 Q_1 (output 4) and the wrap-around Q'_4 Q'_1,
    # which output 1 needs first
    pair = MirrorPair((pt2(1, 2), pt2(3, 5), pt2(6, 1), pt2(1, 2)))
    with pytest.raises(DegenerateJoin) as info:
        mp_inverse(pair)
    assert str(info.value) == "output index 1: join of coincident points (1 : -2 : 1)"
