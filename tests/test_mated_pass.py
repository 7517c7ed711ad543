"""The mated slices of the slicing pass against its flat route.

``_slicing_pass`` mates a slice of H_{g,k} by a prism whose lines span R^n
(``_spans``) from the slices of H_{g-1,k-1} and H_{g-1,k+1} (Lemma 3.2),
where both have n points with consecutive points distinct and every chord
meet is one finite point.  Every other slice in reach (|h-k| <= g) falls
back to its flat: ``_Skeleton.slices`` cuts it from ``flat_H(g, k)``.  With
``_spans`` forced to return False, no slice mates and every slice in reach
is cut from its flat.  Each way a slice can fail to mate is made to happen
once here, on a planted lift or chord pair or on a natural draw, and the
census compares the verdicts of both routes, and every mated slice in
reach with ``slices_check``, over fixed seed windows.  A window is never
re-seeded.
"""

from fractions import Fraction
from math import lcm

import pytest

from pentagram_lab import lifting
from pentagram_lab.corrugated import random_axis_aligned_m
from pentagram_lab.errors import PentagramError
from pentagram_lab.lifting import (
    build_A_sequences,
    canonical_heights,
    flat_H,
    lift_report,
    parallel_lift,
    random_heights,
    skeleton_recurrence_check,
    slices_check,
)
from pentagram_lab.mirror import random_axis_aligned_mirror
from pentagram_lab.pentagram2d import random_axis_aligned
from pentagram_lab.rng import SplitMix64


def _flat_route(monkeypatch, run):
    """run() with no prism spanning, so that every slice in reach is cut
    from its flat."""
    with monkeypatch.context() as patch:
        patch.setattr(lifting, "_spans", lambda T: False)
        return run()


def _lift(P, heights):
    seqs = lifting._lift_chain(lifting._variant(P)[0], build_A_sequences(P))[0]
    return parallel_lift(seqs, heights(seqs[0].count, seqs[0].d))


def test_zero_determinant_falls_back(recorded_pass):
    # flat heights put both joints of the n=3 lift in one plane, so the
    # prism's lines span no more than it (L2.2 turns this lift down): no
    # slice mates, and each H_{g,k} is built for its slices
    pj = _lift(random_axis_aligned(3, seed=1000), lambda n, d: ((Fraction(0),),) * n)
    assert not lifting._spans(pj.prisms[0])
    (sliced, indep, line), built, mates = recorded_pass(pj)
    assert built == [(1, 1), (1, 3), (2, 2)] and mates == {}
    assert sliced == indep and sliced[1][-1] == "H(2,2): H_2,2 has codimension 1, expected 2"
    assert line is None
    assert skeleton_recurrence_check(pj.prisms[0], 2) is False


def test_level_one_cut_parallel_to_a_prism_falls_back(monkeypatch, recorded_pass):
    # |J_1| holds the direction of the far prism 4, which it need not slice:
    # that slice is left out, and its child H(2,2) by prism 4, in reach, is
    # cut from H(2,2)
    pj = _lift(random_axis_aligned(5, seed=24),
               lambda n, d: random_heights(n, d, SplitMix64(24), bound=2))
    verdicts, built, mates = recorded_pass(pj)
    assert (1, 1, 4) not in mates and (2, 2, 4) not in mates and (2, 2, 2) in mates
    assert built == [(2, 2)]
    assert verdicts[:2] == ((True, ()), (True, ()))
    assert verdicts == _flat_route(monkeypatch, lambda: lifting._checked_pass(pj))


def test_chord_meets_certify_every_coordinate():
    def chord(p, q):
        return lifting._chords([(p, 1), (q, 1)])[0]

    # the x-axis and the line through (1, 0, 1) and (1, 1, 0) are skew: the
    # minor of coordinates 0 and 1 gives a meet that coordinate 2 refutes
    assert lifting._chord_meet(chord((0, 0, 0), (2, 0, 0)), chord((1, 0, 1), (1, 1, 0))) is None
    # parallel chords, and coincident consecutive points, which give none
    assert lifting._chord_meet(chord((0, 0, 0), (1, 1, 0)), chord((0, 1, 0), (2, 3, 0))) is None
    assert lifting._chords([((1, 2), 3), ((1, 2), 3)]) is None
    # one meet on a chord's first point, and one at (1/2, 1/2, 0)
    meet = lifting._chord_meet(chord((1, 0, 1), (2, 1, 1)), chord((0, 0, 0), (2, 0, 2)))
    assert meet == ((1, 0, 1), 1)
    meet = lifting._chord_meet(chord((0, 0, 0), (3, 3, 0)), chord((0, 1, 0), (1, 0, 0)))
    assert meet == ((1, 1, 0), 2)


def _report_or_error(P):
    try:
        return repr(lift_report(P))
    except PentagramError as exc:
        return f"{type(exc).__name__}: {exc}"


# each draw, the H_{g,k} its report builds, and why: one slice its slices
# in reach need does not mate
NATURAL = [
    # H(2,10) by prism 4 has coincident points 5 and 6, so H(3,9) by it does
    # not mate and H(4,8) by it is cut
    ("coincident", lambda: random_axis_aligned(7, seed=2), [(4, 8)]),
    ("parallel_chords", lambda: random_axis_aligned(8, seed=16), [(6, 8)]),
    # H(2,2) by prism 6 meets parallel chords
    ("parallel_mate", lambda: random_axis_aligned_m(2, 5, seed=36), [(3, 3)]),
    # |J_5| is parallel to prism 2
    ("parallel_cut", lambda: random_axis_aligned_m(3, 4, seed=44), [(2, 4)]),
    # H(3,3) by prisms 2 and 4 repeats points: the mates name it, and
    # build no flat
    ("repeated_point", lambda: random_axis_aligned(4, 12131605065070490169, 10), []),
]


@pytest.mark.parametrize("sample, flats", [case[1:] for case in NATURAL],
                         ids=[case[0] for case in NATURAL])
def test_natural_draw_falls_back_to_todays_report(monkeypatch, sample, flats):
    built = []
    real = lifting.flat_H
    monkeypatch.setattr(lifting, "flat_H", lambda g, k, hyperplanes: (
        built.append((g, k)) or real(g, k, hyperplanes)))
    outcome = _report_or_error(sample())
    assert built == flats
    assert _flat_route(monkeypatch, lambda: _report_or_error(sample())) == outcome


def test_degenerate_mate_raises_before_any_slicing(monkeypatch):
    # the chain meets parallel chords at stage 2; L2.4-L2.6 cannot raise
    # after L2.2, so the report raises that error before it slices
    def banned(*args):
        raise AssertionError("sliced")

    monkeypatch.setattr(lifting, "_slicing_pass", banned)
    assert _report_or_error(random_axis_aligned_m(3, 4, seed=0)) == (
        "DegenerateMeet: slot 0: parallel or identical lines have no single meet")


def _planted(monkeypatch, g, k, h, edit):
    """The verdicts and line of the slicing pass on planar n=5 at canonical
    heights, which reads its mate of H(g,k) by prism h as ``edit`` makes
    it; the lift itself slices.  From level 2 on the pass mates from
    chords, one (g, k, h) after the other."""
    pj = _lift(random_axis_aligned(5, seed=5), canonical_heights)
    n, prisms = pj.n, pj.prism_labels()
    index = [(g, k, h) for g in range(2, n) for k in range(g, 2 * (n - 1) - g + 1, 2)
             for h in prisms].index((g, k, h))
    made, mates = [], lifting._mates

    def edited(ps, qs):
        made.append(mates(ps, qs))
        return edit(made[-1]) if len(made) - 1 == index else made[-1]

    assert lifting._checked_pass(pj)[:2] == ((True, ()), (True, ()))
    with monkeypatch.context() as patch:
        patch.setattr(lifting, "_mates", edited)
        return lifting._checked_pass(pj)


def test_repeated_slice_line_is_named(monkeypatch):
    # point 2 moved onto the line through points 0 and 1
    def collinear(points):
        (a, den_a), (b, den_b) = points[:2]
        moved = lifting._reduced([2 * y * den_a - x * den_b for x, y in zip(a, b)],
                                 den_a * den_b)
        return [*points[:2], moved, *points[3:]]

    failure = ("H(2,2) vs prism 2: slice lines are not pairwise distinct",)
    assert _planted(monkeypatch, 2, 2, 2, collinear)[:2] == ((False, failure), (False, failure))


def _parallel_chords(points, coincide: bool):
    """Points 3 (and, if ``coincide``, 4) moved on from point 2 by steps of
    point 1 - point 0: chord 2 is parallel to chord 0 and, if ``coincide``,
    chord 3 lies on chord 2's line."""
    p0, p1, p2 = ([Fraction(x, den) for x in a] for a, den in points[:3])
    step = [y - x for x, y in zip(p0, p1)]
    moved = []
    for j in range(1, 3 if coincide else 2):
        q = [z + j * s for z, s in zip(p2, step)]
        den = lcm(*(x.denominator for x in q))
        moved.append(lifting._reduced([int(x * den) for x in q], den))
    return [*points[:3], *moved, *points[3 + len(moved):]]


def test_parallel_slice_lines_pass_the_line_check(monkeypatch):
    # chords 0 and 2 of prism 2's slice are parallel and distinct, so the
    # pass goes on to compare prism 4's slice set with the moved one
    def planted(points):
        points = _parallel_chords(points, False)
        chords = lifting._chords(points)
        assert chords[0][2] == chords[2][2]
        return points

    assert _planted(monkeypatch, 2, 2, 2, planted)[:2] == (
        (True, ()), (False, ("H(2,2): prism 4 slice set differs",)))


def test_parallel_slice_line_on_a_later_chord_is_named(monkeypatch):
    # chords 0, 2 and 3 are parallel, and 3 lies on 2's line but not on 0's
    def planted(points):
        points = _parallel_chords(points, True)
        chords = lifting._chords(points)
        assert chords[0][2] == chords[2][2] == chords[3][2]
        assert lifting._distinct_lines(chords[:3])
        return points

    failure = ("H(2,2) vs prism 2: slice lines are not pairwise distinct",)
    assert _planted(monkeypatch, 2, 2, 2, planted)[:2] == ((False, failure), (False, failure))


def test_slice_set_that_differs_is_named(monkeypatch):
    # prism 4, the second in reach of H(2,2), reads its point 0 moved by one
    def moved(points):
        (a, den), rest = points[0], points[1:]
        return [((a[0] + den, *a[1:]), den), *rest]

    assert _planted(monkeypatch, 2, 2, 4, moved)[:2] == (
        (True, ()), (False, ("H(2,2): prism 4 slice set differs",)))


def test_repeated_top_slice_point_still_joins_the_line(monkeypatch):
    # prism 2's slice of the line H(4,4), the first the pass reads the line
    # from, repeats its point 0 as point 1: the line joins two distinct points
    def repeated(points):
        return [points[0], *points[:1], *points[2:]]

    pj = _lift(random_axis_aligned(5, seed=5), canonical_heights)
    sliced, indep, line = _planted(monkeypatch, 4, 4, 2, repeated)
    assert sliced == (True, ())
    assert indep == (False, ("H(4,4) vs prism 2: slice points are not pairwise distinct",))
    assert line == flat_H(4, 4, pj.joint_flats())


# ---------------------------------------------------------------------------
# census: the mated slices against the flat route

SEEDS = range(40)
FAMILIES = {
    **{f"planar_n{n}": lambda seed, n=n: random_axis_aligned(n, seed) for n in range(3, 8)},
    **{f"mirror_n{n}": lambda seed, n=n: random_axis_aligned_mirror(n, seed)
       for n in range(3, 8)},
    **{f"corrugated_{m}_{n}": lambda seed, m=m, n=n: random_axis_aligned_m(m, n, seed)
       for m, n in ((3, 3), (2, 4), (3, 4))},
}
HEIGHTS = {
    "canonical": lambda seed: canonical_heights,
    "bound_2": lambda seed: lambda n, d: random_heights(n, d, SplitMix64(seed), bound=2),
}


def _census_case(monkeypatch, recorded_pass, pj, tally) -> None:
    """Compare one lift L2.2 accepted, and count it and its mates in reach."""
    n = pj.n
    verdicts, built, mates = recorded_pass(pj)
    assert verdicts == _flat_route(monkeypatch, lambda: lifting._checked_pass(pj))
    # after L2.2 every prism spans, and L2.4 holds
    assert all(map(lifting._spans, pj.prisms))
    assert all(skeleton_recurrence_check(T, n - 1) for T in pj.prisms)
    flats, H = pj.joint_flats(), {}
    for (g, k, h), points in mates.items():
        if abs(h - k) > g:
            continue
        if (g, k) not in H:
            H[g, k] = flat_H(g, k, flats)
        report = slices_check(H[g, k], pj.prism_at(h))
        chords = lifting._chords(points) if g < n - 1 else None
        assert report.reasons == tuple(lifting._slice_reasons(points, chords))
        if report.ok:
            assert report.points == tuple(
                tuple(Fraction(x, den) for x in num) for num, den in points)
        tally["mates"] += 1
    tally["cut" if built else "mated"] += 1


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_mated_pass_census(monkeypatch, recorded_pass, family):
    tally = {"mated": 0, "cut": 0, "refused": 0, "mates": 0}
    for seed in SEEDS:
        P = FAMILIES[family](seed)
        for heights in HEIGHTS.values():
            try:
                pj = _lift(P, heights(seed))
            except PentagramError:
                tally["refused"] += 1
                continue
            normals, rank = lifting._normals_and_rank(pj.joints)
            if rank != len(normals):
                tally["refused"] += 1
                continue
            _census_case(monkeypatch, recorded_pass, pj, tally)
    assert tally == CENSUS[family]


# lifts whose slices all mated, lifts with some slice in reach cut from its
# flat, lifts that did not build or that L2.2 turned down (80 per family),
# and mates in reach that equal slices_check
CENSUS = {
    "corrugated_2_4": {"mated": 68, "cut": 10, "refused": 2, "mates": 740},
    "corrugated_3_3": {"mated": 78, "cut": 2, "refused": 0, "mates": 238},
    "corrugated_3_4": {"mated": 70, "cut": 9, "refused": 1, "mates": 754},
    "mirror_n3": {"mated": 71, "cut": 0, "refused": 9, "mates": 213},
    "mirror_n4": {"mated": 76, "cut": 0, "refused": 4, "mates": 760},
    "mirror_n5": {"mated": 75, "cut": 2, "refused": 3, "mates": 1668},
    "mirror_n6": {"mated": 78, "cut": 2, "refused": 0, "mates": 3156},
    "mirror_n7": {"mated": 75, "cut": 4, "refused": 1, "mates": 5003},
    "planar_n3": {"mated": 79, "cut": 0, "refused": 1, "mates": 237},
    "planar_n4": {"mated": 78, "cut": 0, "refused": 2, "mates": 780},
    "planar_n5": {"mated": 76, "cut": 3, "refused": 1, "mates": 1721},
    "planar_n6": {"mated": 77, "cut": 3, "refused": 0, "mates": 3173},
    "planar_n7": {"mated": 73, "cut": 7, "refused": 0, "mates": 5125},
}
