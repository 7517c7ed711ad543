"""The mated pass of ``lift_report`` against the slicing pass.

On a lift that L2.2 accepted, ``lift_report`` decides L2.4 from one
determinant per prism (``_spans``), decides L2.5 and L2.6 from the slice
mates of ``_mate_levels``, and reads L2.8's line off two slice points.  Where
a premise fails, ``_mated_pass`` raises ``_Fallback`` and the report runs the
skeletons and the slicing pass.  Each premise is made to fail once here, on
a planted lift or chord pair or on a natural draw, and the census compares
the mated verdicts, every in-reach mate and the line with the slicing pass
over fixed seed windows.  A window is never re-seeded.
"""

from fractions import Fraction
from math import lcm

import pytest

from pentagram_lab import lifting
from pentagram_lab.corrugated import random_axis_aligned_m
from pentagram_lab.errors import NonTransverse, PentagramError
from pentagram_lab.lifting import (
    build_A_sequences,
    canonical_heights,
    flat_H,
    fully_sliced_check,
    hyperplane_normal,
    lift_report,
    parallel_lift,
    prism_independence_check,
    random_heights,
    skeleton_recurrence_check,
)
from pentagram_lab.mirror import random_axis_aligned_mirror
from pentagram_lab.pentagram2d import random_axis_aligned
from pentagram_lab.rng import SplitMix64


def _normals(pj):
    return tuple(hyperplane_normal(J) for J in pj.joints)


def _slicing_verdicts(pj):
    """L2.4, L2.5, L2.6 and the L2.8 line (None if H_{n-1,n-1} is not a
    line) from the public checks of the slicing path."""
    n = pj.n
    try:
        line = flat_H(n - 1, n - 1, pj.joint_flats())
    except NonTransverse:
        line = None
    return (all(skeleton_recurrence_check(T, n - 1) for T in pj.prisms),
            fully_sliced_check(pj), prism_independence_check(pj), line)


def _falls_back(pj) -> str:
    """The premise the mated pass names; the verdicts are the slicing pass's."""
    normals = _normals(pj)
    with pytest.raises(lifting._Fallback) as exc:
        lifting._mated_pass(pj, normals)
    assert lifting._sliced_verdicts(pj, normals) == _slicing_verdicts(pj)
    return str(exc.value)


def _lift(P, heights):
    seqs = lifting._lift_chain(lifting._variant(P)[0], build_A_sequences(P))[0]
    return parallel_lift(seqs, heights(seqs[0].count, seqs[0].d))


def test_zero_determinant_falls_back():
    # flat heights put both joints of the n=3 lift in one plane, so the
    # prism's lines span no more than it (L2.2 turns this lift down)
    pj = _lift(random_axis_aligned(3, seed=1000), lambda n, d: ((Fraction(0),),) * n)
    assert not lifting._spans(pj.prisms[0])
    assert _falls_back(pj) == "prism 2: its lines do not span R^3"
    assert _slicing_verdicts(pj)[0] is False


def test_level_one_cut_parallel_to_a_prism_falls_back():
    # |J_1| holds the direction of the far prism 4, which it need not slice
    pj = _lift(random_axis_aligned(5, seed=24),
               lambda n, d: random_heights(n, d, SplitMix64(24), bound=2))
    assert _falls_back(pj) == "H(1,1) is parallel to prism 4"
    assert _slicing_verdicts(pj)[:3] == (True, (True, ()), (True, ()))


def test_chord_meets_certify_every_coordinate():
    def chord(p, q):
        return lifting._chords([(p, 1), (q, 1)], "planted")[0]

    # the x-axis and the line through (1, 0, 1) and (1, 1, 0) are skew: the
    # minor of coordinates 0 and 1 gives a meet that coordinate 2 refutes
    with pytest.raises(lifting._Fallback, match="^planted: skew chords$"):
        lifting._chord_meet(chord((0, 0, 0), (2, 0, 0)), chord((1, 0, 1), (1, 1, 0)), "planted")
    with pytest.raises(lifting._Fallback, match="^planted: parallel or identical chords$"):
        lifting._chord_meet(chord((0, 0, 0), (1, 1, 0)), chord((0, 1, 0), (2, 3, 0)), "planted")
    with pytest.raises(lifting._Fallback, match="^planted: slice points 0 and 1 coincide$"):
        lifting._chords([((1, 2), 3), ((1, 2), 3)], "planted")
    # one meet on a chord's first point, and one at (1/2, 1/2, 0)
    meet = lifting._chord_meet(chord((1, 0, 1), (2, 1, 1)), chord((0, 0, 0), (2, 0, 2)), "planted")
    assert meet == ((1, 0, 1), 1)
    meet = lifting._chord_meet(chord((0, 0, 0), (3, 3, 0)), chord((0, 1, 0), (1, 0, 0)), "planted")
    assert meet == ((1, 1, 0), 2)


def _report_or_error(P):
    try:
        return repr(lift_report(P))
    except PentagramError as exc:
        return f"{type(exc).__name__}: {exc}"


NATURAL = [
    ("coincident", lambda: random_axis_aligned(7, seed=2),
     "H(2,10) vs prism 4: slice points 5 and 6 coincide"),
    ("parallel_mate", lambda: random_axis_aligned_m(2, 5, seed=36),
     "H(2,2) vs prism 6: parallel or identical chords"),
    ("parallel_cut", lambda: random_axis_aligned_m(3, 4, seed=44),
     "H(1,5) is parallel to prism 2"),
    ("repeated_point", lambda: random_axis_aligned(4, 12131605065070490169, 10),
     "H(3,3) vs prism 2: repeated slice point"),
]


@pytest.mark.parametrize("sample, premise", [case[1:] for case in NATURAL],
                         ids=[case[0] for case in NATURAL])
def test_natural_draw_falls_back_to_todays_report(monkeypatch, sample, premise):
    fallbacks = []

    def spy(pj, normals):
        try:
            return mated(pj, normals)
        except lifting._Fallback as exc:
            fallbacks.append(str(exc))
            raise

    def fall_back(pj, normals):
        raise lifting._Fallback("the slicing pass is under test")

    mated = lifting._mated_pass
    monkeypatch.setattr(lifting, "_mated_pass", spy)
    outcome = _report_or_error(sample())
    assert fallbacks == [premise]
    monkeypatch.setattr(lifting, "_mated_pass", fall_back)
    assert _report_or_error(sample()) == outcome


def test_degenerate_mate_raises_before_any_slicing(monkeypatch):
    # the chain meets parallel chords at stage 2; L2.4-L2.6 cannot raise
    # after L2.2, so the report raises that error before it slices
    def banned(*args):
        raise AssertionError("sliced")

    for name in ("_mated_pass", "_slicing_pass"):
        monkeypatch.setattr(lifting, name, banned)
    assert _report_or_error(random_axis_aligned_m(3, 4, seed=0)) == (
        "DegenerateMeet: slot 0: parallel or identical lines have no single meet")


def _planted(monkeypatch, g, k, h, edit):
    """Planar n=5 at canonical heights, whose slice of H_{g,k} by prism h
    the mated pass reads as ``edit`` makes it; the lift itself slices."""
    pj = _lift(random_axis_aligned(5, seed=5), canonical_heights)
    levels = lifting._mate_levels

    def edited(pj, normals):
        for level_g, level in levels(pj, normals):
            if level_g == g:
                level[k, h] = edit(level[k, h])
            yield level_g, level

    monkeypatch.setattr(lifting, "_mate_levels", edited)
    return pj


def test_repeated_slice_line_falls_back(monkeypatch):
    # point 2 moved onto the line through points 0 and 1
    def collinear(points):
        (a, den_a), (b, den_b) = points[:2]
        moved = lifting._reduced([2 * y * den_a - x * den_b for x, y in zip(a, b)],
                                 den_a * den_b)
        return [*points[:2], moved, *points[3:]]

    pj = _planted(monkeypatch, 2, 2, 2, collinear)
    assert _falls_back(pj) == "H(2,2) vs prism 2: repeated slice line"
    assert _slicing_verdicts(pj)[:3] == (True, (True, ()), (True, ()))


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
        chords = lifting._chords(points, "planted")
        assert chords[0][2] == chords[2][2]
        return points

    pj = _planted(monkeypatch, 2, 2, 2, planted)
    assert _falls_back(pj) == "H(2,2) vs prism 4: slice set differs"


def test_parallel_slice_line_on_a_later_chord_falls_back(monkeypatch):
    # chords 0, 2 and 3 are parallel, and 3 lies on 2's line but not on 0's
    def planted(points):
        points = _parallel_chords(points, True)
        chords = lifting._chords(points, "planted")
        assert chords[0][2] == chords[2][2] == chords[3][2]
        assert lifting._distinct_lines(chords[:3])
        return points

    pj = _planted(monkeypatch, 2, 2, 2, planted)
    assert _falls_back(pj) == "H(2,2) vs prism 2: repeated slice line"
    assert _slicing_verdicts(pj)[:3] == (True, (True, ()), (True, ()))


def test_slice_set_that_differs_falls_back(monkeypatch):
    # prism 4, the second in reach of H(2,2), reads its point 0 moved by one
    def moved(points):
        (a, den), rest = points[0], points[1:]
        return [((a[0] + den, *a[1:]), den), *rest]

    pj = _planted(monkeypatch, 2, 2, 4, moved)
    assert _falls_back(pj) == "H(2,2) vs prism 4: slice set differs"
    assert _slicing_verdicts(pj)[:3] == (True, (True, ()), (True, ()))


# ---------------------------------------------------------------------------
# census: the mated pass against the slicing pass

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


def _census_case(monkeypatch, pj, tally) -> None:
    """Compare one lift L2.2 accepted, and count it and its in-reach mates."""
    n, labels = pj.n, pj.prism_labels()
    label = dict(zip(pj.prisms, labels))
    cuts, real = [], lifting._Skeleton.slices

    def recorded(skeleton, W):
        cuts.append((W, label[skeleton.prism], real(skeleton, W)))
        return cuts[-1][2]

    with monkeypatch.context() as patch:
        patch.setattr(lifting._Skeleton, "slices", recorded)
        skeletons = lifting._skeletons(pj)
        recurrence = [s.recurrence_holds(n - 1) for s in skeletons.values()]
        H, sliced, indep = lifting._slicing_pass(pj, skeletons)
    key = {id(W): gk for gk, W in H.items()}
    cut = {(*key[id(W)], h): points for W, h, (points, _) in cuts}
    normals = _normals(pj)
    try:
        # the levels before the one a premise fails in are complete
        for g, level in lifting._mate_levels(pj, normals):
            for (k, h), points in level.items():
                if abs(h - k) <= g:
                    assert [(p._num, p._den) for p in cut[g, k, h]] == points
                    tally["mates"] += 1
    except lifting._Fallback:
        pass
    try:
        line = lifting._mated_pass(pj, normals)
    except lifting._Fallback:
        tally["fell back"] += 1
        return
    assert all(recurrence) and sliced == indep == (True, ())
    assert line == H[n - 1, n - 1]
    tally["mated"] += 1


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_mated_pass_census(monkeypatch, family):
    tally = {"mated": 0, "fell back": 0, "refused": 0, "mates": 0}
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
            _census_case(monkeypatch, pj, tally)
    assert tally == CENSUS[family]


# lifts the mated pass decided, lifts it handed to the slicing pass, lifts
# that did not build or that L2.2 turned down (80 per family), and in-reach
# mates equal to the slicing pass's cuts
CENSUS = {
    "corrugated_2_4": {"mated": 68, "fell back": 10, "refused": 2, "mates": 720},
    "corrugated_3_3": {"mated": 78, "fell back": 2, "refused": 0, "mates": 238},
    "corrugated_3_4": {"mated": 70, "fell back": 9, "refused": 1, "mates": 736},
    "mirror_n3": {"mated": 71, "fell back": 0, "refused": 9, "mates": 213},
    "mirror_n4": {"mated": 76, "fell back": 0, "refused": 4, "mates": 760},
    "mirror_n5": {"mated": 75, "fell back": 2, "refused": 3, "mates": 1662},
    "mirror_n6": {"mated": 78, "fell back": 2, "refused": 0, "mates": 3136},
    "mirror_n7": {"mated": 75, "fell back": 4, "refused": 1, "mates": 4915},
    "planar_n3": {"mated": 79, "fell back": 0, "refused": 1, "mates": 237},
    "planar_n4": {"mated": 78, "fell back": 0, "refused": 2, "mates": 780},
    "planar_n5": {"mated": 76, "fell back": 3, "refused": 1, "mates": 1684},
    "planar_n6": {"mated": 77, "fell back": 3, "refused": 0, "mates": 3114},
    "planar_n7": {"mated": 73, "fell back": 7, "refused": 0, "mates": 4854},
}
