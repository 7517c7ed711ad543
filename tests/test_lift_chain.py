"""The L2.7 mating chain runs on homogeneous integer points.

Mates are canonical ``ProjPoint``s and L2.7 compares them with the map
orbit's own points, so the chain makes no ``Fraction`` round trip; the
public ``line_meet`` keeps its affine results and its typed errors.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentagram_lab import lifting
from pentagram_lab.errors import (
    DegenerateJoin,
    DegenerateMeet,
    InfiniteVertex,
    NonCoplanarDiagonals,
)
from pentagram_lab.lifting import build_A_sequences, lift_report, line_meet, mating
from pentagram_lab.mirror import random_axis_aligned_mirror
from pentagram_lab.pentagram2d import random_axis_aligned
from pentagram_lab.projcore import ProjPoint


@pytest.mark.parametrize("sample", [
    lambda: random_axis_aligned(5, seed=5),
    lambda: random_axis_aligned_mirror(5, seed=5),
], ids=["planar_n5", "mirror_n5"])
def test_mating_chain_makes_no_fraction_round_trip(monkeypatch, sample):
    P = sample()
    entered = Counter()
    inside: set[str] = set()
    calls = Counter()

    def scoped(name):
        original = getattr(lifting, name)

        def wrapper(*args, **kwargs):
            entered[name] += 1
            inside.add(name)
            try:
                return original(*args, **kwargs)
            finally:
                inside.discard(name)

        return wrapper

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name, "anywhere"] += 1
            for scope in inside:
                calls[name, scope] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("_mating_orbit", "_check_stage"):
        monkeypatch.setattr(lifting, name, scoped(name))
    monkeypatch.setattr(Fraction, "__eq__", counted("Fraction.__eq__", Fraction.__eq__))
    monkeypatch.setattr(ProjPoint, "affine_coords",
                        counted("affine_coords", ProjPoint.affine_coords))
    rep = lift_report(P)
    monkeypatch.undo()
    assert rep.ok
    assert entered["_mating_orbit"] == 1 and entered["_check_stage"] > 1
    # the counters are live: L2.3 reads the expected centroid as a Fraction vector
    assert calls["affine_coords", "anywhere"] > 0
    assert calls["Fraction.__eq__", "_check_stage"] == 0
    assert calls["affine_coords", "_mating_orbit"] == 0


def _stage_two_with(point):
    """Stage 2 of a planar n=4 chain and an orbit context in which the first
    mate's tagged orbit point is replaced by ``point``."""
    P = random_axis_aligned(4, seed=2)
    ctx = lifting._OrbitContext(P)
    stages = lifting._run_chain(build_A_sequences(P), mating)
    assert lifting._check_stage(ctx, stages[1], 2, expect_union=True).ok
    tag = stages[1][0].tags[0]
    ctx._maps[1][tag % ctx.period] = point
    return ctx, stages[1]


def test_stage_check_sees_a_wrong_orbit_point():
    ctx, stage = _stage_two_with(ProjPoint.affine(Fraction(1, 3), 7))
    check = lifting._check_stage(ctx, stage, 2, expect_union=True)
    assert (check.tags_ok, check.labels_ok, check.union_ok) == (False, True, True)


def test_tagged_point_at_infinity_raises_as_affine_coords_does():
    ctx, stage = _stage_two_with(ProjPoint((1, 2, 0)))
    with pytest.raises(InfiniteVertex, match=r"^\(1 : 2 : 0\) has no affine coordinates$"):
        lifting._check_stage(ctx, stage, 2, expect_union=True)


small = st.integers(-6, 6)
nonzero = small.filter(bool)


def _along(p, q, t):
    return tuple(a + t * (b - a) for a, b in zip(p, q))


@st.composite
def planted_lines(draw):
    """Two lines of R^d, d = 1..5, planted to meet, to be parallel, to
    coincide or (generically, from d = 3) to be skew; returns the four points
    and the outcome ``line_meet`` owes."""
    d = draw(st.integers(1, 5))
    point = st.tuples(*[small.map(Fraction)] * d)
    p0 = draw(point)
    p1 = draw(point.filter(lambda p: p != p0))
    kind = draw(st.sampled_from(["meet", "parallel", "identical", "skew"]))
    q0 = draw(point)
    if kind == "identical" or d == 1:
        q0 = _along(p0, p1, Fraction(draw(small), draw(nonzero)))
        q1 = _along(p0, p1, Fraction(draw(small), draw(nonzero)))
        if q0 == q1:
            return p0, p1, q0, q1, (DegenerateJoin, "cannot join coincident points")
        return p0, p1, q0, q1, (DegenerateMeet, "parallel or identical lines have no single meet")
    off_line = _rank([_sub(p1, p0), _sub(q0, p0)]) == 2
    if kind == "parallel" and off_line:
        k = draw(nonzero)
        q1 = tuple(a + k * (b - c) for a, b, c in zip(q0, p1, p0))
        return p0, p1, q0, q1, (DegenerateMeet, "parallel or identical lines have no single meet")
    if kind == "meet" and off_line:
        x = _along(p0, p1, Fraction(draw(small), draw(nonzero)))
        q1 = _along(q0, x, Fraction(draw(nonzero), draw(nonzero)))
        if q1 == q0:
            return p0, p1, q0, q1, (DegenerateJoin, "cannot join coincident points")
        return p0, p1, q0, q1, x
    q1 = draw(point.filter(lambda q: q != q0))
    rank = _rank([_sub(p1, p0), _sub(q0, p0), _sub(q1, p0)])
    if rank == 3:
        return p0, p1, q0, q1, (NonCoplanarDiagonals, "lines are skew")
    return None


def _sub(p, q):
    return [a - b for a, b in zip(p, q)]


def _rank(rows):
    """Rank by plain Gaussian elimination over Fraction."""
    rows = [list(map(Fraction, row)) for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=300, deadline=None)
@given(planted_lines().filter(lambda case: case is not None))
def test_homogeneous_meet_on_planted_lines(case):
    p0, p1, q0, q1, expected = case
    try:
        got = line_meet(p0, p1, q0, q1)
    except (DegenerateJoin, DegenerateMeet, NonCoplanarDiagonals) as exc:
        got = type(exc), str(exc)
    else:
        assert all(type(c) is Fraction for c in got)
    assert got == expected
