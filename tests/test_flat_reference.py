"""AffineFlat, line_meet, joints, prisms and normals against a plain
Fraction reference.

``RefFlat`` is the Fraction form of ``AffineFlat``: a reduced echelon basis
with pivot 1, a base point with zeros in the pivot columns, and equations
taken from the nullspace of the basis.  It runs on the small Gauss-Jordan
loop over ``Fraction`` below and shares no code with the library, so every
result of the integer ``AffineFlat`` must equal it exactly.  The joint,
prism and normal references restate the rank tests and the cofactor
expansion over ``Fraction`` in the same way.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pentagram_lab.corrugated import random_axis_aligned_m
from pentagram_lab.errors import (
    DegenerateJoin,
    DegenerateMeet,
    DegenerateSpan,
    DimensionMismatch,
    NonCoplanarDiagonals,
    NotAJoint,
)
from pentagram_lab.lifting import (
    AffineFlat,
    Joint,
    NPoint,
    Prism,
    SlicesReport,
    hyperplane_normal,
    lift_report,
    line_meet,
    mating,
    skeleton_recurrence_check,
    slices_check,
    star,
)
from pentagram_lab.mirror import random_axis_aligned_mirror
from pentagram_lab.pentagram2d import random_axis_aligned

# ---------------------------------------------------------------------------
# reference: exact Gauss-Jordan over Fraction


def _rref(rows, ncols):
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def _nullspace(rows, ncols):
    m, pivots = _rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, p in zip(m, pivots):
            x[p] = -row[f]
        basis.append(tuple(x))
    return basis


def _solution_space(rows, rhs, ncols):
    m, pivots = _rref([[*row, b] for row, b in zip(rows, rhs)], ncols)
    if any(row[ncols] != 0 for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(m, pivots):
        x[p] = row[ncols]
    return tuple(x), _nullspace(rows, ncols)


def _rank(rows):
    return len(_rref(rows, len(rows[0]))[1]) if rows else 0


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


class RefFlat:
    def __init__(self, base, basis):
        self.base = base
        self.basis = basis

    @classmethod
    def of(cls, base, directions):
        base = tuple(Fraction(c) for c in base)
        rows = [list(d) for d in directions if any(c != 0 for c in d)]
        if rows:
            reduced, pivots = _rref(rows, len(base))
            basis = tuple(tuple(r) for r in reduced[: len(pivots)])
        else:
            basis, pivots = (), []
        point = list(base)
        for row, p in zip(basis, pivots):
            if point[p] != 0:
                factor = point[p]
                point = [x - factor * y for x, y in zip(point, row)]
        return cls(tuple(point), basis)

    @classmethod
    def from_points(cls, points):
        points = [tuple(Fraction(c) for c in p) for p in points]
        return cls.of(points[0], [_sub(p, points[0]) for p in points[1:]])

    @property
    def dim(self):
        return len(self.basis)

    @property
    def codim(self):
        return len(self.base) - self.dim

    def contains(self, point):
        base = [list(b) for b in self.basis]
        return _rank(base + [list(_sub(tuple(point), self.base))]) == _rank(base)

    def _equations(self):
        normals = _nullspace(self.basis, len(self.base))
        return normals, [sum(a * b for a, b in zip(nrm, self.base)) for nrm in normals]

    def intersect(self, other):
        rows_a, rhs_a = self._equations()
        rows_b, rhs_b = other._equations()
        space = _solution_space(rows_a + rows_b, rhs_a + rhs_b, len(self.base))
        return None if space is None else RefFlat.of(*space)

    def span_with(self, other):
        return RefFlat.of(self.base, [*self.basis, *other.basis, _sub(other.base, self.base)])

    def project(self, d):
        return RefFlat.of(self.base[:d], [b[:d] for b in self.basis])


def ref_line_meet(p0, p1, q0, q1):
    if p0 == p1 or q0 == q1:
        raise DegenerateJoin("cannot join coincident points")
    u, v, w = _sub(p1, p0), _sub(q1, q0), _sub(q0, p0)
    if _rank([u, v, w]) > 2:
        raise NonCoplanarDiagonals("lines are skew")
    if _rank([u, v]) == 1:
        raise DegenerateMeet("parallel or identical lines have no single meet")
    t = _solution_space([[a, -b] for a, b in zip(u, v)], w, 2)[0][0]
    return tuple(a + t * b for a, b in zip(p0, u))


def _det(m):
    """Laplace expansion along the first row."""
    if not m:
        return Fraction(1)
    return sum((
        (-1) ** c * m[0][c] * _det([row[:c] + row[c + 1:] for row in m[1:]])
        for c in range(len(m))
    ), Fraction(0))


def ref_joint_error(points):
    n = len(points)
    if _rank([_sub(p, points[0]) for p in points[1:]]) != n - 1:
        return NotAJoint, "points are affinely dependent"
    return None


def ref_normal(points):
    diffs = [list(_sub(p, points[0])) for p in points[1:]]
    return tuple(
        (-1) ** c * _det([row[:c] + row[c + 1:] for row in diffs])
        for c in range(len(points))
    )


def ref_between(bases, tops):
    dirs = [_sub(q, p) for p, q in zip(bases, tops)]
    if any(all(c == 0 for c in d) for d in dirs):
        return DegenerateSpan, "coincident points give no prism line"
    if _rank(dirs) != 1:
        return DegenerateSpan, "connecting lines are not parallel"
    lead = next(c for c in dirs[0] if c != 0)
    direction = tuple(c / lead for c in dirs[0])
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            if _rank([direction, _sub(bases[j], bases[i])]) != 2:
                return DegenerateSpan, f"prism lines {i} and {j} coincide"
    return tuple(bases), direction


# ---------------------------------------------------------------------------
# strategies: small rationals, with zero, repeated and dependent directions

rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
)

nonzero = st.sampled_from([Fraction(a, b) for a in (-3, -2, -1, 1, 2, 5) for b in (1, 2, 3)])


def vectors(n):
    return st.lists(rationals, min_size=n, max_size=n).map(tuple)


@st.composite
def direction_sets(draw, n):
    dirs = draw(st.lists(vectors(n), max_size=n + 1))
    extras = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "repeat", "combine"]))
        if kind == "zero" or not dirs:
            extras.append((Fraction(0),) * n)
        elif kind == "repeat":
            extras.append(draw(st.sampled_from(dirs)))
        else:
            a, b = draw(st.sampled_from(dirs)), draw(st.sampled_from(dirs))
            s, t = draw(rationals), draw(rationals)
            extras.append(tuple(s * x + t * y for x, y in zip(a, b)))
    order = draw(st.permutations(dirs + extras))
    return list(order)


@st.composite
def flats(draw, n):
    return draw(vectors(n)), draw(direction_sets(n))


@st.composite
def flat_pairs(draw):
    n = draw(st.integers(1, 5))
    base_a, dirs_a = draw(flats(n))
    kind = draw(st.sampled_from(["free", "translate", "same", "sub"]))
    if kind == "free":
        base_b, dirs_b = draw(flats(n))
    elif kind == "translate":
        # parallel to the first flat: empty meet unless the shift lies in it
        base_b, dirs_b = draw(vectors(n)), list(dirs_a)
    elif kind == "same":
        base_b, dirs_b = base_a, list(reversed(dirs_a))
    else:
        base_b, dirs_b = base_a, dirs_a[:1]
    return n, (base_a, dirs_a), (base_b, dirs_b)


def _same(flat, ref):
    assert flat.base == ref.base and flat.basis == ref.basis
    assert all(type(c) is Fraction for c in flat.base)
    assert all(type(c) is Fraction for row in flat.basis for c in row)
    assert (flat.dim, flat.codim, flat.ambient) == (ref.dim, ref.codim, len(ref.base))


def _meet_or_error(f, *args):
    try:
        return f(*args)
    except (DegenerateJoin, DegenerateMeet, NonCoplanarDiagonals) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(flats), st.data())
def test_of_matches_reference(flat, data):
    base, dirs = flat
    got = AffineFlat.of(base, dirs)
    _same(got, RefFlat.of(base, dirs))
    # the same flat from another base point and rescaled, reordered directions
    shift = [data.draw(rationals) for _ in dirs]
    moved = tuple(
        x + sum((c * d[i] for c, d in zip(shift, dirs)), Fraction(0))
        for i, x in enumerate(base)
    )
    scales = [data.draw(nonzero) for _ in dirs]
    rescaled = data.draw(st.permutations([
        tuple(k * c for c in d) for k, d in zip(scales, dirs)
    ]))
    again = AffineFlat.of(moved, rescaled)
    assert again == got and hash(again) == hash(got)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(vectors(n), min_size=1, max_size=n + 2)))
def test_from_points_matches_reference(points):
    _same(AffineFlat.from_points(points), RefFlat.from_points(points))


@settings(max_examples=100, deadline=None)
@given(flat_pairs())
def test_intersect_matches_reference(pair):
    n, a, b = pair
    flat_a, flat_b = AffineFlat.of(*a), AffineFlat.of(*b)
    ref_a, ref_b = RefFlat.of(*a), RefFlat.of(*b)
    got, want = flat_a.intersect(flat_b), ref_a.intersect(ref_b)
    assert (got is None) == (want is None)
    if want is not None:
        _same(got, want)
    # equality and hashing follow the canonical form
    equal = (ref_a.base, ref_a.basis) == (ref_b.base, ref_b.basis)
    assert (flat_a == flat_b) is equal
    if equal:
        assert hash(flat_a) == hash(flat_b)


@settings(max_examples=100, deadline=None)
@given(flat_pairs(), st.data())
def test_span_project_contains_match_reference(pair, data):
    n, a, b = pair
    flat_a, flat_b = AffineFlat.of(*a), AffineFlat.of(*b)
    ref_a, ref_b = RefFlat.of(*a), RefFlat.of(*b)
    _same(flat_a.span_with(flat_b), ref_a.span_with(ref_b))
    d = data.draw(st.integers(1, n))
    _same(flat_a.project(d), ref_a.project(d))
    # a point of the flat, and one drawn freely
    coeffs = data.draw(st.lists(rationals, min_size=ref_a.dim, max_size=ref_a.dim))
    inside = tuple(
        x + sum((c * row[i] for c, row in zip(coeffs, ref_a.basis)), Fraction(0))
        for i, x in enumerate(ref_a.base)
    )
    for point in (inside, data.draw(vectors(n))):
        assert flat_a.contains(point) == ref_a.contains(point)
    assert flat_a.contains(inside)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4).flatmap(lambda d: st.tuples(*[vectors(d)] * 4)), st.data())
def test_line_meet_matches_reference(points, data):
    p0, p1, q0, q1 = points
    # often put q0 on the line p0 p1, so coplanar and coincident cases occur
    if data.draw(st.booleans()):
        t = data.draw(rationals)
        q0 = tuple(a + t * (b - a) for a, b in zip(p0, p1))
    if data.draw(st.booleans()):
        s = data.draw(rationals)
        q1 = tuple(a + s * (b - a) for a, b in zip(p0, p1))
    assert _meet_or_error(line_meet, p0, p1, q0, q1) == _meet_or_error(
        ref_line_meet, p0, p1, q0, q1
    )


@st.composite
def point_sets(draw):
    """n points of R^n, often with one an affine combination of others."""
    n = draw(st.integers(2, 5))
    points = draw(st.lists(vectors(n), min_size=n, max_size=n))
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        t = draw(rationals)
        points[k] = tuple(a + t * (b - a) for a, b in zip(points[i], points[j]))
    return points


@settings(max_examples=150, deadline=None)
@given(point_sets())
def test_joint_and_normal_match_reference(points):
    expected = ref_joint_error(points)
    try:
        J = Joint.of(points)
    except NotAJoint as exc:
        assert (NotAJoint, str(exc)) == expected
        return
    assert expected is None
    assert J.points == tuple(points)
    assert all(type(c) is Fraction for p in J.points for c in p)
    normal = hyperplane_normal(J)
    assert normal == ref_normal(points)
    assert all(type(c) is Fraction for c in normal)


@st.composite
def prism_pairs(draw):
    """Two n-point sets whose connecting lines are often parallel, with
    planted coincident lines (p_j = p_i + mu w) and coincident points."""
    n = draw(st.integers(2, 5))
    bases = draw(st.lists(vectors(n), min_size=n, max_size=n))
    w = draw(vectors(n).filter(any))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        mu = draw(rationals)
        bases[j] = tuple(a + mu * b for a, b in zip(bases[i], w))
    steps = [draw(nonzero) for _ in range(n)]
    if draw(st.integers(0, 4)) == 0:
        steps[draw(st.integers(0, n - 1))] = Fraction(0)
    tops = [tuple(a + s * b for a, b in zip(p, w)) for p, s in zip(bases, steps)]
    if draw(st.integers(0, 4)) == 0:
        tops[-1] = draw(vectors(n))
    return bases, tops


@settings(max_examples=200, deadline=None)
@given(prism_pairs())
def test_prism_between_matches_reference(pair):
    bases, tops = pair
    # Joint() skips the independence test, so several lines may coincide
    J1, J2 = Joint(tuple(bases)), Joint(tuple(tops))
    try:
        T = Prism.between(J1, J2)
    except DegenerateSpan as exc:
        got = DegenerateSpan, str(exc)
    else:
        got = T.bases, T.direction
        assert all(type(c) is Fraction for c in T.direction)
    assert got == ref_between(bases, tops)


def test_prism_between_names_the_first_coincident_pair():
    # lines 1 and 2 coincide, and so do lines 0 and 3: (0, 3) comes first
    e = [tuple(F(int(i == c)) for c in range(4)) for i in range(4)]
    w = e[3]
    bases = (e[0], e[1], tuple(a + b for a, b in zip(e[1], w)),
             tuple(a + 2 * b for a, b in zip(e[0], w)))
    tops = tuple(tuple(a + 3 * b for a, b in zip(p, w)) for p in bases)
    with pytest.raises(DegenerateSpan, match=r"^prism lines 0 and 3 coincide$"):
        Prism.between(Joint(bases), Joint(tops))
    assert ref_between(bases, tops) == (DegenerateSpan, "prism lines 0 and 3 coincide")


# ---------------------------------------------------------------------------
# pinned outcomes (as the library gave them before the integer flats)

F = Fraction
PARALLEL = (DegenerateMeet, "parallel or identical lines have no single meet")


@pytest.mark.parametrize("points, expected", [
    (((0, 0), (2, 1), (1, 0), (0, F(1, 2))), (F(1, 2), F(1, 4))),
    (((0, 0, 0), (1, 1, 1), (1, 0, 0), (0, 1, 1)), (F(1, 2), F(1, 2), F(1, 2))),
    (((0, 0, 0), (1, 0, 0), (0, 1, 1), (0, 2, 1)),
     (NonCoplanarDiagonals, "lines are skew")),
    (((0, 0), (1, 1), (1, 0), (2, 1)), PARALLEL),
    (((0, 0, 0), (1, 2, 3), (1, 0, 0), (2, 2, 3)), PARALLEL),
    (((0, 0), (1, 1), (2, 2), (3, 3)), PARALLEL),
    (((0, 0, 0), (1, 2, 3), (2, 4, 6), (3, 6, 9)), PARALLEL),
    (((0, 0), (0, 0), (2, 2), (3, 3)), (DegenerateJoin, "cannot join coincident points")),
], ids=["meet", "meet_3d", "skew", "parallel", "parallel_3d", "identical",
        "identical_3d", "coincident_points"])
def test_line_meet_outcomes(points, expected):
    points = tuple(tuple(F(c) for c in p) for p in points)
    assert _meet_or_error(line_meet, *points) == expected


def test_mate_names_the_failing_slot():
    # slot 0 meets at (-2, 0); the slot-1 chords are the parallel lines x=1, x=2
    X = NPoint(((0, 0), (1, 0), (1, 1)), (1, 5, 9), seq_label=1, period=12)
    Y = NPoint(((0, 1), (2, 2), (2, 3)), (3, 7, 11), seq_label=3, period=12)
    for op in (mating, star):
        assert _meet_or_error(op, X, Y) == (
            DegenerateMeet, "slot 1: parallel or identical lines have no single meet"
        )
    tags = ((1, False), (2, True), (3, False))
    X3 = NPoint(((0, 0, 0), (1, 0, 0), (1, 1, 0)), tags, seq_label=1, cycle=3)
    Y3 = NPoint(((0, 1, 1), (0, 2, 1), (5, 5, 5)), tags, seq_label=3, cycle=3)
    assert _meet_or_error(star, X3, Y3) == (NonCoplanarDiagonals, "slot 0: lines are skew")


# ---------------------------------------------------------------------------
# the meet by substitution: either order, every shape of pair


@st.composite
def directions_of_dim(draw, n, k):
    """k directions of R^n spanning exactly k dimensions: echelon rows with
    unit pivots, then mixed by shears and nonzero scales."""
    pivots = sorted(draw(st.permutations(range(n)))[:k])
    rows = [
        [Fraction(int(c == p)) if c in pivots else draw(rationals) for c in range(n)]
        for p in pivots
    ]
    for _ in range(draw(st.integers(0, 3)) if k > 1 else 0):
        i, j = draw(st.permutations(range(k)))[:2]
        t = draw(rationals)
        rows[i] = [x + t * y for x, y in zip(rows[i], rows[j])]
    scales = [draw(nonzero) for _ in rows]
    return [tuple(s * x for x in row) for s, row in zip(scales, rows)]


def _unit(n, i):
    return tuple(Fraction(int(c == i)) for c in range(n))


def _point_on(draw, base, dirs):
    coeffs = [draw(rationals) for _ in dirs]
    return tuple(
        x + sum((c * d[i] for c, d in zip(coeffs, dirs)), Fraction(0))
        for i, x in enumerate(base)
    )


MEET_KINDS = ("smaller", "larger", "equal", "point_on", "point_off", "whole")


@st.composite
def meet_pairs(draw, kind):
    """(n, a, b) with flat a of the given kind relative to flat b."""
    n = draw(st.integers(2, 5))
    if kind == "equal":
        da = db = draw(st.integers(0, n))
    elif kind in ("smaller", "larger"):
        low, high = sorted(draw(st.permutations(range(n + 1)))[:2])
        da, db = (low, high) if kind == "smaller" else (high, low)
    elif kind == "whole":
        da, db = n, draw(st.integers(0, n))
    else:
        da, db = 0, draw(st.integers(0, n - 1))
    b = draw(vectors(n)), draw(directions_of_dim(n, db))
    if kind == "point_on":
        a = _point_on(draw, *b), []
    elif kind == "point_off":
        # a point of b moved along a unit vector outside b's directions
        i = next(i for i in range(n) if _rank([*b[1], _unit(n, i)]) > db)
        a = tuple(x + y for x, y in zip(_point_on(draw, *b), _unit(n, i))), []
    else:
        a = draw(vectors(n)), draw(directions_of_dim(n, da))
    return n, a, b


@pytest.mark.parametrize("kind", MEET_KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_intersect_either_order_matches_reference(kind, data):
    n, a, b = data.draw(meet_pairs(kind))
    flat_a, flat_b = AffineFlat.of(*a), AffineFlat.of(*b)
    dims = flat_a.dim, flat_b.dim
    assert {
        "smaller": dims[0] < dims[1], "larger": dims[0] > dims[1],
        "equal": dims[0] == dims[1], "point_on": dims[0] == 0,
        "point_off": dims[0] == 0 and dims[1] < n, "whole": dims[0] == n,
    }[kind]
    want = RefFlat.of(*a).intersect(RefFlat.of(*b))
    ab, ba = flat_a.intersect(flat_b), flat_b.intersect(flat_a)
    assert ab == ba
    if kind == "point_off":
        assert want is None
    if want is None:
        assert ab is None and ba is None
    else:
        _same(ab, want)
        _same(ba, want)
    if kind == "point_on":
        assert ab == flat_a
    if kind == "whole":
        assert ab == flat_b


def _ref(flat):
    return RefFlat.of(flat.base, flat.basis)


@pytest.mark.parametrize("sample", [
    lambda: random_axis_aligned(5, seed=5),
    lambda: random_axis_aligned_mirror(5, seed=5),
    lambda: random_axis_aligned_m(3, 3, seed=0),
], ids=["planar_n5", "mirror_n5", "corrugated_3_3"])
def test_lift_report_meets_match_reference(monkeypatch, sample):
    # every meet one whole battery makes, each against the reference
    met = []

    def recorded(self, other):
        meet = original(self, other)
        met.append((self, other, meet))
        return meet

    original = AffineFlat.intersect
    monkeypatch.setattr(AffineFlat, "intersect", recorded)
    assert lift_report(sample()).ok
    assert met
    for a, b, meet in met:
        want = _ref(a).intersect(_ref(b))
        if want is None:
            assert meet is None
        else:
            _same(meet, want)


def test_flats_of_different_spaces_raise(monkeypatch):
    a = AffineFlat.of((1, 2, 3), [(1, 0, 0)])
    b = AffineFlat.of((1, 2), [(0, 1)])
    # raised before any arithmetic: no equation rows are read
    monkeypatch.setattr(AffineFlat, "_equation_rows", None)
    for x, y in ((a, b), (b, a)):
        dims = re.escape(f"R^{x.ambient} and R^{y.ambient}")
        with pytest.raises(DimensionMismatch, match=rf"^cannot meet flats in {dims}$"):
            x.intersect(y)
        with pytest.raises(DimensionMismatch, match=rf"^cannot span flats in {dims}$"):
            x.span_with(y)


# ---------------------------------------------------------------------------
# L2.4 and the slice lines, decided by dimension count, against the meets


def ref_levels(T, top):
    """Levels 1..top of T's skeleton as RefFlats, raising as the library does."""
    n = T.n
    levels = [[RefFlat.of(b, [T.direction]) for b in T.bases]]
    while len(levels) < top:
        level, prev = len(levels) + 1, levels[-1]
        faces = [prev[t].span_with(prev[(t + 1) % n]) for t in range(n)]
        for t, face in enumerate(faces):
            if face.dim != level:
                raise DegenerateSpan(f"level {level} face {t} has dimension {face.dim}")
        levels.append(faces)
    return levels


def ref_recurrence(T, k):
    """t_{l-1}(j) = t_l(j-1) ^ t_l(j+1) for 2 <= l <= k, by computing each meet."""
    levels, n = ref_levels(T, k), T.n
    for prev, cur in zip(levels, levels[1:]):
        for t in range(n):
            meet = cur[(t - 1) % n].intersect(cur[t])
            if meet is None or (meet.base, meet.basis) != (prev[t].base, prev[t].basis):
                return False
    return True


def ref_slices(W, T):
    """W against every level-j and level-(j+1) face, each cut by a meet."""
    n, j = T.n, W.codim
    if not 1 <= j <= n - 1:
        return SlicesReport(False, j, None, (f"codimension {j} out of range",))
    levels = ref_levels(T, min(j + 1, n - 1))
    reasons, points = [], []
    for t, face in enumerate(levels[j - 1]):
        cut = W.intersect(face)
        if cut is None or cut.dim != 0:
            reasons.append(f"face {t} at level {j} does not cut to a point")
        else:
            points.append(cut.base)
    if len(points) == n and len(set(points)) != n:
        reasons.append("slice points are not pairwise distinct")
    if j < n - 1 and not reasons:
        lines = []
        for t, face in enumerate(levels[j]):
            cut = W.intersect(face)
            if cut is None or cut.dim != 1:
                reasons.append(f"face {t} at level {j + 1} does not cut to a line")
            else:
                lines.append((cut.base, cut.basis))
        if len(lines) == n and len(set(lines)) != n:
            reasons.append("slice lines are not pairwise distinct")
    if reasons:
        return SlicesReport(False, j, None, tuple(reasons))
    return SlicesReport(True, j, tuple(points), ())


def _outcome(f, *args):
    try:
        return f(*args)
    except DegenerateSpan as exc:
        return type(exc), str(exc)


@st.composite
def skeleton_cases(draw):
    """A prism in R^n whose bases often include a planted collinear or
    affinely dependent point, and a flat W through its lines or free."""
    n = draw(st.integers(2, 5))
    bases = draw(st.lists(vectors(n), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 2))):
        i, j, k, m = (draw(st.integers(0, n - 1)) for _ in range(4))
        s, t = draw(rationals), draw(rationals)
        bases[m] = tuple(a + s * (b - a) + t * (c - a)
                         for a, b, c in zip(bases[i], bases[j], bases[k]))
    w = draw(vectors(n).filter(any))
    steps = [draw(nonzero) for _ in bases]
    tops = [tuple(a + s * b for a, b in zip(p, w)) for p, s in zip(bases, steps)]
    # codimension 1..n-1, now and then 0 or n
    dim = n - draw(st.integers(1, n - 1) if draw(st.integers(0, 9)) else st.sampled_from([0, n]))
    if draw(st.booleans()):
        # points on the prism lines, so cuts often repeat or degenerate
        points = [
            tuple(a + draw(rationals) * b for a, b in zip(draw(st.sampled_from(bases)), w))
            for _ in range(dim + 1)
        ]
        W = points[0], [_sub(p, points[0]) for p in points[1:]]
    else:
        W = draw(vectors(n)), draw(directions_of_dim(n, dim))
    return bases, tops, W


def _case(bases, step, W):
    bases = [tuple(map(F, p)) for p in bases]
    tops = [tuple(a + b for a, b in zip(p, map(F, step))) for p in bases]
    return bases, tops, (tuple(map(F, W[0])), [tuple(map(F, d)) for d in W[1]])


# three lines in one plane: the top recurrence fails
COPLANAR_LINES = _case([(0, 0, 0), (1, 0, 0), (2, 0, 0)], (0, 0, 1), ((0, 0, 0), [(1, 0, 0)]))
# the plane z = x + 2y + 1 cuts three lines in distinct points and lines
SLICED_PLANE = _case([(0, 0, 0), (1, 0, 0), (0, 1, 0)], (0, 0, 1),
                     ((0, 0, 1), [(1, 0, 1), (0, 1, 2)]))


@settings(max_examples=200, deadline=None)
@given(skeleton_cases())
@example(COPLANAR_LINES)
@example(SLICED_PLANE)
def test_dimension_count_verdicts_match_meets(case):
    bases, tops, (w_base, w_dirs) = case
    try:
        T = Prism.between(Joint(tuple(bases)), Joint(tuple(tops)))
    except DegenerateSpan:
        return
    for k in range(1, T.n):
        assert _outcome(skeleton_recurrence_check, T, k) == _outcome(ref_recurrence, T, k)
    W = AffineFlat.of(w_base, w_dirs)
    assert _outcome(slices_check, W, T) == _outcome(ref_slices, RefFlat.of(w_base, w_dirs), T)


def test_dimension_count_examples_cover_both_verdicts():
    bases, tops, W = COPLANAR_LINES
    T = Prism.between(Joint(tuple(bases)), Joint(tuple(tops)))
    assert skeleton_recurrence_check(T, 2) is False
    bases, tops, W = SLICED_PLANE
    T = Prism.between(Joint(tuple(bases)), Joint(tuple(tops)))
    assert skeleton_recurrence_check(T, 2) is True
    report = slices_check(AffineFlat.of(*W), T)
    assert report.ok and report.level == 1 < T.n - 1
