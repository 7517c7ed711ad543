"""The projective kernel against sympy as an independent oracle.

Every expectation below is derived from scratch with sympy: the canonical
form of a homogeneous vector (primitive integers, first nonzero entry
positive), the meet of two lines in P^m from the kernel of [a, b, -c, -d],
the classification of a quadruple by its rank, joins and meets in the plane
as kernels of 2x3 matrices, and the harmonic solves as the kernel of the
cross-ratio relation, which is linear in the unknown point.  Nothing is
shared with ``pentagram_lab.projcore`` or ``pentagram_lab.linalg``.
"""

from fractions import Fraction
from functools import reduce

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from pentagram_lab.errors import (
    DegenerateJoin,
    DegenerateMeet,
    DimensionMismatch,
    NonCoplanarDiagonals,
    UndefinedProjection,
    ZeroDenominator,
)
from pentagram_lab.pentagram2d import random_axis_aligned
from pentagram_lab.projcore import (
    ProjLine2,
    ProjPoint,
    join_points,
    meet_coplanar_lines,
    meet_lines,
    project_vertical,
    reflect_r,
    solve_harmonic4,
    solve_harmonic6,
)

big_ints = st.integers(-(10**30), 10**30)
small_ints = st.integers(-9, 9)
fractions = st.fractions(min_value=-50, max_value=50, max_denominator=40)
values = st.one_of(small_ints, big_ints, fractions)


def rational(x) -> sympy.Rational:
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def oracle_canonical(vector):
    """Primitive integer representative whose first nonzero entry is positive."""
    rats = [rational(v) for v in vector]
    scale = reduce(sympy.ilcm, (r.q for r in rats), 1)
    ints = [int(r * scale) for r in rats]
    g = reduce(sympy.igcd, ints, 0)
    ints = [v // g for v in ints]
    if next(v for v in ints if v) < 0:
        ints = [-v for v in ints]
    return tuple(ints)


# --- canonical coordinates ---------------------------------------------------


@pytest.mark.parametrize(
    "elements",
    [small_ints, big_ints, fractions, values],
    ids=["int", "bigint", "fraction", "mixed"],
)
def test_point_canonical_form_matches_oracle(elements):
    @given(st.lists(elements, min_size=2, max_size=6))
    @settings(max_examples=80, derandomize=True)
    def check(vector):
        if all(v == 0 for v in vector):
            with pytest.raises(ValueError):
                ProjPoint(vector)
            return
        expected = oracle_canonical(vector)
        assert ProjPoint(vector).coords == expected
        assert ProjPoint(iter(vector)).coords == expected
        assert ProjPoint(tuple(vector)).coords == expected
        assert all(type(c) is int for c in expected)

    check()


@given(st.lists(values, min_size=3, max_size=3))
@settings(max_examples=80, derandomize=True)
def test_line_canonical_form_matches_oracle(coeffs):
    if all(v == 0 for v in coeffs):
        with pytest.raises(ValueError):
            ProjLine2(coeffs)
        return
    assert ProjLine2(coeffs).coeffs == oracle_canonical(coeffs)


@given(st.lists(values, min_size=1, max_size=4))
@settings(max_examples=60, derandomize=True)
def test_affine_and_p1_constructors_match_oracle(xs):
    assert ProjPoint.affine(*xs).coords == oracle_canonical([*xs, 1])
    assert ProjPoint.p1(xs[0]).coords == oracle_canonical([xs[0], 1])


def test_canonical_sign_and_content_edge_cases():
    # the sign is taken from the first nonzero entry, leading zeros included
    assert ProjPoint((0, 0, -6, 4)).coords == (0, 0, 3, -2)
    assert ProjPoint((0, -1, 0)).coords == (0, 1, 0)
    assert ProjPoint((-1, 1)).coords == (1, -1)
    assert ProjPoint((Fraction(-1, 2), 0)).coords == (1, 0)
    for zero in ((0, 0), (Fraction(0), 0), (0, Fraction(0, 5))):
        with pytest.raises(ValueError):
            ProjPoint(zero)


# --- coplanar meets in P^2 ... P^5 -------------------------------------------


def oracle_meet(a, b, c, d):
    """The library's verdict on lines ab and cd, derived with sympy.

    Returns an error class, or the canonical coordinates of the meet.
    """
    cols = [sympy.Matrix([rational(x) for x in v]) for v in (a, b, c, d)]
    if sympy.Matrix.hstack(cols[0], cols[1]).rank() < 2:
        return DegenerateJoin
    if sympy.Matrix.hstack(cols[2], cols[3]).rank() < 2:
        return DegenerateJoin
    rank = sympy.Matrix.hstack(*cols).rank()
    if rank == 4:
        return NonCoplanarDiagonals
    if rank < 3:
        return DegenerateMeet
    (kernel,) = sympy.Matrix.hstack(cols[0], cols[1], -cols[2], -cols[3]).nullspace()
    meet = kernel[0] * cols[0] + kernel[1] * cols[1]
    return oracle_canonical([Fraction(int(x.p), int(x.q)) for x in meet])


def library_meet(a, b, c, d):
    try:
        return meet_coplanar_lines(*(ProjPoint(v) for v in (a, b, c, d))).coords
    except (DegenerateJoin, DegenerateMeet, NonCoplanarDiagonals) as exc:
        return type(exc)


def spans(vectors, point) -> bool:
    base = sympy.Matrix([[rational(x) for x in v] for v in vectors])
    return base.rank() == sympy.Matrix.vstack(base, sympy.Matrix([point])).rank()


def combination(coefficients, vectors):
    return [sum(k * v[i] for k, v in zip(coefficients, vectors)) for i in range(len(vectors[0]))]


@st.composite
def quadruples(draw, kind):
    m = draw(st.integers(3 if kind == "skew" else 2, 5))
    vector = st.lists(small_ints, min_size=m + 1, max_size=m + 1)
    a, b, e = draw(vector), draw(vector), draw(vector)
    coeffs = st.lists(fractions, min_size=3, max_size=3)
    if kind == "coplanar":
        # c and d lie in the plane spanned by a, b and e
        c = combination(draw(coeffs), [a, b, e])
        d = combination(draw(coeffs), [a, b, e])
    elif kind == "coincident":
        c = combination(draw(coeffs)[:2], [a, b])
        d = combination(draw(coeffs)[:2], [a, b])
    else:
        c, d = e, draw(vector)
    quad = (a, b, c, d)
    assume(all(any(x != 0 for x in v) for v in quad))
    return quad


@given(quadruples("coplanar"))
@settings(max_examples=100, derandomize=True)
def test_meet_of_coplanar_lines_matches_oracle(quad):
    expected = library_meet(*quad)
    assert expected == oracle_meet(*quad)
    if isinstance(expected, tuple):
        a, b, c, d = quad
        assert spans([a, b], expected) and spans([c, d], expected)


@given(quadruples("skew"))
@settings(max_examples=50, derandomize=True)
def test_skew_lines_raise_like_oracle(quad):
    assert library_meet(*quad) == oracle_meet(*quad)


@given(quadruples("coincident"))
@settings(max_examples=50, derandomize=True)
def test_coincident_lines_raise_like_oracle(quad):
    assert library_meet(*quad) == oracle_meet(*quad)


@st.composite
def zero_led_quadruples(draw):
    """Coplanar, skew and coincident quadruples in P^5 and P^6 whose first
    coordinates are zero in all four points, so every 3x3 minor on a
    coordinate triple through them vanishes and the meet must be read off a
    later triple."""
    m = draw(st.integers(5, 6))
    zeros = draw(st.integers(1, m - 3))
    tail = st.lists(small_ints, min_size=m + 1 - zeros, max_size=m + 1 - zeros)
    vector = tail.map(lambda v: [0] * zeros + v)
    a, b, e = draw(vector), draw(vector), draw(vector)
    coeffs = st.lists(fractions, min_size=3, max_size=3)
    kind = draw(st.sampled_from(["coplanar", "skew", "coincident"]))
    if kind == "coplanar":
        c = combination(draw(coeffs), [a, b, e])
        d = combination(draw(coeffs), [a, b, e])
    elif kind == "coincident":
        c = combination(draw(coeffs)[:2], [a, b])
        d = combination(draw(coeffs)[:2], [a, b])
    else:
        c, d = e, draw(vector)
    quad = (a, b, c, d)
    assume(all(any(x != 0 for x in v) for v in quad))
    return zeros, quad


@given(zero_led_quadruples())
@settings(max_examples=150, derandomize=True)
def test_meet_past_vanishing_leading_coordinates_matches_oracle(case):
    zeros, quad = case
    got = library_meet(*quad)
    assert got == oracle_meet(*quad)
    if isinstance(got, tuple):
        assert got[:zeros] == (0,) * zeros


# --- the planar n=8, seed 1 degenerate draw ----------------------------------

# levels of random_axis_aligned(8, 1)
N8_SEED1_A = ["-4/5", "5/6", "2/9", "-5/2", "5", "4/3", "0", "-2"]
N8_SEED1_B = ["10/3", "-3/5", "8/7", "-1", "3", "9/5", "0", "3/7"]


def test_n8_seed1_step1_vertices_are_collinear():
    """collapse_orbit raises "step 2: output label 23: meet of identical lines".

    Step 2 maps the step-1 polygon (label offset 2) to offset 3, so label 23
    is output t = 10, the meet of the diagonals Q_10 Q_12 and Q_9 Q_11 of the
    step-1 vertices Q.  Rebuilt here from the levels alone, those four
    vertices lie on the line 9x - 10y + 18 = 0, and two of them coincide:
    Q_10 = Q_11 = (4, 27/5), the step-1 vertices at labels 22 and 24.  The
    draw is a genuine coincidence on the non-generic locus, not a gap in the
    kernel.
    """
    a = [sympy.Rational(x) for x in N8_SEED1_A]
    b = [sympy.Rational(y) for y in N8_SEED1_B]
    n = len(a)
    P = []
    for j in range(n):
        P += [sympy.Point(a[j], b[j]), sympy.Point(a[(j + 1) % n], b[j])]
    k = len(P)

    def step1_vertex(s):
        first = sympy.Line(P[s % k], P[(s + 2) % k])
        second = sympy.Line(P[(s - 1) % k], P[(s + 1) % k])
        (point,) = first.intersection(second)
        return point

    Q = [step1_vertex(s) for s in (9, 10, 11, 12)]
    assert Q[1] == Q[2] == sympy.Point(4, sympy.Rational(27, 5))
    assert len({Q[0], Q[1], Q[3]}) == 3
    assert sympy.Point.is_collinear(*Q)
    assert all(9 * q.x - 10 * q.y + 18 == 0 for q in Q)
    # and these are the levels of the library draw
    P8 = random_axis_aligned(8, 1)
    assert P8.a == tuple(Fraction(x) for x in N8_SEED1_A)
    assert P8.b == tuple(Fraction(y) for y in N8_SEED1_B)


# --- joins, meets, harmonic solves, reflection and projection ----------------

coordinates = st.one_of(big_ints, small_ints, st.just(0))


@st.composite
def homogeneous(draw, size):
    """A nonzero integer vector; often with leading zeros, often big."""
    vector = draw(st.lists(coordinates, min_size=size, max_size=size))
    zeros = draw(st.integers(0, size - 1))
    vector[:zeros] = [0] * zeros
    assume(any(vector))
    return tuple(vector)


def kernel_point(rows, ncols):
    """The canonical kernel vector of an integer matrix of nullity one."""
    (vector,) = sympy.Matrix(rows).nullspace()
    assert len(vector) == ncols
    return oracle_canonical([Fraction(int(x.p), int(x.q)) for x in vector])


def oracle_plane_cross(u, v, error):
    """The line through two points of P^2, or the point on two lines."""
    if sympy.Matrix([u, v]).rank() < 2:
        return error
    return kernel_point([list(u), list(v)], 3)


def det2(p, q):
    return sympy.Matrix([[p[0], q[0]], [p[1], q[1]]]).det()


def oracle_harmonic(relation):
    """The point x of P^1 with relation(x) == 0, for a relation linear in x."""
    x = sympy.symbols("x0 x1")
    expr = sympy.expand(relation(x))
    row = [expr.coeff(x[0]), expr.coeff(x[1])]
    if row == [0, 0]:
        return ZeroDenominator
    return kernel_point([row], 2)


def oracle_harmonic4(a, b, d):
    """c with [a, b, c, d] = -1: [a,b][c,d] + [b,c][d,a] = 0."""
    return oracle_harmonic(lambda c: det2(a, b) * det2(c, d) + det2(b, c) * det2(d, a))


def oracle_harmonic6(a, b, c, e, f):
    """d with [a, b, c, d, e, f] = -1: [a,b][c,d][e,f] + [b,c][d,e][f,a] = 0."""
    return oracle_harmonic(
        lambda d: det2(a, b) * det2(c, d) * det2(e, f) + det2(b, c) * det2(d, e) * det2(f, a)
    )


def outcome(fn, *args):
    """Canonical coordinates of the result, or the class of the error raised."""
    try:
        result = fn(*args)
    except (DegenerateJoin, DegenerateMeet, ZeroDenominator, UndefinedProjection,
            DimensionMismatch) as exc:
        return type(exc)
    coords = result.coords if isinstance(result, ProjPoint) else result.coeffs
    assert all(type(c) is int for c in coords)
    return coords


@given(homogeneous(3), homogeneous(3))
@settings(max_examples=80, derandomize=True)
def test_join_and_meet_match_oracle(u, v):
    points = ProjPoint(u), ProjPoint(v)
    assert outcome(join_points, *points) == oracle_plane_cross(u, v, DegenerateJoin)
    lines = ProjLine2(u), ProjLine2(v)
    assert outcome(meet_lines, *lines) == oracle_plane_cross(u, v, DegenerateMeet)


@given(homogeneous(3))
@settings(max_examples=40, derandomize=True)
def test_coincident_points_and_identical_lines_match_oracle(u):
    scaled = tuple(-7 * x for x in u)
    assert oracle_plane_cross(u, scaled, DegenerateJoin) is DegenerateJoin
    assert outcome(join_points, ProjPoint(u), ProjPoint(scaled)) is DegenerateJoin
    assert outcome(meet_lines, ProjLine2(u), ProjLine2(scaled)) is DegenerateMeet


# points of P^1 from a small pool, so coincidences and 0/0 systems are common
line_points = st.one_of(homogeneous(2), st.sampled_from([(1, 0), (0, 1), (1, 1), (-2, 3)]))


@given(st.lists(line_points, min_size=3, max_size=3))
@settings(max_examples=80, derandomize=True)
def test_harmonic4_matches_oracle(abd):
    points = [ProjPoint(v) for v in abd]
    assert outcome(solve_harmonic4, *points) == oracle_harmonic4(*abd)


@given(st.lists(line_points, min_size=5, max_size=5))
@settings(max_examples=80, derandomize=True)
def test_harmonic6_matches_oracle(abcef):
    points = [ProjPoint(v) for v in abcef]
    assert outcome(solve_harmonic6, *points) == oracle_harmonic6(*abcef)


@given(homogeneous(3))
@settings(max_examples=80, derandomize=True)
def test_reflection_and_projection_match_oracle(v):
    x, y, w = v
    point = ProjPoint(v)
    assert outcome(reflect_r, point) == oracle_canonical((x, -y, w))
    expected = UndefinedProjection if x == 0 and w == 0 else oracle_canonical((x, w))
    assert outcome(project_vertical, point) == expected


@pytest.mark.parametrize(
    "coords, reflected",
    [
        ((0, 3, 1), (0, 3, -1)),
        ((0, 3, -1), (0, 3, 1)),
        ((0, 5, 0), (0, 1, 0)),
        ((0, -5, 0), (0, 1, 0)),
        ((0, 0, 4), (0, 0, 1)),
        ((2, 0, 0), (1, 0, 0)),
        ((-6, 4, 2), (3, 2, -1)),
    ],
)
def test_reflection_keeps_the_canonical_sign(coords, reflected):
    assert oracle_canonical((coords[0], -coords[1], coords[2])) == reflected
    assert reflect_r(ProjPoint(coords)).coords == reflected


def test_kernel_errors_keep_their_class_message_and_order():
    plane = ProjPoint((1, 2, 3))
    other = ProjPoint((4, 5, 6))
    line1 = ProjPoint((1, 2))
    line2 = ProjPoint((3, 1))
    cases = [
        # the dimension is checked first, point by point, then coincidence
        (join_points, (line1, line1), DimensionMismatch, "expected a point of P^2, got (1 : 2)"),
        (join_points, (plane, line2), DimensionMismatch, "expected a point of P^2, got (3 : 1)"),
        (join_points, (plane, plane), DegenerateJoin, "join of coincident points (1 : 2 : 3)"),
        (meet_lines, (ProjLine2((2, 4, 6)), ProjLine2((-1, -2, -3))), DegenerateMeet,
         "meet of identical lines [1 : 2 : 3]"),
        (solve_harmonic4, (line1, line1, plane), DimensionMismatch,
         "expected a point of P^1, got (1 : 2 : 3)"),
        (solve_harmonic4, (line1, line1, line1), ZeroDenominator,
         "harmonic conjugate is indeterminate"),
        (solve_harmonic6, (line1, line1, line1, other, line2), DimensionMismatch,
         "expected a point of P^1, got (4 : 5 : 6)"),
        (solve_harmonic6, (line1, line2, line1, line2, plane), DimensionMismatch,
         "expected a point of P^1, got (1 : 2 : 3)"),
        (solve_harmonic6, (line1, line1, line1, line2, line2), ZeroDenominator,
         "six-point harmonic solve is indeterminate"),
        (solve_harmonic6, (line1, line2, line1, line1, line2), ZeroDenominator,
         "six-point harmonic solve is indeterminate"),
        (reflect_r, (line1,), DimensionMismatch, "expected a point of P^2, got (1 : 2)"),
        (project_vertical, (line2,), DimensionMismatch, "expected a point of P^2, got (3 : 1)"),
        (project_vertical, (ProjPoint((0, -4, 0)),), UndefinedProjection,
         "the vertical direction has no vertical projection"),
    ]
    for fn, args, error, message in cases:
        with pytest.raises(error) as info:
            fn(*args)
        assert str(info.value) == message, fn.__name__
    with pytest.raises(DimensionMismatch, match="three coefficients"):
        ProjLine2((1, 2))
    with pytest.raises(ValueError, match="must not all vanish"):
        ProjLine2((0, 0, 0))
