"""Kernel tests: canonical coordinates, incidence, cross ratios, harmonic solves."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pentagram_lab.errors import (
    DegenerateJoin,
    DegenerateMeet,
    DimensionMismatch,
    IndeterminateCrossRatio,
    NonCoplanarDiagonals,
    ZeroDenominator,
)
from pentagram_lab import projcore
from pentagram_lab.projcore import (
    INF,
    P1_INFINITY,
    ProjMap,
    ProjPoint,
    axes_normalization_map,
    cross_ratio4,
    cross_ratio6,
    format_rational,
    is_harmonic4,
    is_harmonic6,
    join_points,
    meet_coplanar_lines,
    meet_lines,
    mobius_to_infinity,
    orbit,
    parse_rational,
    project_vertical,
    random_projective_map,
    reflect_r,
    solve_harmonic4,
    solve_harmonic6,
)
from pentagram_lab.rng import SplitMix64

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)


# --- canonical coordinates -------------------------------------------------


def test_canonicalization_scales_to_coprime_integers():
    p = ProjPoint((Fraction(2, 3), Fraction(-4, 9)))
    assert p.coords == (3, -2)


def test_canonicalization_sign_is_deterministic():
    assert ProjPoint((-2, 4)).coords == ProjPoint((1, -2)).coords


def test_canonicalization_idempotent():
    p = ProjPoint((Fraction(10, 4), Fraction(-15, 4), Fraction(5, 2)))
    assert ProjPoint(p.coords).coords == p.coords


@given(st.tuples(rationals, rationals, rationals))
@settings(max_examples=60, derandomize=True)
def test_equal_iff_proportional(coords):
    if all(c == 0 for c in coords):
        with pytest.raises(ValueError):
            ProjPoint(coords)
        return
    p = ProjPoint(coords)
    q = ProjPoint(tuple(Fraction(-7, 3) * c for c in coords))
    assert p == q
    assert hash(p) == hash(q)


def test_all_zero_rejected():
    with pytest.raises(ValueError):
        ProjPoint((0, 0, 0))


def test_affine_embedding_round_trip():
    p = ProjPoint.affine(Fraction(5, 7), Fraction(-2))
    assert p.affine_coords() == (Fraction(5, 7), Fraction(-2))
    assert ProjPoint.p1(Fraction(9, 4)).p1_value() == Fraction(9, 4)
    assert P1_INFINITY.p1_value() is INF


def test_rational_format_parse_round_trip():
    for v in (Fraction(3), Fraction(-5, 7), Fraction(0)):
        assert parse_rational(format_rational(v)) == v


# --- incidence --------------------------------------------------------------


def test_join_meet_inverse():
    a, b = ProjPoint.affine(1, 2), ProjPoint.affine(3, -1)
    line = join_points(a, b)
    assert line.incident(a) and line.incident(b)
    other = join_points(ProjPoint.affine(0, 0), ProjPoint.affine(1, 1))
    p = meet_lines(line, other)
    assert line.incident(p) and other.incident(p)


def test_join_coincident_points_raises():
    a = ProjPoint.affine(1, 2)
    with pytest.raises(DegenerateJoin):
        join_points(a, ProjPoint((2, 4, 2)))


def test_meet_identical_lines_raises():
    l = join_points(ProjPoint.affine(0, 0), ProjPoint.affine(1, 1))
    with pytest.raises(DegenerateMeet):
        meet_lines(l, l)


def test_meet_coplanar_lines_matches_plane_meet():
    rng = SplitMix64(31)
    done = 0
    while done < 50:
        pts = [
            ProjPoint.affine(rng.rational(9), rng.rational(9)) for _ in range(4)
        ]
        a, b, c, d = pts
        try:
            expected = meet_lines(join_points(a, b), join_points(c, d))
            got = meet_coplanar_lines(a, b, c, d)
        except (DegenerateJoin, DegenerateMeet):
            continue
        assert got == expected
        done += 1


def test_meet_coplanar_lines_skew_raises():
    e = [ProjPoint(tuple(1 if i == j else 0 for i in range(4))) for j in range(4)]
    with pytest.raises(NonCoplanarDiagonals):
        meet_coplanar_lines(e[0], e[1], e[2], e[3])


# --- cross ratios -----------------------------------------------------------


def q(x):
    return ProjPoint.p1(Fraction(x))


def test_cross_ratio_known_values():
    # (a-b)(c-d) / ((b-c)(d-a))
    assert cross_ratio4(q(0), q(1), q(2), q(3)) == Fraction(-1, 3)
    assert cross_ratio4(P1_INFINITY, q(1), q(2), q(3)) == Fraction(-1)
    assert cross_ratio4(q(0), q(1), q(3), P1_INFINITY) == Fraction(-1, 2)


def test_cross_ratio_indeterminate_and_infinite():
    with pytest.raises(IndeterminateCrossRatio):
        cross_ratio4(q(1), q(1), q(1), q(2))
    assert cross_ratio4(q(0), q(2), q(2), q(3)) is INF


def test_cross_ratio_dimension_checked():
    with pytest.raises(DimensionMismatch):
        cross_ratio4(q(0), q(1), q(2), ProjPoint.affine(1, 1))


def test_cross_ratio_mobius_invariance_battery():
    """Exact invariance of [a,b,c,d] under 1000 random Mobius maps."""
    rng = SplitMix64(2024)
    done = 0
    while done < 1000:
        pts = [ProjPoint.p1(rng.rational(12)) for _ in range(4)]
        phi = random_projective_map(1, rng)
        try:
            before = cross_ratio4(*pts)
            after = cross_ratio4(*(phi.apply(p) for p in pts))
        except IndeterminateCrossRatio:
            continue
        assert after == before
        done += 1


@given(st.lists(rationals, min_size=4, max_size=4, unique=True))
@settings(max_examples=80, derandomize=True)
def test_cross_ratio_symmetry_double_transposition(vals):
    a, b, c, d = (ProjPoint.p1(v) for v in vals)
    assert cross_ratio4(a, b, c, d) == cross_ratio4(c, d, a, b)


# --- harmonic solves --------------------------------------------------------


def test_solve_harmonic4_round_trip():
    rng = SplitMix64(77)
    done = 0
    while done < 200:
        a, b, d = (ProjPoint.p1(v) for v in rng.distinct_rationals(3, 10))
        c = solve_harmonic4(a, b, d)
        try:
            assert cross_ratio4(a, b, c, d) == Fraction(-1)
        except IndeterminateCrossRatio:
            # kernel of a degenerate relation; nothing to re-check
            pass
        done += 1


def test_solve_harmonic4_midpoint_from_infinity():
    # [inf, b, c, d] = -1 makes c the midpoint of b and d
    assert solve_harmonic4(P1_INFINITY, q(1), q(5)) == q(3)


def test_solve_harmonic4_degenerate_closures():
    # coincident flanks pin the solution to the flank value
    assert solve_harmonic4(q(7), q(2), q(2)) == q(2)
    # apex between two infinities stays at infinity
    assert solve_harmonic4(P1_INFINITY, q(2), P1_INFINITY) == P1_INFINITY
    # only the identically-zero relation is indeterminate
    with pytest.raises(ZeroDenominator):
        solve_harmonic4(q(3), q(3), q(3))


def test_solve_harmonic6_round_trip():
    rng = SplitMix64(78)
    done = 0
    while done < 200:
        a, b, c, e, f = (ProjPoint.p1(v) for v in rng.distinct_rationals(5, 10))
        d = solve_harmonic6(a, b, c, e, f)
        try:
            assert cross_ratio6(a, b, c, d, e, f) == Fraction(-1)
        except IndeterminateCrossRatio:
            pass
        done += 1


def test_solve_harmonic6_identically_zero_raises():
    # a locally constant middle row leaves the relation with no content
    with pytest.raises(ZeroDenominator):
        solve_harmonic6(q(1), q(2), q(2), q(2), q(2))
    with pytest.raises(ZeroDenominator):
        solve_harmonic6(q(1), q(1), q(1), q(4), q(5))


def test_solve_harmonic6_descent_closed_form():
    # [inf, b, a, d, b, c] = -1 has d = (b^2 - a c) / (2 b - a - c)
    rng = SplitMix64(79)
    done = 0
    while done < 100:
        a, b, c = rng.distinct_rationals(3, 10)
        if 2 * b - a - c == 0:
            continue
        got = solve_harmonic6(P1_INFINITY, q(b), q(a), q(b), q(c))
        assert got == ProjPoint.p1(Fraction(b * b - a * c, 2 * b - a - c))
        done += 1


# --- involutions and projections -------------------------------------------


def test_reflection_involution():
    rng = SplitMix64(80)
    for _ in range(100):
        p = ProjPoint.affine(rng.rational(10), rng.nonzero_rational(10))
        assert reflect_r(reflect_r(p)) == p
    # axis points are fixed
    on_axis = ProjPoint.affine(Fraction(3), Fraction(0))
    assert reflect_r(on_axis) == on_axis


def test_project_vertical_drops_height():
    p = ProjPoint.affine(Fraction(5, 3), Fraction(-9))
    assert project_vertical(p) == ProjPoint.p1(Fraction(5, 3))


def test_mobius_to_infinity_sends_target():
    phi = mobius_to_infinity(q(4))
    assert phi.apply(q(4)) == P1_INFINITY
    assert phi.inverse().apply(P1_INFINITY) == q(4)


# a small pool of line points, so that repeats, 0/0 and infinite ratios occur
line_points = st.sampled_from(
    [(1, 0), (0, 1), (1, 1), (-1, 1), (2, 1), (1, 2), (-3, 2), (5, -3)]
).map(ProjPoint)


def _harmonic_by_value(ratio, *points):
    """(cross ratio == -1) through the Fraction value, or the error it raises."""
    try:
        return ratio(*points) == Fraction(-1)
    except IndeterminateCrossRatio as exc:
        return IndeterminateCrossRatio, str(exc)


def _harmonic_by_terms(test, *points):
    try:
        return test(*points)
    except IndeterminateCrossRatio as exc:
        return IndeterminateCrossRatio, str(exc)


@settings(max_examples=400)
@given(st.lists(line_points, min_size=6, max_size=6))
def test_integer_harmonic_tests_match_cross_ratios(points):
    assert _harmonic_by_terms(is_harmonic4, *points[:4]) == _harmonic_by_value(
        cross_ratio4, *points[:4])
    assert _harmonic_by_terms(is_harmonic6, *points) == _harmonic_by_value(
        cross_ratio6, *points)


def test_integer_harmonic_tests_cover_every_case():
    # -1, another value, infinity (den = 0) and 0/0, in both arities
    assert is_harmonic4(P1_INFINITY, q(1), q(2), q(3))
    assert not is_harmonic4(q(0), q(1), q(2), q(3))
    assert cross_ratio4(q(0), q(2), q(2), q(3)) is INF
    assert not is_harmonic4(q(0), q(2), q(2), q(3))
    with pytest.raises(IndeterminateCrossRatio, match=r"^cross ratio of the form 0/0$"):
        is_harmonic4(q(1), q(1), q(1), q(2))
    six = (q(0), q(1), q(2), q(3), q(4), q(5))
    assert is_harmonic6(*six) is (cross_ratio6(*six) == -1)
    assert not is_harmonic6(q(0), q(1), q(1), q(3), q(4), q(5))
    with pytest.raises(IndeterminateCrossRatio,
                       match=r"^six-point cross ratio of the form 0/0$"):
        is_harmonic6(q(1), q(1), q(1), q(1), q(4), q(5))
    with pytest.raises(DimensionMismatch):
        is_harmonic4(q(0), q(1), q(2), ProjPoint.affine(1, 1))


def _fraction_inverse(matrix):
    """The inverse by Gauss-Jordan over Fraction, with no library code."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if m[i][c])
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


@settings(max_examples=100)
@given(st.integers(2, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_integer_adjugate_gives_the_inverse_map(rows):
    phi = ProjMap(rows) if projcore.linalg.integer_det(rows) else None
    if phi is None:
        return
    adjugate = projcore._adjugate(phi.matrix)
    assert all(type(x) is int for row in adjugate for x in row)
    assert phi.inverse() == ProjMap(_fraction_inverse(phi.matrix))


def test_integer_normalization_maps_keep_their_matrices():
    # the maps as the Fraction cofactors and the Fraction value of a gave them
    for value in (Fraction(4), Fraction(-3, 7), Fraction(5, -2), Fraction(0)):
        a = ProjPoint.p1(value)
        assert mobius_to_infinity(a) == ProjMap([[0, 1], [1, -value]])
        assert mobius_to_infinity(a).apply(a) == P1_INFINITY
    p, r = ProjPoint.affine(1, 2), ProjPoint((3, -1, 0))
    phi = axes_normalization_map(p, r)
    # the completion is the first basis vector, e_0, so phi inverts [p | r | e_0]
    assert phi.matrix == ((0, 0, 1), (0, -1, 2), (1, 3, -7))
    assert phi.inverse() == ProjMap([[1, 3, 1], [2, -1, 0], [1, 0, 0]])
    assert phi.apply(p) == ProjPoint((1, 0, 0)) and phi.apply(r) == ProjPoint((0, 1, 0))


# --- orbits -------------------------------------------------------------------


def test_orbit_keeps_start_and_every_image():
    assert orbit(1, lambda x: 3 * x, 3) == [1, 3, 9, 27]
    assert orbit("start", None, 0) == ["start"]


def test_orbit_degeneracy_names_its_step():
    def step(x):
        if x > 5:
            raise DegenerateMeet(f"value {x}")
        return 3 * x

    with pytest.raises(DegenerateMeet) as info:
        orbit(1, step, 4)
    assert str(info.value) == "step 3: value 9"
