"""The integer elimination kernel against sympy as an independent oracle.

Every expectation below comes from sympy's own ``Matrix.rref``, ``rank``,
``nullspace`` and ``det``; nothing is shared with ``pentagram_lab.linalg``.
The matrices are small random rationals, with zero rows, repeated rows,
rank deficiency, wide shapes and inconsistent right-hand sides mixed in.
"""

from fractions import Fraction
from math import gcd, lcm

import sympy
from hypothesis import given, settings, strategies as st

from pentagram_lab import linalg

entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)


@st.composite
def matrices(draw, square=False):
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 6))
    m = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    # mix in zero rows, repeated rows and scaled combinations of earlier rows
    for i in range(1, rows):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "repeat", "combine")))
        if kind == "zero":
            m[i] = [Fraction(0)] * cols
        elif kind == "repeat":
            m[i] = list(m[draw(st.integers(0, i - 1))])
        elif kind == "combine":
            a, b = draw(entries), draw(entries)
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    return m


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in m])


def to_fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def rows_of(matrix) -> list[list[Fraction]]:
    return [[to_fraction(matrix[i, j]) for j in range(matrix.cols)]
            for i in range(matrix.rows)]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_rank_nullspace_match_sympy(m):
    cols = len(m[0])
    reduced, pivots = to_sympy(m).rref()
    got = linalg.rref(m)
    assert got == (rows_of(reduced), list(pivots))
    assert all(type(x) is Fraction for row in got[0] for x in row)
    assert linalg.rank(m) == to_sympy(m).rank()
    expected = [tuple(to_fraction(v[i]) for i in range(cols))
                for v in to_sympy(m).nullspace()]
    assert linalg.nullspace(m, cols) == expected


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_sympy(m, data):
    rows, cols = len(m), len(m[0])
    if data.draw(st.booleans()):
        # a right-hand side in the column space: always consistent
        x = data.draw(st.lists(entries, min_size=cols, max_size=cols))
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in m]
    else:
        rhs = data.draw(st.lists(entries, min_size=rows, max_size=rows))
    aug = to_sympy(m).row_join(to_sympy([[b] for b in rhs]))
    reduced, pivots = aug.rref()
    got = linalg.solve(m, rhs)
    if cols in pivots:
        assert got is None
        return
    # free variables at zero: pivot variables read off the reduced rhs column
    expected = [Fraction(0)] * cols
    for r, p in enumerate(pivots):
        expected[p] = to_fraction(reduced[r, cols])
    assert got == tuple(expected)
    assert to_sympy(m) * to_sympy([[v] for v in got]) == to_sympy([[b] for b in rhs])


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_det_matches_sympy(m):
    assert linalg.det(m) == to_fraction(to_sympy(m).det())


def cleared(m):
    """Each row times the lcm of its denominators: ints, same row space."""
    return [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in m]


def primitive(row):
    """The row times the lcm of its denominators, over the gcd of the result."""
    ints = cleared([row])[0]
    g = gcd(*ints)
    return [x // g for x in ints]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_integer_echelon_matches_sympy(m):
    ints = cleared(m)
    before = [list(row) for row in ints]
    reduced, pivots = to_sympy(ints).rref()
    rows = rows_of(reduced)[: len(pivots)]
    got = linalg.integer_echelon(ints, len(m[0]))
    # sympy's pivots are 1, so each primitive row has a positive pivot entry
    assert got == ([primitive(row) for row in rows], list(pivots))
    assert all(type(x) is int for row in got[0] for x in row)
    assert ints == before


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_integer_solution_space_matches_sympy(m, data):
    rows, cols = len(m), len(m[0])
    if data.draw(st.booleans()):
        x = data.draw(st.lists(entries, min_size=cols, max_size=cols))
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in m]
    else:
        rhs = data.draw(st.lists(entries, min_size=rows, max_size=rows))
    aug = cleared([[*row, b] for row, b in zip(m, rhs)])
    reduced, pivots = to_sympy(aug).rref()
    got = linalg.integer_solution_space(aug, cols)
    if cols in pivots:
        assert got is None
        return
    num, den, kernel = got
    assert den > 0 and all(type(x) is int for x in num)
    expected = [Fraction(0)] * cols
    for r, p in enumerate(pivots):
        expected[p] = to_fraction(reduced[r, cols])
    assert [Fraction(x, den) for x in num] == expected
    A = to_sympy([row[:cols] for row in aug])
    assert [tuple(Fraction(x, scale) for x in row) for row, scale in kernel] == [
        tuple(to_fraction(v[i]) for i in range(cols)) for v in A.nullspace()
    ]
    assert all(scale > 0 and row[f] == scale for (row, scale), f in zip(
        kernel, [c for c in range(cols) if c not in pivots]))


def test_empty_and_zero_edge_cases():
    assert linalg.rank([]) == 0
    assert linalg.solve([], []) == ()
    assert linalg.nullspace([], 2) == [(1, 0), (0, 1)]
    zero = [[Fraction(0)] * 3] * 2
    assert linalg.rref(zero) == (rows_of(to_sympy(zero).rref()[0]), [])
    assert linalg.solve(zero, [Fraction(0), Fraction(1)]) is None
    assert linalg.det([]) == 1


def test_integer_edge_cases():
    assert linalg.integer_echelon([[0, 0], [0, 0]], 2) == ([], [])
    assert linalg.integer_solution_space([[0, 0, 1]], 2) is None
    assert linalg.integer_solution_space([[0, 0, 0]], 2) == (
        [0, 0], 1, [([1, 0], 1), ([0, 1], 1)])
