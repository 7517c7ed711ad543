"""The planar pentagram map in corner invariants: an oracle for
``pentagram_step`` on generic polygons.

T002 and the lifting claims feed ``pentagram_step`` axis-aligned polygons
only, on which these coordinates are singular.  This module checks the step
on generic 2k-gons against the corner-invariant form of the map (Schwartz;
Ovsienko-Schwartz-Tabachnikov 2010), with its own integer joins and meets
and ``Fraction`` cross ratios; from the library it takes only
``pentagram_step``, the ``LabeledPolygon2`` constructor (with ``ProjPoint``
for its vertices) and the matrices of ``random_projective_map``.

With chi(a, b, c, d) = (a - b)(c - d) / ((a - c)(b - d)) on a line and
l(a, b) the line through vertices v_a and v_b, the corner invariants are

    x_i = chi(v_{i-2}, v_{i-1}, l(i-2, i-1) ^ l(i, i+1), l(i-2, i-1) ^ l(i+1, i+2)),
    y_i = chi(l(i-2, i-1) ^ l(i+1, i+2), l(i-1, i) ^ l(i+1, i+2), v_{i+1}, v_{i+2}),

and output vertex i of ``pentagram_step`` has

    x'_i = x_i (1 - x_{i-1} y_{i-1}) / (1 - x_{i+1} y_{i+1}),
    y'_i = y_{i+1} (1 - x_{i+2} y_{i+2}) / (1 - x_i y_i).

Over hypothesis-drawn 2k-gons, k = 3-8, and three steps, each step must
satisfy the recurrence exactly and keep prod x_i and prod y_i, and the
invariants of each polygon must not change under a random projective map.
A draw on which a join, a meet, a cross-ratio denominator or a recurrence
denominator vanishes, or on which the step raises, is counted by kind, and
the steps before it are still checked.
"""

from collections import Counter
from fractions import Fraction
from math import prod

from hypothesis import given, settings, strategies as st

from pentagram_lab.errors import DegeneracyError
from pentagram_lab.pentagram2d import LabeledPolygon2, pentagram_step
from pentagram_lab.projcore import ProjPoint, random_projective_map


class Vanishing(Exception):
    """A join, meet or denominator of the corner-invariant formulas is zero."""


def _cross(p, q):
    """The join of two points, or the meet of two lines, of the plane."""
    out = (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])
    if not any(out):
        raise Vanishing("join or meet")
    return out


def _chi(line, a, b, c, d):
    """The cross ratio of four points of ``line``, read in the two
    coordinates left after dropping one on which the line's coefficient is
    nonzero: that projection maps the line isomorphically to P^1."""
    k = next(t for t in range(3) if line[t])
    i, j = (t for t in range(3) if t != k)

    def bracket(p, q):
        return p[i] * q[j] - p[j] * q[i]

    den = bracket(a, c) * bracket(b, d)
    if not den:
        raise Vanishing("cross ratio")
    return Fraction(bracket(a, b) * bracket(c, d), den)


def corner_invariants(V):
    """(x, y) of the polygon with vertex triples ``V``."""
    N = len(V)

    def v(t):
        return V[t % N]

    def side(s):
        return _cross(v(s), v(s + 1))

    x, y = [], []
    for i in range(N):
        before, after = side(i - 2), side(i + 1)
        corner = _cross(before, after)
        x.append(_chi(before, v(i - 2), v(i - 1), _cross(before, side(i)), corner))
        y.append(_chi(after, corner, _cross(side(i - 1), after), v(i + 1), v(i + 2)))
    return x, y


def corner_step(x, y):
    """The corner invariants of the image polygon, output vertex i first."""
    N = len(x)
    z = [1 - a * b for a, b in zip(x, y)]
    if 0 in z:
        raise Vanishing("recurrence")
    return ([x[i] * z[i - 1] / z[(i + 1) % N] for i in range(N)],
            [y[(i + 1) % N] * z[(i + 2) % N] / z[i] for i in range(N)])


class _Draws:
    """The ``below`` of an rng, drawn by hypothesis."""

    def __init__(self, data):
        self.data = data

    def below(self, bound):
        return self.data.draw(st.integers(0, bound - 1))


def _polygons():
    """2k-gons of distinct integer triples, points at infinity among them."""
    point = st.tuples(st.integers(-100, 100), st.integers(-100, 100),
                      st.integers(-9, 9)).filter(any)
    return st.integers(3, 8).flatmap(
        lambda k: st.lists(point, min_size=2 * k, max_size=2 * k, unique=True))


STEPS = 3


def test_pentagram_step_follows_the_corner_invariant_recurrence():
    tally = Counter()

    @settings(max_examples=250, deadline=None, database=None, derandomize=True)
    @given(_polygons(), st.data())
    def check(points, data):
        matrix = random_projective_map(2, _Draws(data)).matrix
        tally["draws"] += 1
        try:
            poly = LabeledPolygon2.of(tuple(ProjPoint(p) for p in points))
            V = [v.coords for v in poly.vertices]
            x, y = corner_invariants(V)
            products = prod(x), prod(y)
            for _ in range(STEPS):
                moved = [tuple(sum(m * c for m, c in zip(row, p)) for row in matrix) for p in V]
                assert corner_invariants(moved) == (x, y)
                want = corner_step(x, y)
                poly = pentagram_step(poly)
                V = [v.coords for v in poly.vertices]
                x, y = corner_invariants(V)
                assert (x, y) == want
                assert (prod(x), prod(y)) == products
                tally["steps"] += 1
        except Vanishing as exc:
            tally[f"vanishing {exc}"] += 1
        except DegeneracyError as exc:
            tally[f"raised {type(exc).__name__}"] += 1
        else:
            tally["exact"] += 1

    check()
    # a draw whose formulas vanish is counted, never dropped: it must stay
    # rare at this coordinate size, and at least 200 draws run all three steps
    assert tally["exact"] >= 200, tally
    assert tally["draws"] - tally["exact"] <= tally["draws"] // 10, tally
