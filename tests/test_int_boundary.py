"""Integer read-outs of the kernel against ``Fraction`` references.

``affine_mean`` averages over the lcm of the homogenizing coordinates, and
``cli._fmt_point`` and ``format_p1`` print straight from the canonical ints.
Each is checked here against the same quantity computed with ``Fraction``
arithmetic written in the test, on points of P^1, P^2 and P^m whose last
coordinate may be negative or large.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pentagram_lab.cli import _fmt_point
from pentagram_lab.errors import InfiniteVertex
from pentagram_lab.projcore import ProjPoint, affine_mean, format_p1, format_rational

entries = st.one_of(st.integers(-9, 9), st.integers(-(10**40), 10**40))
weights = st.one_of(st.integers(-9, -1), st.integers(1, 9),
                    st.integers(-(10**40), -1), st.integers(1, 10**40))


@st.composite
def finite_points(draw, dim):
    return ProjPoint((*(draw(entries) for _ in range(dim)), draw(weights)))


@st.composite
def points_at_infinity(draw, dim):
    coords = [draw(entries) for _ in range(dim)]
    if not any(coords):
        coords[draw(st.integers(0, dim - 1))] = draw(weights)
    return ProjPoint((*coords, 0))


dims = st.sampled_from([1, 2, 3, 5])


def reference_mean(points):
    """The coordinatewise mean of the affine values, in ``Fraction``s."""
    affine = [[Fraction(c, p.coords[-1]) for c in p.coords[:-1]] for p in points]
    return tuple(sum(column, Fraction(0)) / len(points) for column in zip(*affine))


def reference_format(point):
    """``_fmt_point`` spelled out with ``format_rational`` on ``Fraction``s."""
    *xs, w = point.coords
    if point.dim == 1:
        return "inf" if w == 0 else format_rational(Fraction(xs[0], w))
    if w == 0:
        return "[" + " : ".join(str(c) for c in point.coords) + "]"
    return "(" + ", ".join(format_rational(Fraction(c, w)) for c in xs) + ")"


@given(dims.flatmap(lambda d: st.lists(finite_points(d), min_size=1, max_size=7)))
@settings(max_examples=150, derandomize=True)
def test_affine_mean_matches_the_fraction_mean(points):
    mean = affine_mean(points)
    *xs, w = mean.coords
    assert w != 0
    assert tuple(Fraction(c, w) for c in xs) == reference_mean(points)


@given(dims.flatmap(lambda d: st.tuples(
    st.lists(finite_points(d), max_size=4),
    st.lists(st.one_of(finite_points(d), points_at_infinity(d)), max_size=4),
    points_at_infinity(d))))
@settings(max_examples=100, derandomize=True)
def test_affine_mean_of_a_point_at_infinity_raises(case):
    before, after, infinite = case
    points = [*before, infinite, *after]
    with pytest.raises(InfiniteVertex) as info:
        affine_mean(points)
    assert str(info.value) == f"{infinite!r} has no affine coordinates"


@given(dims.flatmap(lambda d: st.one_of(finite_points(d), points_at_infinity(d))))
@settings(max_examples=200, derandomize=True)
def test_printed_points_match_format_rational(point):
    assert _fmt_point(point) == reference_format(point)
    if point.dim == 1:
        assert format_p1(point) == reference_format(point)
