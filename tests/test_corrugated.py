"""Corrugated polygons in P^m: certificates, collapse, the m=2 reduction."""

import sys
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from pentagram_lab import corrugated, linalg
from pentagram_lab.corrugated import (
    AxisAlignedM,
    PolygonM,
    collapse_orbit_m,
    corrugated_step,
    is_corrugated,
    random_axis_aligned_m,
)
from pentagram_lab.errors import (
    DegeneracyError,
    DegenerateJoin,
    DegenerateMeet,
    NonCoplanarDiagonals,
    NotAxisAligned,
)
from pentagram_lab.pentagram2d import LabeledPolygon2, pentagram_step
from pentagram_lab.projcore import ProjPoint


def test_axis_aligned_walk_is_corrugated():
    Q = random_axis_aligned_m(3, 3, seed=4)
    assert is_corrugated(Q.underlying)


def test_labels_step_by_m_and_shift_by_triangle():
    Q = random_axis_aligned_m(3, 3, seed=4)
    poly = Q.underlying
    assert poly.labels()[:4] == (1, 4, 7, 10)
    out = corrugated_step(poly)
    # (m^2 + m) / 2 = 6 for m = 3
    assert out.label_offset == (poly.label_offset + 6) % (3 * len(poly.vertices))


# per-cell bases chosen so every draw stays off the non-generic locus
CLEAN_BASE = {(2, 2): 0, (2, 3): 100, (3, 2): 0, (3, 3): 100, (3, 4): 0, (4, 3): 100}


@pytest.mark.parametrize("m,n", sorted(CLEAN_BASE))
def test_collapse_to_coordinatewise_mean(m, n):
    for s in range(10):
        rep = collapse_orbit_m(random_axis_aligned_m(m, n, seed=CLEAN_BASE[m, n] + s))
        assert rep.matched
        assert rep.steps_taken == n - 1
        assert all(rep.corrugated_certificates)
        assert len(rep.corrugated_certificates) == n - 1


def test_n_below_m_branch():
    # 2 = n < m = 4: a single step collapses the octagon-like walk
    rep = collapse_orbit_m(random_axis_aligned_m(4, 2, seed=5))
    assert rep.matched and rep.steps_taken == 1


def test_degenerate_draw_names_step_and_label():
    with pytest.raises(DegenerateMeet) as info:
        collapse_orbit_m(random_axis_aligned_m(3, 3, 8))
    assert str(info.value) == "step 2: output label 13: the two lines coincide"


def test_m2_reduces_to_planar_map():
    """With m = 2 the corrugated step is the pentagram step, label for label."""
    for n in (2, 3, 4):
        for s in range(5):
            Q = random_axis_aligned_m(2, n, seed=97 + 10 * n + s)
            poly_m = Q.underlying
            poly_2 = LabeledPolygon2.of(poly_m.vertices, poly_m.label_offset)
            out_m = corrugated_step(poly_m)
            out_2 = pentagram_step(poly_2)
            assert dict(zip(out_m.labels(), out_m.vertices)) == dict(
                zip(out_2.labels(), out_2.vertices)
            )


def test_from_polygon_requires_fresh_labeling():
    Q = random_axis_aligned_m(3, 3, seed=4)
    shifted = PolygonM.of(3, Q.underlying.vertices, label_offset=7)
    with pytest.raises(NotAxisAligned):
        AxisAlignedM.from_polygon(shifted)


def test_from_polygon_round_trip():
    Q = random_axis_aligned_m(3, 3, seed=11)
    again = AxisAlignedM.from_polygon(Q.underlying)
    assert again.underlying.vertices == Q.underlying.vertices


def test_collapse_point_is_mean_of_vertices():
    Q = random_axis_aligned_m(3, 3, seed=2)
    verts = [v.affine_coords() for v in Q.underlying.vertices]
    mean = tuple(
        Fraction(sum(v[i] for v in verts), len(verts)) for i in range(3)
    )
    rep = collapse_orbit_m(Q)
    assert rep.collapse_point.affine_coords() == mean


def test_sampler_deterministic():
    a = random_axis_aligned_m(3, 4, seed=8)
    b = random_axis_aligned_m(3, 4, seed=8)
    assert a.underlying.vertices == b.underlying.vertices


@st.composite
def planted_polygons(draw):
    """A polygon of P^3 or P^4 with small integer coordinates, some of whose
    quadruples V_t, V_{t+1}, V_{t+m}, V_{t+m+1} are then planted coplanar
    (rank <= 3), collinear (rank <= 2) or skew (rank 4).

    The polygon is drawn free, or as the image of an axis-aligned mn-gon
    under an integer matrix, which makes every quadruple coplanar."""
    m = draw(st.sampled_from((3, 4)))
    small = st.integers(-3, 3)
    if draw(st.booleans()):
        k = draw(st.integers(m + 2, 2 * m + 2))
        verts = [draw(st.lists(small, min_size=m + 1, max_size=m + 1)) for _ in range(k)]
    else:
        n = draw(st.integers(2, 3))
        k = m * n
        steps = [draw(st.lists(small.filter(bool), min_size=n - 1, max_size=n - 1))
                 for _ in range(m)]
        assume(all(sum(axis) != 0 for axis in steps))
        point = draw(st.lists(small, min_size=m, max_size=m)) + [1]
        walk = []
        for t in range(k):
            walk.append(list(point))
            axis = steps[t % m]
            point[t % m] += axis[t // m] if t // m < n - 1 else -sum(axis)
        matrix = draw(st.lists(st.lists(st.integers(-2, 2), min_size=m + 1, max_size=m + 1),
                               min_size=m + 1, max_size=m + 1))
        verts = [[sum(a * x for a, x in zip(row, v)) for row in matrix] for v in walk]

    def combo(*rows):
        coeffs = [draw(small) for _ in rows]
        return [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(m + 1)]

    for _ in range(draw(st.integers(0, 2))):
        t = draw(st.integers(0, k - 1))
        a, b, c, d = ((t + s) % k for s in (0, 1, m, m + 1))
        kind = draw(st.sampled_from(("coplanar", "collinear", "skew")))
        if kind == "coplanar":
            verts[d] = combo(verts[a], verts[b], verts[c])
        elif kind == "collinear":
            verts[c] = combo(verts[a], verts[b])
            verts[d] = combo(verts[a], verts[b])
        else:
            for j, i in enumerate((a, b, c, d)):
                verts[i] = [int(x == j) for x in range(m + 1)]
    assume(all(any(v) for v in verts))
    return PolygonM(m, tuple(ProjPoint(v) for v in verts))


def _first_degeneracy(V: PolygonM):
    """The error the step must raise, from sympy ranks in quadruple order."""
    k, m = V.count, V.m
    for t in range(k):
        a, b, c, d = (V.vertices[(t + s) % k] for s in (0, m, 1, m + 1))
        if a == b or c == d:
            return DegenerateJoin
        r = sympy.Matrix([p.coords for p in (a, b, c, d)]).rank()
        if r == 4:
            return NonCoplanarDiagonals
        if r <= 2:
            return DegenerateMeet
    return None


@settings(max_examples=300, deadline=None)
@given(planted_polygons())
def test_a_step_that_returns_certifies_corrugatedness(V):
    """corrugated_step meets every quadruple at rank exactly 3, or raises."""
    expected = _first_degeneracy(V)
    try:
        corrugated_step(V)
    except DegeneracyError as exc:
        assert type(exc) is expected
    else:
        assert expected is None
        assert is_corrugated(V)


def _count_calls(monkeypatch, *functions):
    """Count calls of each function through every module name bound to it."""
    calls = Counter()
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("pentagram_lab"):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
    return calls


def test_collapse_makes_no_second_elimination(monkeypatch):
    draws = [random_axis_aligned_m(m, n, seed=s)
             for m, n, s in ((3, 4, 0), (4, 3, 100), (3, 2, 1))]
    calls = _count_calls(monkeypatch, corrugated.is_corrugated, linalg.rank)
    for Q in draws:
        rep = collapse_orbit_m(Q)
        assert rep.corrugated_certificates == (True,) * (Q.n - 1)
    assert calls == Counter()
    random_axis_aligned_m(3, 4, seed=0)
    assert calls["is_corrugated"] >= 1
