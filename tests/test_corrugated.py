"""Corrugated polygons in P^m: certificates, collapse, the m=2 reduction."""

from fractions import Fraction

import pytest

from pentagram_lab.corrugated import (
    AxisAlignedM,
    PolygonM,
    collapse_orbit_m,
    corrugated_step,
    is_corrugated,
    random_axis_aligned_m,
)
from pentagram_lab.errors import DegenerateMeet, NotAxisAligned
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
