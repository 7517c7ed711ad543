"""Planar pentagram map: the worked hexagon, labels, collapse, equivariance."""

from fractions import Fraction

import pytest

from pentagram_lab.errors import DegenerateJoin, DegenerateMeet, NotAxisAligned
from pentagram_lab.pentagram2d import (
    AxisAligned2,
    LabeledPolygon2,
    center_of_mass_affine,
    center_of_mass_projective,
    collapse_orbit,
    concurrency_points,
    is_axis_aligned,
    pentagram_step,
    random_axis_aligned,
)
from pentagram_lab.projcore import ProjPoint, apply_map, random_projective_map
from pentagram_lab.rng import SplitMix64

from conftest import pt2

HEX_IMAGE = [
    (Fraction(20, 7), Fraction(10, 7)),
    (Fraction(16, 7), Fraction(8, 7)),
    (Fraction(10), Fraction(-4)),
    (Fraction(-1, 2), Fraction(13, 2)),
    (Fraction(5, 8), Fraction(25, 8)),
    (Fraction(4, 5), Fraction(4)),
]
CENTROID = (Fraction(5, 3), Fraction(7, 3))


def test_label_bookkeeping(hexagon):
    assert hexagon.n == 3
    assert hexagon.labels() == (1, 3, 5, 7, 9, 11)
    stepped = pentagram_step(hexagon)
    assert stepped.labels() == (2, 4, 6, 8, 10, 0)
    assert pentagram_step(stepped).labels() == (3, 5, 7, 9, 11, 1)


def test_hexagon_single_step_exact(hexagon):
    image = pentagram_step(hexagon)
    assert [v.affine_coords() for v in image.vertices] == HEX_IMAGE


def test_hexagon_second_step_collapses(hexagon):
    final = pentagram_step(pentagram_step(hexagon))
    assert all(v.affine_coords() == CENTROID for v in final.vertices)


def test_hexagon_collapse_report(hexagon_aligned):
    rep = collapse_orbit(hexagon_aligned)
    assert rep.ok
    assert rep.steps_taken == 2
    assert rep.collapse_point.affine_coords() == CENTROID
    assert rep.centroid.affine_coords() == CENTROID


def test_hexagon_two_line_stage(hexagon_aligned):
    stage = collapse_orbit(hexagon_aligned).two_line_stage
    assert stage.alternating and stage.through_centroid
    line_a, line_b = stage.lines
    # 19x + 25y = 90 and 25x + 13y = 72, each through the centroid
    for v, on_a in zip(HEX_IMAGE, [True, False] * 3):
        x, y = v
        assert (19 * x + 25 * y == 90) == on_a
        assert (25 * x + 13 * y == 72) == (not on_a)
        p = pt2(x, y)
        assert (line_a.incident(p), line_b.incident(p)) == (on_a, not on_a)
    centroid = pt2(*CENTROID)
    assert line_a.incident(centroid) and line_b.incident(centroid)


def test_centroid_is_vertex_mean(hexagon):
    c = center_of_mass_affine(hexagon)
    assert c.affine_coords() == CENTROID


def test_is_axis_aligned(hexagon):
    assert is_axis_aligned(hexagon, "affine")
    skew = LabeledPolygon2.of(
        [pt2(0, 0), pt2(4, 1), pt2(4, 2), pt2(1, 2), pt2(1, 5), pt2(0, 5)], 1
    )
    assert not is_axis_aligned(skew, "affine")


def test_from_levels_matches_vertex_pattern():
    P = AxisAligned2.from_levels([0, 4, 1], [0, 2, 5])
    assert [v.affine_coords() for v in P.underlying.vertices] == [
        (Fraction(x), Fraction(y)) for x, y in
        [(0, 0), (4, 0), (4, 2), (1, 2), (1, 5), (0, 5)]
    ]


def test_from_levels_rejects_repeats():
    with pytest.raises(NotAxisAligned):
        AxisAligned2.from_levels([0, 4, 0], [0, 2, 5])


def test_consecutive_coincident_vertices_rejected():
    with pytest.raises(DegenerateJoin):
        LabeledPolygon2.of([pt2(0, 0), pt2(0, 0), pt2(1, 1), pt2(2, 0)], 1)


def test_projective_equivariance(hexagon):
    rng = SplitMix64(9)
    for _ in range(20):
        phi = random_projective_map(2, rng)
        mapped = LabeledPolygon2.of(
            [phi.apply(v) for v in hexagon.vertices], hexagon.label_offset
        )
        try:
            lhs = pentagram_step(mapped)
        except (DegenerateJoin, DegenerateMeet):
            continue
        rhs = pentagram_step(hexagon)
        assert lhs.vertices == tuple(phi.apply(v) for v in rhs.vertices)
        assert lhs.label_offset == rhs.label_offset


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_projective_center_of_mass_is_collapse_point(n):
    # Glick's collapse in projective form: for phi(P) with P axis aligned,
    # the edge families meet at the images of the axis directions, the
    # projective center of mass is phi of the affine one, and the orbit
    # collapses onto it after n - 1 steps
    axis_x, axis_y = ProjPoint((1, 0, 0)), ProjPoint((0, 1, 0))
    for s in range(15):
        P = random_axis_aligned(n, s, 10).underlying
        phi = random_projective_map(2, SplitMix64(s))
        mapped = LabeledPolygon2.of([phi.apply(v) for v in P.vertices], P.label_offset)
        assert concurrency_points(mapped) == (phi.apply(axis_x), phi.apply(axis_y))
        center = phi.apply(center_of_mass_affine(P))
        assert center_of_mass_projective(mapped) == center
        for _ in range(n - 1):
            mapped = pentagram_step(mapped)
        assert set(mapped.vertices) == {center}


# seed bases on which every draw has a fully defined orbit (a few draws per
# thousand land on the non-generic locus and raise instead of collapsing)
CLEAN_BASE = {3: 0, 4: 0, 5: 1000, 6: 4000, 7: 0}


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_random_collapse(n):
    for s in range(20):
        rep = collapse_orbit(random_axis_aligned(n, seed=CLEAN_BASE[n] + s))
        assert rep.ok
        assert rep.steps_taken == n - 1


def test_sampler_deterministic():
    a = random_axis_aligned(4, seed=11)
    b = random_axis_aligned(4, seed=11)
    assert a.underlying.vertices == b.underlying.vertices


# --- error labels of degenerate steps ---------------------------------------
# A degenerate diagonal is reported against the first output that needs it.
# Output t of a step from label offset 1 carries label 2 + 2t.


def test_degenerate_draw_n8_seed1_label():
    # a genuine coincidence, not a kernel gap: see
    # test_kernel_oracle.test_n8_seed1_step1_vertices_are_collinear
    with pytest.raises(DegenerateMeet) as info:
        collapse_orbit(random_axis_aligned(8, 1))
    assert str(info.value) == (
        "step 2: output label 23: meet of identical lines [9 : -10 : 18]"
    )


@pytest.mark.parametrize(
    "vertices, message",
    [
        # v5 == v1: only the wrap-around diagonal v5 v1 is degenerate; the
        # step needs it first for output 0
        (
            [(0, 0), (4, 0), (4, 2), (1, 2), (1, 5), (4, 0)],
            "output label 2: join of coincident points (4 : 0 : 1)",
        ),
        # v4 == v2: only the diagonal v2 v4 is degenerate; output 2 needs it
        # first, output 3 again
        (
            [(0, 0), (4, 0), (4, 2), (1, 2), (4, 2), (0, 5)],
            "output label 6: join of coincident points (4 : 2 : 1)",
        ),
    ],
    ids=["wrap-around", "middle"],
)
def test_degenerate_diagonal_label(vertices, message):
    poly = LabeledPolygon2.of([pt2(x, y) for x, y in vertices], 1)
    with pytest.raises(DegenerateJoin) as info:
        pentagram_step(poly)
    assert str(info.value) == message
