"""The pentagram map on labeled polygons in the projective plane.

A 2n-gon carries one parity class of labels mod 4n: vertices sit at labels
offset, offset+2, ..., and the edge between consecutive vertices carries the
label in between.  One pentagram step intersects the short diagonals

    Q_j = (P_{j-1} P_{j+3}) /\\ (P_{j-3} P_{j+1})

and the output vertices carry the opposite parity class, so iterating the map
alternates label parity.

Axis-aligned polygons (edges alternately parallel to the two axes, starting
with a horizontal edge) collapse: n-1 steps send such a 2n-gon to a single
point, its center of mass, passing through a stage where the two alternating
vertex families are collinear on lines through that center.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateJoin, InfiniteVertex, NotAxisAligned
from .projcore import (
    ProjLine2,
    ProjPoint,
    affine_mean,
    as_fraction,
    axes_normalization_map,
    join_points,
    meet_consecutive_chords,
    meet_lines,
    orbit,
    point_coords,
)
from .rng import SplitMix64


@dataclass(frozen=True)
class LabeledPolygon2:
    """Vertices in label order: vertices[t] carries label label_offset + 2t (mod 4n)."""

    vertices: tuple[ProjPoint, ...]
    label_offset: int = 1

    @classmethod
    def of(cls, vertices, label_offset: int = 1) -> "LabeledPolygon2":
        vertices = tuple(vertices)
        if len(vertices) < 4 or len(vertices) % 2 != 0:
            raise ValueError("a labeled polygon needs an even vertex count >= 4")
        for v in vertices:
            if v.dim != 2:
                raise ValueError("vertices must be points of the projective plane")
        for t, v in enumerate(vertices):
            if v == vertices[(t + 1) % len(vertices)]:
                raise DegenerateJoin(f"consecutive vertices {t} and {t + 1} coincide")
        return cls(vertices, label_offset % (2 * len(vertices)))

    @property
    def n(self) -> int:
        return len(self.vertices) // 2

    @property
    def label_period(self) -> int:
        return 2 * len(self.vertices)

    def labels(self) -> tuple[int, ...]:
        period = self.label_period
        return tuple((self.label_offset + 2 * t) % period for t in range(len(self.vertices)))

    def label_map(self) -> dict[int, ProjPoint]:
        return dict(zip(self.labels(), self.vertices))


def pentagram_step(poly: LabeledPolygon2) -> LabeledPolygon2:
    """One pentagram step; output labels move to the opposite parity class."""
    verts = poly.vertices
    k = len(verts)
    period = 2 * k
    new_offset = (poly.label_offset + 1) % period
    P = point_coords(verts, 2)
    # the diagonal P_{t-1} P_{t+1} of output t is P_t P_{t+2} of output t-1
    out = meet_consecutive_chords(
        P, P[2:] + P[:2], lambda t: f"output label {(new_offset + 2 * t) % period}"
    )
    return LabeledPolygon2(tuple(out), new_offset)


def _edge_pairs(poly: LabeledPolygon2):
    verts = poly.vertices
    k = len(verts)
    return [(verts[t], verts[(t + 1) % k]) for t in range(k)]


def _same_coordinate(edges, i: int) -> bool:
    """Both ends of every edge share coordinate i: horizontal edges for i = 1,
    vertical ones for i = 0."""
    return all(p.affine_coords()[i] == q.affine_coords()[i] for p, q in edges)


def _family_concurrency_point(lines) -> ProjPoint | None:
    first = lines[0]
    other = next((ln for ln in lines[1:] if ln != first), None)
    if other is None:
        return None  # all lines identical: degenerate family
    point = meet_lines(first, other)
    for ln in lines:
        if not ln.incident(point):
            return None
    return point


def is_axis_aligned(poly: LabeledPolygon2) -> bool:
    """Finite vertices and edges alternately horizontal and vertical.

    Polygons with repeated consecutive vertices give False.  The projective
    analogue, two concurrent edge families, is ``concurrency_points``.
    """
    edges = _edge_pairs(poly)
    if any(p == q for p, q in edges):
        return False
    if any(not v.is_finite for v in poly.vertices):
        return False
    even, odd = edges[0::2], edges[1::2]
    return (_same_coordinate(even, 1) and _same_coordinate(odd, 0)) or (
        _same_coordinate(even, 0) and _same_coordinate(odd, 1)
    )


def concurrency_points(poly: LabeledPolygon2) -> tuple[ProjPoint, ProjPoint]:
    """Common points of the two alternating edge families, first family first."""
    edges = _edge_pairs(poly)
    if any(p == q for p, q in edges):
        raise NotAxisAligned("degenerate edge")
    lines = [join_points(p, q) for p, q in edges]
    points = []
    for family in (lines[0::2], lines[1::2]):
        point = _family_concurrency_point(family)
        if point is None:
            raise NotAxisAligned("an edge family is not concurrent")
        points.append(point)
    return points[0], points[1]


def center_of_mass_affine(poly: LabeledPolygon2) -> ProjPoint:
    """Vertex centroid of an all-affine polygon."""
    return affine_mean(poly.vertices)


def center_of_mass_projective(poly: LabeledPolygon2) -> ProjPoint:
    """Centroid of a projectively axis-aligned polygon.

    Normalizes the two concurrency points onto the axis directions at
    infinity, averages there, and pulls back.  The result does not depend on
    the choice of admissible normalization.
    """
    p, q = concurrency_points(poly)
    if p == q:
        raise NotAxisAligned("the two edge families share their concurrency point")
    phi = axes_normalization_map(p, q)
    images = [phi.apply(v) for v in poly.vertices]
    for v in images:
        if not v.is_finite:
            raise InfiniteVertex("a vertex lands at infinity under normalization")
    normalized = LabeledPolygon2(tuple(images), poly.label_offset)
    return phi.inverse().apply(center_of_mass_affine(normalized))


@dataclass(frozen=True)
class AxisAligned2:
    """Axis-aligned 2n-gon with its x-levels a and y-levels b.

    Vertex pattern: P_{4j-3} = (a_j, b_j) and P_{4j-1} = (a_{j+1}, b_j) with
    a_{n+1} = a_1, so the first edge P_1 P_3 is horizontal.
    """

    underlying: LabeledPolygon2
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    @classmethod
    def from_levels(cls, a, b) -> "AxisAligned2":
        a = tuple(as_fraction(x) for x in a)
        b = tuple(as_fraction(y) for y in b)
        n = len(a)
        if n < 2 or len(b) != n:
            raise ValueError("need matching x- and y-level tuples of length n >= 2")
        # Fractions are reduced, so equal levels have equal pairs
        xs = [(x.numerator, x.denominator) for x in a]
        ys = [(y.numerator, y.denominator) for y in b]
        if len(set(xs)) != n or len(set(ys)) != n:
            raise NotAxisAligned("levels must be pairwise distinct")
        verts = []
        for j in range(n):
            yn, yd = ys[j]
            for xn, xd in (xs[j], xs[(j + 1) % n]):
                verts.append(ProjPoint((xn * yd, yn * xd, xd * yd)))
        return cls(LabeledPolygon2.of(tuple(verts), 1), a, b)

    @classmethod
    def from_polygon(cls, poly: LabeledPolygon2) -> "AxisAligned2":
        if not is_axis_aligned(poly):
            raise NotAxisAligned("polygon is not affinely axis aligned")
        first = poly.vertices[0].affine_coords()
        second = poly.vertices[1].affine_coords()
        if first[1] != second[1]:
            raise NotAxisAligned("first edge must be horizontal in this labeling")
        a = tuple(poly.vertices[2 * j].affine_coords()[0] for j in range(poly.n))
        b = tuple(poly.vertices[2 * j].affine_coords()[1] for j in range(poly.n))
        return cls(poly, a, b)

    @property
    def n(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class TwoLineStage:
    """Certificate for the stage where alternating vertices become collinear."""

    lines: tuple[ProjLine2, ProjLine2] | None
    alternating: bool
    through_centroid: bool


@dataclass(frozen=True)
class CollapseReport2:
    steps_taken: int
    two_line_stage: TwoLineStage
    collapse_point: ProjPoint | None
    centroid: ProjPoint
    all_equal: bool
    matched: bool

    @property
    def ok(self) -> bool:
        return (
            self.all_equal
            and self.matched
            and self.two_line_stage.alternating
            and self.two_line_stage.through_centroid
        )


def _collinear_line(points) -> ProjLine2 | None:
    anchor = points[0]
    other = next((p for p in points[1:] if p != anchor), None)
    if other is None:
        return None
    line = join_points(anchor, other)
    for p in points:
        if not line.incident(p):
            return None
    return line


def _certify_two_lines(poly: LabeledPolygon2, centroid: ProjPoint) -> TwoLineStage:
    evens = poly.vertices[0::2]
    odds = poly.vertices[1::2]
    line_a = _collinear_line(evens)
    line_b = _collinear_line(odds)
    if line_a is None or line_b is None:
        return TwoLineStage(None, False, False)
    through = line_a.incident(centroid) and line_b.incident(centroid)
    return TwoLineStage((line_a, line_b), True, through)


def collapse_orbit(P: AxisAligned2) -> CollapseReport2:
    """Run n-1 pentagram steps and certify the collapse to the center of mass."""
    n = P.n
    centroid = center_of_mass_affine(P.underlying)
    polys = orbit(P.underlying, pentagram_step, n - 1)
    stage = _certify_two_lines(polys[n - 2], centroid)
    final = polys[-1].vertices
    all_equal = len(set(final)) == 1
    collapse_point = final[0] if all_equal else None
    matched = all_equal and collapse_point == centroid
    return CollapseReport2(
        steps_taken=n - 1,
        two_line_stage=stage,
        collapse_point=collapse_point,
        centroid=centroid,
        all_equal=all_equal,
        matched=matched,
    )


def random_axis_aligned(n: int, seed: int, bound: int = 10) -> AxisAligned2:
    """Seeded random axis-aligned 2n-gon with distinct rational levels."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if bound < n:
        raise ValueError("coefficient bound must be >= n to fit distinct levels")
    rng = SplitMix64(seed)
    a = rng.distinct_rationals(n, bound)
    b = rng.distinct_rationals(n, bound)
    return AxisAligned2.from_levels(a, b)
