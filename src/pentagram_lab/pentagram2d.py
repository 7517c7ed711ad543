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
from itertools import islice
from math import lcm

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


def _family_line(points):
    """The line through the int triples ``points`` and whether cyclically
    consecutive points are projectively apart, or None where the points are
    one projective point or not collinear.

    The line is the cross product of the first point and the first point
    apart from it, unreduced; incidence is its dot product with each triple.
    On a line whose coefficient k is nonzero, a point is fixed by its other
    two coordinates, so two of its points coincide exactly when their 2x2
    minor on those coordinates vanishes.
    """
    p0, p1, p2 = points[0]
    for q0, q1, q2 in points[1:]:
        line = (p1 * q2 - p2 * q1, p2 * q0 - p0 * q2, p0 * q1 - p1 * q0)
        if any(line):
            break
    else:
        return None
    l0, l1, l2 = line
    if any(l0 * x + l1 * y + l2 * w for x, y, w in points):
        return None
    i, j = (1, 2) if l0 else (0, 2) if l1 else (0, 1)
    apart = all(p[i] * q[j] != p[j] * q[i] for p, q in zip(points, points[1:] + points[:1]))
    return line, apart


def _certify_two_lines(stage, centroid: ProjPoint, La: int = 1, Lb: int = 1):
    """The ``TwoLineStage`` of ``stage`` and the collapse point it fixes.

    ``stage`` holds the vertices of step n - 2 as int triples, in the frame
    that ``(x, y, w) -> (Lb x, La y, La Lb w)`` maps back to P's own; each
    family's line is found there and only the two lines are mapped back,
    by (l0, l1, l2) -> (La l0, Lb l1, l2), and canonicalized.  A family that
    is not collinear gives ``TwoLineStage(None, False, False)``, and
    ``through_centroid`` tests the canonical lines against the canonical
    centroid.

    Where both families are collinear, their lines A and B differ and no two
    consecutive vertices of one family coincide, every chord of step n - 1
    joins two distinct points of one line, so ``pentagram_step`` would send
    every vertex to the meet A x B: that meet is the second value.  Otherwise
    it is None and step n - 1 must be run.
    """
    fits = _family_line(stage[0::2]), _family_line(stage[1::2])
    if None in fits:
        return TwoLineStage(None, False, False), None
    (a, apart_a), (b, apart_b) = fits
    A = ProjLine2((La * a[0], Lb * a[1], a[2]))
    B = ProjLine2((La * b[0], Lb * b[1], b[2]))
    through = A.incident(centroid) and B.incident(centroid)
    point = meet_lines(A, B) if apart_a and apart_b and A != B else None
    return TwoLineStage((A, B), True, through), point


def _level_scales(P: AxisAligned2) -> tuple[int, int]:
    """La and Lb, the lcms of the denominators of P's x- and y-levels."""
    return lcm(*(x.denominator for x in P.a)), lcm(*(y.denominator for y in P.b))


def _unscale(S, La: int, Lb: int) -> tuple[ProjPoint, ...]:
    """Points of the integer frame mapped back to P's frame, canonicalized."""
    return tuple(ProjPoint((Lb * x, La * y, La * Lb * w)) for x, y, w in S)


def _tau_states(P: AxisAligned2):
    """Yield the vertices of steps 0, 1, ..., n - 1 of P's orbit as raw int
    triples in an integer frame; stop early where a guard fails.

    The steps run on the tau functions' octahedron recurrence (a T-system;
    Glick 2011) and form no chord.  The frame scales the x-levels by La and
    the y-levels by Lb, the lcms of their denominators, and starts from
    V_{2j} = (a_j, b_j, 1), V_{2j+1} = (a_{j+1}, b_j, 1), H = 1 and G_t =
    a_j - a_{j+1} at t = 2j, b_j - b_{j+1} at t = 2j + 1.  Each step sets
    (H, G, V) to (G, F, W), where

        W_t = (G_{t+1} V_{t-1} - G_{t-1} V_{t+1}) / H_t,
        F_t = (G_{t-1} G_{t+2} - G_t G_{t+1}) / H_{t+1}.

    The step keeps three determinants of nearby vertices equal to +-G G H
    (README; ``tests/test_tau_identities.py`` proves it for every n), so
    with no G zero W_t is a multiple of ``pentagram_step``'s vertex t.  The
    guards: no G is 0, every division is exact (the Laurent phenomenon) and
    no W_t is 0.  F is computed only when the next step is asked for.
    """
    n = P.n
    La, Lb = _level_scales(P)
    xs = [x.numerator * (La // x.denominator) for x in P.a]
    ys = [y.numerator * (Lb // y.denominator) for y in P.b]
    V, G = [], []
    for j in range(n):
        x0, x1, y = xs[j], xs[(j + 1) % n], ys[j]
        V += [(x0, y, 1), (x1, y, 1)]
        G += [x0 - x1, y - ys[(j + 1) % n]]
    H = [1] * len(V)
    yield V
    for _ in range(1, n):
        if 0 in G:
            return
        before, after = G[-1:] + G[:-1], G[1:] + G[:1]
        W = []
        for (u0, u1, u2), (v0, v1, v2), g0, g2, h in zip(V[-1:] + V[:-1], V[1:] + V[:1],
                                                         before, after, H):
            x, rx = divmod(g2 * u0 - g0 * v0, h)
            y, ry = divmod(g2 * u1 - g0 * v1, h)
            z, rz = divmod(g2 * u2 - g0 * v2, h)
            if rx or ry or rz or not (x or y or z):
                return
            W.append((x, y, z))
        yield W
        F = []
        for g0, g1, g2, g3, h in zip(before, G, after, G[2:] + G[:2], H[1:] + H[:1]):
            f, r = divmod(g0 * g3 - g1 * g2, h)
            if r:
                return
            F.append(f)
        H, G, V = G, F, W


def _collapse_stages(P: AxisAligned2):
    """The vertices of steps n - 2 and n - 1 of P's orbit as ``_tau_states``
    reaches them, canonicalized, or None where a guard fails before step
    n - 1 is done.  ``collapse_orbit`` stops the loop at step n - 2 wherever
    that stage fixes the collapse point."""
    stages = list(islice(_tau_states(P), P.n - 2, P.n))
    if len(stages) < 2:
        return None
    La, Lb = _level_scales(P)
    return tuple(_unscale(S, La, Lb) for S in stages)


def collapse_orbit(P: AxisAligned2) -> CollapseReport2:
    """Run n-1 pentagram steps and certify the collapse to the center of mass.

    The steps run on the tau-function recurrence of ``_tau_states``, which
    stops after step n - 2: ``_certify_two_lines`` reads the two-line stage
    off the loop's raw integers and, where the stage allows it, step n - 1
    off the two lines, as one point.  Otherwise the loop runs step n - 1.
    A draw on which one of the loop's guards fails runs ``orbit`` with
    ``pentagram_step`` instead, so a degenerate draw raises that step's own
    error.
    """
    n = P.n
    centroid = center_of_mass_affine(P.underlying)
    states = _tau_states(P)
    stage = next(islice(states, n - 2, None), None)
    final = None
    if stage is not None:
        La, Lb = _level_scales(P)
        two_lines, point = _certify_two_lines(stage, centroid, La, Lb)
        if point is not None:
            final = (point,)
        elif (last := next(states, None)) is not None:
            final = _unscale(last, La, Lb)
    if final is None:
        polys = orbit(P.underlying, pentagram_step, n - 1)
        if stage is None:
            two_lines = _certify_two_lines([v.coords for v in polys[-2].vertices], centroid)[0]
        final = polys[-1].vertices
    all_equal = len(set(final)) == 1
    collapse_point = final[0] if all_equal else None
    matched = all_equal and collapse_point == centroid
    return CollapseReport2(
        steps_taken=n - 1,
        two_line_stage=two_lines,
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
