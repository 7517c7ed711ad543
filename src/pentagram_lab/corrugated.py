"""Corrugated polygons in P^m and the higher pentagram map T_m.

A polygon V_1 V_2 ... V_k in P^m is corrugated when every quadruple
V_i, V_{i+1}, V_{i+m}, V_{i+m+1} spans a projective plane, which makes
successive m-diagonals V_i V_{i+m} intersect.  T_m takes those intersections
as the new vertices.

Vertices carry labels 1, m+1, 2m+1, ... (step m, mod m*count); one T_m step
shifts the label offset by (m^2+m)/2, the average-of-parents rule.  For m=2
the map and its labels coincide with the planar pentagram map.

Axis-aligned mn-gons in R^m (edge i parallel to axis i mod m) are corrugated
and collapse to their center of mass after n-1 steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    DegeneracyError,
    DegenerateJoin,
    ExhaustedSampling,
    NotAxisAligned,
)
from .linalg import integer_echelon
from .projcore import ProjPoint, affine_mean, as_fraction, meet_coplanar_lines, orbit
from .rng import SplitMix64


@dataclass(frozen=True)
class PolygonM:
    """Closed polygon in P^m; vertices[t] carries label label_offset + t*m (mod m*count)."""

    m: int
    vertices: tuple[ProjPoint, ...]
    label_offset: int = 1

    @classmethod
    def of(cls, m: int, vertices, label_offset: int = 1) -> "PolygonM":
        if m < 2:
            raise ValueError("ambient dimension m must be >= 2")
        vertices = tuple(vertices)
        if len(vertices) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        for v in vertices:
            if v.dim != m:
                raise ValueError(f"vertices must be points of P^{m}")
        for t, v in enumerate(vertices):
            if v == vertices[(t + 1) % len(vertices)]:
                raise DegenerateJoin(f"consecutive vertices {t} and {t + 1} coincide")
        return cls(m, vertices, label_offset % (m * len(vertices)))

    @property
    def count(self) -> int:
        return len(self.vertices)

    @property
    def label_period(self) -> int:
        return self.m * self.count

    def labels(self) -> tuple[int, ...]:
        period = self.label_period
        return tuple((self.label_offset + t * self.m) % period for t in range(self.count))

    def label_map(self) -> dict[int, ProjPoint]:
        return dict(zip(self.labels(), self.vertices))


def is_corrugated(V: PolygonM) -> bool:
    """Every quadruple V_t, V_{t+1}, V_{t+m}, V_{t+m+1} spans exactly a plane
    (rank 3), ranked on the int coordinates by the integer elimination."""
    verts = V.vertices
    k = len(verts)
    m = V.m
    for t in range(k):
        quad = [verts[i % k].coords for i in (t, t + 1, t + m, t + m + 1)]
        if len(integer_echelon(quad, m + 1)[1]) != 3:
            return False
    return True


def corrugated_step(V: PolygonM) -> PolygonM:
    """One T_m step: intersect successive m-diagonals.

    Output vertex at position t sits at label old + t*m + (m^2+m)/2, the
    average of its four parent labels.
    """
    verts = V.vertices
    k = V.count
    m = V.m
    period = V.label_period
    new_offset = (V.label_offset + (m * m + m) // 2) % period
    out = []
    for t in range(k):
        label = (new_offset + t * m) % period
        try:
            out.append(
                meet_coplanar_lines(
                    verts[t],
                    verts[(t + m) % k],
                    verts[(t + 1) % k],
                    verts[(t + m + 1) % k],
                )
            )
        except DegeneracyError as exc:
            raise type(exc)(f"output label {label}: {exc}") from exc
    return PolygonM(m, tuple(out), new_offset)


def center_of_mass_m(V: PolygonM) -> ProjPoint:
    """Coordinatewise mean of the (all-affine) vertices."""
    return affine_mean(V.vertices)


@dataclass(frozen=True)
class AxisAlignedM:
    """Axis-aligned mn-gon: edge t runs parallel to axis t mod m.

    steps[j] holds the n signed lengths of the edges along axis j; each tuple
    sums to zero so the polygon closes up.
    """

    underlying: PolygonM
    steps: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_steps(cls, m: int, steps, start=None) -> "AxisAlignedM":
        steps = tuple(tuple(as_fraction(s) for s in axis) for axis in steps)
        if len(steps) != m:
            raise ValueError(f"need one step tuple per axis ({m} of them)")
        n = len(steps[0])
        if n < 2 or any(len(axis) != n for axis in steps):
            raise ValueError("each axis needs the same number n >= 2 of steps")
        # the walk runs in integers over a common denominator of every step
        # and start coordinate
        scale = lcm(*(s.denominator for axis in steps for s in axis))
        for j, axis in enumerate(steps):
            if any(s.numerator == 0 for s in axis):
                raise NotAxisAligned(f"axis {j + 1} has a zero step")
            if sum(s.numerator * (scale // s.denominator) for s in axis) != 0:
                raise NotAxisAligned(f"axis {j + 1} steps do not sum to zero")
        if start is None:
            start = (Fraction(0),) * m
        else:
            start = tuple(as_fraction(x) for x in start)
            if len(start) != m:
                raise ValueError("start point must have m coordinates")
        scale = lcm(scale, *(x.denominator for x in start))
        walk = [[s.numerator * (scale // s.denominator) for s in axis] for axis in steps]
        point = [x.numerator * (scale // x.denominator) for x in start]
        verts = []
        for t in range(m * n):
            verts.append(ProjPoint((*point, scale)))
            point[t % m] += walk[t % m][t // m]
        return cls(PolygonM.of(m, tuple(verts), 1), steps)

    @classmethod
    def from_polygon(cls, poly: PolygonM) -> "AxisAlignedM":
        m = poly.m
        k = poly.count
        if k % m != 0:
            raise NotAxisAligned("vertex count must be a multiple of m")
        if poly.label_offset != 1:
            raise NotAxisAligned("expected a fresh labeling starting at 1")
        coords = [v.affine_coords() for v in poly.vertices]
        steps: list[list[Fraction]] = [[] for _ in range(m)]
        for t in range(k):
            cur, nxt = coords[t], coords[(t + 1) % k]
            axis = t % m
            for i in range(m):
                if i != axis and nxt[i] != cur[i]:
                    raise NotAxisAligned(f"edge {t} is not parallel to axis {axis + 1}")
            steps[axis].append(nxt[axis] - cur[axis])
        return cls.from_steps(m, [tuple(s) for s in steps], coords[0])

    @property
    def m(self) -> int:
        return self.underlying.m

    @property
    def n(self) -> int:
        return self.underlying.count // self.underlying.m


@dataclass(frozen=True)
class CollapseReportM:
    steps_taken: int
    collapse_point: ProjPoint | None
    centroid: ProjPoint
    all_equal: bool
    matched: bool
    corrugated_certificates: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return self.all_equal and self.matched and all(self.corrugated_certificates)


def collapse_orbit_m(P: AxisAlignedM) -> CollapseReportM:
    """n-1 steps of T_m with a corrugatedness certificate for each step's input.

    A step that returns has met every quadruple of its input at rank exactly
    3 (``meet_coplanar_lines`` raises at rank 4, skew lines, and at rank <= 2,
    a degenerate or doubled line), so each of the n-1 polygons the map acts
    on is certified by the step that consumed it.  The final all-equal state
    is no longer corrugated (rank drops to 1).
    """
    n = P.n
    centroid = center_of_mass_m(P.underlying)
    final = orbit(P.underlying, corrugated_step, n - 1)[-1].vertices
    all_equal = len(set(final)) == 1
    collapse_point = final[0] if all_equal else None
    matched = all_equal and collapse_point == centroid
    return CollapseReportM(
        steps_taken=n - 1,
        collapse_point=collapse_point,
        centroid=centroid,
        all_equal=all_equal,
        matched=matched,
        corrugated_certificates=(True,) * (n - 1),
    )


_RETRY_LIMIT = 64


def random_axis_aligned_m(m: int, n: int, seed: int, bound: int = 10) -> AxisAlignedM:
    """Seeded axis-aligned mn-gon: per axis, n-1 random nonzero steps plus the
    negated sum; random start point; retried until corrugated."""
    if m < 2 or n < 2:
        raise ValueError("need m >= 2 and n >= 2")
    rng = SplitMix64(seed)
    for _ in range(_RETRY_LIMIT):
        steps = []
        for _ in range(m):
            head = [rng.nonzero_rational(bound) for _ in range(n - 1)]
            last = -sum(head)
            if last == 0:
                break
            steps.append((*head, last))
        if len(steps) != m:
            continue
        start = tuple(rng.rational(bound) for _ in range(m))
        try:
            candidate = AxisAlignedM.from_steps(m, steps, start)
        except (NotAxisAligned, DegenerateJoin):
            continue
        if is_corrugated(candidate.underlying):
            return candidate
    raise ExhaustedSampling(
        f"no corrugated axis-aligned ({m},{n})-instance within {_RETRY_LIMIT} attempts"
    )
