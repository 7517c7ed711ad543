"""Parallel lifting machinery: the collapse proofs run as exact computations.

The pipeline, for an axis-aligned input P of any of the supported map
variants (planar, corrugated, mirror with even or odd n):

  1. ``build_A_sequences`` extracts the tagged n-point sequences A_1, A_3, ...
     whose chained matings reproduce the map orbit.  Sequence points are the
     map's own ``ProjPoint``s and every mate is a homogeneous integer point
     (``projcore.homogeneous_meet``: a cross product of joins in P^2, 3x3
     minors and a check of every coordinate in P^m), so the chain and its
     comparison with the orbit (L2.7) run on canonical ints.
  2. ``parallel_lift`` raises them into R^n by appending a shared per-position
     height row, giving a Polyjoint: joints (affinely independent n-tuples)
     whose consecutive pairs form prisms of parallel lines.  Joints and prisms
     keep integer rows over one denominator; normals, centroids and the
     public point fields are read out as ``Fraction`` tuples.
  3. Hyperplane spans |J_k|, their intersections H_{g,k}, and the cyclic
     skeletons Sigma_k T of the prisms turn incidence claims into exact
     rank/solve computations: slicing, prism independence, and finally the
     collapse line H_{n-1,n-1}, whose projection carries the final mating
     points together with the common centroid.  One slicing pass serves
     ``lift_report``, ``fully_sliced_check`` and
     ``prism_independence_check``.  It mates each slice by a prism whose
     lines span R^n: a slice of H_{g,k} is the positional mating of the
     slices of H_{g-1,k-1} and H_{g-1,k+1} (Lemma 3.2), each point one meet
     of two chords.  The chords through a slice's consecutive points are
     built once: their primitive directions tell its lines apart
     (``_distinct_lines``), and the next level meets them.  Only a slice in
     reach that does not mate is cut from ``flat_H(g, k)`` by its prism's
     skeleton, which gives its reasons.  L2.8's line is the H_{n-1,n-1} the
     pass built, or the join of two distinct points of a mated slice of it.
     ``lift_report`` decides L2.4 from one determinant per prism and runs
     a skeleton only where that is zero.  After L2.2 nothing in L2.4-L2.6
     raises, so the report runs the mating chain (L2.7) first.

Tags use two vocabularies.  Planar/corrugated entries carry integer vertex
labels, kept unreduced (monotone) so that a mating's child label is the plain
average of its four parent labels; reduce mod the label period to address a
vertex of the right map iterate.  Mirror entries carry (index, primed) pairs
naming a point of the current MP iterate or its reflection.

Check identifiers used in lift reports:

  L2.1 polyjoint construction (joints + prism property)
  L2.2 hyperplane general position
  L2.3 joint centroids coincide and project to the predicted point
  L2.4 skeleton intersection recurrence
  L2.5 every H_{g,k} slices the adjacent prisms
  L2.6 slice sets do not depend on the prism chosen
  L2.7 mating/star chain reproduces the map orbit
  L2.8 collapse line contains final mating points and centroid
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from operator import mul
from typing import Mapping, Sequence

from . import linalg
from .corrugated import AxisAlignedM, corrugated_step
from .errors import (
    DegenerateJoin,
    DegenerateMeet,
    DegenerateSpan,
    DimensionMismatch,
    InconsistentTags,
    MissingHyperplane,
    NonCoplanarDiagonals,
    NonOrthogonalNormal,
    NonTransverse,
    NotAJoint,
    VariantMismatch,
)
from .linalg import Vec
from .mirror import AxisAlignedMirrorPair, MirrorPair, mp_step
from .pentagram2d import AxisAligned2, pentagram_step
from .projcore import IDENTICAL, SKEW, ProjPoint, affine_mean, homogeneous_meet, reflect_r
from .rng import SplitMix64

MirrorTag = tuple[int, bool]


# ---------------------------------------------------------------------------
# core geometric types


class _Record:
    """Equality, hash and repr over the public fields named in ``_FIELDS``,
    as a frozen dataclass with those fields has them.  Subclasses keep their
    data in integer form and compute the public fields from it."""

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__name__}({inner})"


class NPoint(_Record):
    """Ordered n points in R^d, each tagged with the map point it names.

    seq_label is the sequence's position in the uniform odd/even ladder
    (stage-1 sequences at 1, 3, ..., children at averaged labels); level is
    the mating stage; period is the vertex-label period for integer tags.
    The points are kept as finite ``ProjPoint``s (``proj``), so matings and
    orbit comparisons run on canonical integer coordinates; ``points`` reads
    them as affine ``Fraction`` tuples.
    """

    __slots__ = ("proj", "tags", "seq_label", "level", "period", "cycle", "_points")
    _FIELDS = ("points", "tags", "seq_label", "level", "period", "cycle")

    def __init__(self, points, tags, seq_label: int, level: int = 1,
                 period: int | None = None, cycle: int | None = None):
        self._set(tuple(ProjPoint.affine(*p) for p in points), tags, seq_label,
                  level, period, cycle)

    @classmethod
    def homogeneous(cls, proj: tuple[ProjPoint, ...], tags, seq_label: int,
                    level: int = 1, period: int | None = None,
                    cycle: int | None = None) -> "NPoint":
        """The sequence of the finite points ``proj``, taken as they are."""
        seq = object.__new__(cls)
        seq._set(proj, tags, seq_label, level, period, cycle)
        return seq

    def _set(self, proj, tags, seq_label, level, period, cycle) -> None:
        if len(proj) != len(tags):
            raise ValueError("points and tags must align")
        if len(set(tags)) != len(tags):
            raise ValueError("tags must be pairwise distinct")
        self.proj = proj
        self.tags = tags
        self.seq_label = seq_label
        self.level = level
        self.period = period
        self.cycle = cycle
        self._points = None

    @property
    def points(self) -> tuple[Vec, ...]:
        if self._points is None:
            self._points = tuple(p.affine_coords() for p in self.proj)
        return self._points

    @property
    def count(self) -> int:
        return len(self.proj)

    @property
    def d(self) -> int:
        return self.proj[0].dim


def _differences(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Rows 1.. minus row 0."""
    first = rows[0]
    return [[x - y for x, y in zip(row, first)] for row in rows[1:]]


def _reduced(num: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """The point num / den as the reduced pair (numerators, positive
    denominator): the canonical form of a point ``AffineFlat``."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(num), den
    return tuple([x // g for x in num]), den // g


class Joint(_Record):
    """n affinely independent points in R^n, spanning a hyperplane.

    The points are kept as integer rows over their least common denominator
    (``_rows`` over ``_scale``); ``points`` gives them as ``Fraction`` tuples.
    """

    __slots__ = ("_rows", "_scale")
    _FIELDS = ("points",)

    def __init__(self, points):
        points = [tuple(p) for p in points]
        ints, scale = linalg.integer_row([c for p in points for c in p])
        rows, start = [], 0
        for p in points:
            rows.append(ints[start:start + len(p)])
            start += len(p)
        self._set(rows, scale)

    @classmethod
    def _of_ints(cls, rows: Sequence[Sequence[int]], scale: int) -> "Joint":
        """The points rows / scale (scale > 0), validated as ``of`` does."""
        joint = object.__new__(cls)
        joint._set(rows, scale)
        return joint._checked()

    def _set(self, rows, scale: int) -> None:
        g = gcd(scale, *(x for row in rows for x in row))
        self._rows = tuple(tuple(row) if g == 1 else tuple(x // g for x in row)
                           for row in rows)
        self._scale = scale // g

    @classmethod
    def of(cls, points) -> "Joint":
        return cls(points)._checked()

    def _checked(self) -> "Joint":
        rows = self._rows
        n = len(rows)
        if n < 2 or any(len(row) != n for row in rows):
            raise NotAJoint("a joint needs n points in R^n")
        if len(linalg.integer_echelon(_differences(rows), n)[1]) != n - 1:
            raise NotAJoint("points are affinely dependent")
        return self

    @property
    def points(self) -> tuple[Vec, ...]:
        scale = self._scale
        return tuple(tuple(Fraction(x, scale) for x in row) for row in self._rows)

    @property
    def n(self) -> int:
        return len(self._rows)

    def _centroid_point(self) -> ProjPoint:
        """The centroid as a projective point: column sums over n * scale."""
        return ProjPoint((*map(sum, zip(*self._rows)), self.n * self._scale))

    def centroid(self) -> Vec:
        return self._centroid_point().affine_coords()


def hyperplane_normal(J: Joint) -> Vec:
    """Normal of span(J) by cofactor expansion along the formal basis row.

    With the points over one denominator D, entry c is (-1)^c times the
    minor of the integer difference matrix with column c removed, over
    D^(n-1); the result is exactly orthogonal to every difference vector.
    """
    diffs = _differences(J._rows)
    n = J.n
    cofactors = [
        (-1 if c % 2 else 1) * linalg.integer_det([row[:c] + row[c + 1:] for row in diffs])
        for c in range(n)
    ]
    if not any(cofactors):
        raise NotAJoint("degenerate joint has no normal")
    if any(sum(x * y for x, y in zip(cofactors, d)) for d in diffs):
        raise NonOrthogonalNormal("cofactor normal is not orthogonal to the joint")
    den = J._scale ** (n - 1)
    return tuple(Fraction(x, den) for x in cofactors)


class AffineFlat:
    """base + span(basis) in canonical integer form, so equality is structural.

    The direction space is kept as its reduced echelon basis, each row scaled
    to the primitive integer row whose pivot entry is positive.  The base
    point is the unique representative with zeros in the pivot columns, kept
    as integer numerators over one positive denominator with no common
    factor.  Both forms are unique, so equal flats have equal forms.  ``base``
    and ``basis`` give the same point and reduced rows as ``Fraction`` tuples.
    The dual form, primitive integer rows [a | c] with the flat equal to
    {x : a x = c}, is read off the echelon rows on first use and kept.
    """

    __slots__ = ("_num", "_den", "_rows", "_pivots", "_eqs")

    def __init__(self, base, directions):
        num, den = linalg.integer_row(tuple(base))
        self._set(num, den, [linalg.integer_row(tuple(d))[0] for d in directions])

    @classmethod
    def of(cls, base, directions) -> "AffineFlat":
        return cls(base, directions)

    @classmethod
    def from_points(cls, points) -> "AffineFlat":
        points = [linalg.integer_row(tuple(p)) for p in points]
        num0, den0 = points[0]
        gaps = [
            [x * den0 - x0 * den for x, x0 in zip(num, num0, strict=True)]
            for num, den in points[1:]
        ]
        return cls._canonical(num0, den0, gaps)

    @classmethod
    def _canonical(cls, num, den, directions) -> "AffineFlat":
        """The flat num/den + span(directions), from ints (den > 0)."""
        flat = object.__new__(cls)
        flat._set(num, den, directions)
        return flat

    def _set(self, num, den, directions) -> None:
        rows = pivots = ()
        if directions:
            rows, pivots = linalg.integer_echelon(directions, len(num))
            for row, p in zip(rows, pivots):
                a = num[p]
                if a:
                    d = row[p]
                    num = [d * x - a * y for x, y in zip(num, row)]
                    den *= d
            rows, pivots = tuple(map(tuple, rows)), tuple(pivots)
        # with no directions (a point) the gcd alone gives the canonical form
        self._num, self._den = _reduced(num, den)
        self._rows = rows
        self._pivots = pivots
        self._eqs = None

    @property
    def base(self) -> Vec:
        den = self._den
        return tuple(Fraction(x, den) for x in self._num)

    @property
    def basis(self) -> tuple[Vec, ...]:
        return tuple(
            tuple(Fraction(x, row[p]) for x in row)
            for row, p in zip(self._rows, self._pivots)
        )

    @property
    def ambient(self) -> int:
        return len(self._num)

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def codim(self) -> int:
        return self.ambient - self.dim

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._den == other._den and self._num == other._num
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self._num, self._den, self._rows))

    def __repr__(self):
        return f"AffineFlat(base={self.base!r}, basis={self.basis!r})"

    def _equation_rows(self) -> list[tuple[int, ...]]:
        """One primitive row [a | c] per free column: a is den times a kernel
        row k of the echelon rows, and c = k . num."""
        if self._eqs is None:
            num, den = self._num, self._den
            eqs = []
            for k, _ in linalg.integer_kernel(self._rows, self._pivots, len(num)):
                eq = [den * x for x in k]
                eq.append(sum(x * y for x, y in zip(k, num) if x))
                g = gcd(*eq)
                eqs.append(tuple(eq) if g == 1 else tuple(x // g for x in eq))
            self._eqs = eqs
        return self._eqs

    def contains(self, point: Sequence[Fraction]) -> bool:
        point = tuple(point)
        if len(point) != self.ambient:
            raise DimensionMismatch(
                f"cannot test a point of R^{len(point)} on a flat in R^{self.ambient}"
            )
        return self._holds(*linalg.integer_row(point))

    def _holds_point(self, p: ProjPoint) -> bool:
        """contains() for the finite point p, read off its coordinates."""
        return self._holds(p.coords[:-1], p.coords[-1])

    def _holds(self, ints: Sequence[int], scale: int) -> bool:
        """contains() for the point ints / scale."""
        return all(
            sum(a * x for a, x in zip(eq[:-1], ints, strict=True)) == eq[-1] * scale
            for eq in self._equation_rows()
        )

    def _same_ambient(self, other: "AffineFlat", verb: str) -> None:
        if self.ambient != other.ambient:
            raise DimensionMismatch(
                f"cannot {verb} flats in R^{self.ambient} and R^{other.ambient}"
            )

    def intersect(self, other: "AffineFlat") -> "AffineFlat | None":
        """The meet, by substituting the flat with fewer directions into the
        other's equations: the point (num + sum u_i rows_i) / den lies on the
        other flat iff u solves a codim x (dim + 1) integer system.  When
        every u_i is a pivot the meet is the one point u gives, over
        den * scale and reduced by one gcd, with no kernel rows to read or
        echelon."""
        self._same_ambient(other, "meet")
        flat, eqs = (self, other) if self.dim <= other.dim else (other, self)
        num, den, rows = flat._num, flat._den, flat._rows
        system = [
            [sum(map(mul, eq, row)) for row in rows]
            + [eq[-1] * den - sum(map(mul, eq, num))]
            for eq in eqs._equation_rows()
        ]
        space = linalg.integer_solution_space(system, len(rows))
        if space is None:
            return None
        u, scale, kernel = space
        base = _combination(u, rows, [scale * x for x in num])
        directions = [_combination(k, rows, [0] * len(num)) for k, _ in kernel]
        return AffineFlat._canonical(base, den * scale, directions)

    def span_with(self, other: "AffineFlat") -> "AffineFlat":
        self._same_ambient(other, "span")
        gap = [xb * self._den - xa * other._den
               for xa, xb in zip(self._num, other._num, strict=True)]
        return AffineFlat._canonical(self._num, self._den, [*self._rows, *other._rows, gap])

    def project(self, d: int) -> "AffineFlat":
        """Image under dropping all coordinates past the first d."""
        return AffineFlat._canonical(self._num[:d], self._den,
                                     [row[:d] for row in self._rows])


def _combination(coeffs: Sequence[int], rows, start: list[int]) -> list[int]:
    """start + sum coeffs[i] * rows[i], over ints."""
    for c, row in zip(coeffs, rows):
        if c:
            start = [x + c * y for x, y in zip(start, row)]
    return start


def joint_flat(J: Joint) -> AffineFlat:
    rows = J._rows
    return AffineFlat._canonical(rows[0], J._scale, _differences(rows))


class Prism(_Record):
    """n distinct parallel lines in R^n, in position order.

    Line l runs through base point l of a joint along one direction; both
    are kept in integer form (the joint, and an integer row over a scale).
    ``bases`` and ``direction`` give them as ``Fraction`` tuples.
    """

    __slots__ = ("_joint", "_direction", "_direction_scale")
    _FIELDS = ("bases", "direction")

    def __init__(self, bases, direction):
        self._set(Joint(bases), *linalg.integer_row(tuple(direction)))

    def _set(self, joint: Joint, direction: Sequence[int], scale: int) -> None:
        self._joint = joint
        self._direction = direction
        self._direction_scale = scale

    @classmethod
    def between(cls, J1: Joint, J2: Joint) -> "Prism":
        n = J1.n
        s1, s2 = J1._scale, J2._scale
        scale = lcm(s1, s2)
        f1, f2 = scale // s1, scale // s2
        bases = J1._rows if f1 == 1 else [[x * f1 for x in a] for a in J1._rows]
        dirs = [[y * f2 - x for x, y in zip(a, b)] for a, b in zip(bases, J2._rows)]
        if not all(any(d) for d in dirs):
            raise DegenerateSpan("coincident points give no prism line")
        first = dirs[0]
        p = next(c for c, x in enumerate(first) if x)
        lead = first[p]
        # every direction is a multiple of the first iff they have rank 1
        if any(x * lead != y * d[p] for d in dirs for x, y in zip(d, first)):
            raise DegenerateSpan("connecting lines are not parallel")
        # two lines coincide iff their bases agree once each slides along
        # the direction to coordinate p = 0 (scaled by lead)
        keys = [tuple(x * lead - a[p] * y for x, y in zip(a, first)) for a in bases]
        if len(set(keys)) != n:
            i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                        if keys[i] == keys[j])
            raise DegenerateSpan(f"prism lines {i} and {j} coincide")
        prism = object.__new__(cls)
        prism._set(J1, first, lead)
        return prism

    @property
    def bases(self) -> tuple[Vec, ...]:
        return self._joint.points

    @property
    def direction(self) -> Vec:
        scale = self._direction_scale
        return tuple(Fraction(x, scale) for x in self._direction)

    @property
    def n(self) -> int:
        return self._joint.n

    def lines(self) -> tuple[AffineFlat, ...]:
        joint, direction = self._joint, [self._direction]
        return tuple(AffineFlat._canonical(row, joint._scale, direction)
                     for row in joint._rows)


@dataclass(frozen=True)
class Polyjoint:
    """Joints whose consecutive pairs form prisms; d is the source dimension."""

    joints: tuple[Joint, ...]
    seq_labels: tuple[int, ...]
    d: int
    heights: tuple[tuple[Fraction, ...], ...]
    prisms: tuple[Prism, ...]

    @property
    def n(self) -> int:
        return self.joints[0].n

    def prism_labels(self) -> tuple[int, ...]:
        return tuple(label + 1 for label in self.seq_labels[:-1])

    def prism_at(self, h: int) -> Prism:
        for label, prism in zip(self.prism_labels(), self.prisms):
            if label == h:
                return prism
        raise KeyError(f"no prism at label {h}")

    def joint_flats(self) -> dict[int, AffineFlat]:
        return {
            label: joint_flat(J) for label, J in zip(self.seq_labels, self.joints)
        }


# ---------------------------------------------------------------------------
# A-sequences


def _variant(P):
    """(name, start, step, m) of P's map: the variant name reports carry,
    the starting polygon or pair, the map step (looked up in the module on
    each call, so a rebound step is the one run), and the label step of
    vertex-label tags, None for mirror tags."""
    if isinstance(P, AxisAligned2):
        return "planar", P.underlying, pentagram_step, 2
    if isinstance(P, AxisAlignedM):
        return "corrugated", P.underlying, corrugated_step, P.m
    pair = P.underlying if isinstance(P, AxisAlignedMirrorPair) else P
    if isinstance(pair, MirrorPair):
        name = "mirror_even" if pair.n % 2 == 0 else "mirror_odd"
        return name, pair, mp_step, None
    raise VariantMismatch(f"no variant for {type(P).__name__}")


def _lift_chain(variant: str, seqs: tuple[NPoint, ...]):
    """The sequences a lift raises and the mating that chains them to the
    stage L2.8 reads: the odd mirror lifts its first n-1 and star-mates them
    (its wraparound meet is undefined); the others use all, fully mated."""
    if variant == "mirror_odd":
        return seqs[:-1], star
    return seqs, mating


def build_A_sequences(P) -> tuple[NPoint, ...]:
    """The stage-1 tagged sequences whose matings reproduce the map orbit.

    planar        n-1 sequences over the 2n-gon's vertex labels, step 4
    corrugated    n-1 sequences over the mn-gon's labels, step m^2
    mirror_even   n-1 alternating plain/reflected sequences
    mirror_odd    all n alternating sequences (star-mating windows draw
                  cyclically consecutive blocks of n-1 of them)
    """
    variant, start, _, m = _variant(P)
    if m is not None:
        return _numeric_sequences(start.label_map(), m, P.n)
    count = start.n - 1 if variant == "mirror_even" else start.n
    return tuple(_mirror_sequence(start, j) for j in range(1, count + 1))


def _numeric_sequences(label_map, m: int, n: int) -> tuple[NPoint, ...]:
    period = len(label_map) * m
    out = []
    for j in range(n - 1):
        tags = tuple(j * m + 1 + m * m * t for t in range(n))
        points = tuple(label_map[tag % period].finite() for tag in tags)
        out.append(
            NPoint.homogeneous(points, tags, seq_label=2 * j + 1, level=1, period=period)
        )
    return tuple(out)


def _mirror_sequence(pair: MirrorPair, j: int) -> NPoint:
    n = pair.n
    tags = tuple(((j - 1 + t) % n + 1, t % 2 == 1) for t in range(n))
    points = tuple(_mirror_point(pair, tag) for tag in tags)
    return NPoint.homogeneous(points, tags, seq_label=2 * j - 1, level=1, cycle=n)


def _mirror_point(pair: MirrorPair, tag: MirrorTag) -> ProjPoint:
    idx, primed = tag
    p = pair.points[idx - 1]
    return (reflect_r(p) if primed else p).finite()


# ---------------------------------------------------------------------------
# lifting


def canonical_heights(n: int, d: int) -> tuple[tuple[Fraction, ...], ...]:
    """Positions 1..d stay at height zero; position l > d is raised by one in
    appended coordinate l-d."""
    if n < d:
        raise DimensionMismatch("lifting needs at least d positions")
    rows = []
    for l in range(n):
        if l < d:
            rows.append((Fraction(0),) * (n - d))
        else:
            rows.append(
                tuple(Fraction(1 if i == l - d else 0) for i in range(n - d))
            )
    return tuple(rows)


def random_heights(n: int, d: int, rng: SplitMix64, bound: int = 8):
    if n < d:
        raise DimensionMismatch("lifting needs at least d positions")
    return tuple(
        tuple(rng.rational(bound) for _ in range(n - d)) for _ in range(n)
    )


def parallel_lift(seqs: Sequence[NPoint], heights) -> Polyjoint:
    """Append heights row l to position l of every sequence; validate joints
    and the prism property of consecutive pairs."""
    seqs = tuple(seqs)
    if len(seqs) < 2:
        raise DimensionMismatch("a lift needs at least two sequences")
    n = seqs[0].count
    d = seqs[0].d
    if any(s.count != n or s.d != d for s in seqs):
        raise DimensionMismatch("sequences must share length and dimension")
    heights = tuple(tuple(Fraction(c) for c in row) for row in heights)
    if len(heights) != n or any(len(row) != n - d for row in heights):
        raise DimensionMismatch(f"heights must be {n} rows of {n - d} entries")
    # the heights as integer rows over one denominator
    flat, height_scale = linalg.integer_row([c for row in heights for c in row])
    lifts = [flat[l * (n - d):(l + 1) * (n - d)] for l in range(n)]
    joints = []
    for s in seqs:
        # point l is (x : w) lifted by heights row l, all over the lcm of the w's
        scale = lcm(height_scale, *(p.coords[-1] for p in s.proj))
        f = scale // height_scale
        rows = [[x * (scale // p.coords[-1]) for x in p.coords[:-1]] + [f * h for h in lift]
                for p, lift in zip(s.proj, lifts)]
        try:
            joints.append(Joint._of_ints(rows, scale))
        except NotAJoint as exc:
            raise NotAJoint(f"sequence {s.seq_label}: {exc}") from exc
    prisms = []
    for i in range(len(joints) - 1):
        try:
            prisms.append(Prism.between(joints[i], joints[i + 1]))
        except DegenerateSpan as exc:
            raise DegenerateSpan(
                f"between sequences {seqs[i].seq_label} and {seqs[i + 1].seq_label}: {exc}"
            ) from exc
    return Polyjoint(
        joints=tuple(joints),
        seq_labels=tuple(s.seq_label for s in seqs),
        d=d,
        heights=heights,
        prisms=tuple(prisms),
    )


def general_position_check(joints: Sequence[Joint]) -> bool:
    """The hyperplane normals of the joints are linearly independent."""
    joints = tuple(joints)
    if any(J.n != joints[0].n for J in joints):
        raise NotAJoint("joints live in different spaces")
    normals, rank = _normals_and_rank(joints)
    return rank == len(normals)


def _normals_and_rank(joints: Sequence[Joint]) -> tuple[tuple[Vec, ...], int]:
    """The joints' hyperplane normals and the rank of the matrix they form."""
    normals = tuple(hyperplane_normal(J) for J in joints)
    return normals, linalg.rank(normals)


@dataclass(frozen=True)
class CentroidReport:
    coincide: bool
    centroid: Vec | None
    projected: Vec | None
    expected: Vec
    matched: bool

    @property
    def ok(self) -> bool:
        return self.coincide and self.matched


def centroid_coincidence_check(pj: Polyjoint, expected: ProjPoint) -> CentroidReport:
    """All joint centroids must agree exactly and project onto the expected
    point (heights contribute identically to every centroid)."""
    centroids = [J._centroid_point() for J in pj.joints]
    coincide = all(c == centroids[0] for c in centroids)
    expected_vec = expected.affine_coords()
    if len(expected_vec) != pj.d:
        raise DimensionMismatch("expected point has the wrong dimension")
    centroid = centroids[0].affine_coords() if coincide else None
    projected = centroid[: pj.d] if coincide else None
    return CentroidReport(
        coincide=coincide,
        centroid=centroid,
        projected=projected,
        expected=expected_vec,
        matched=coincide and projected == expected_vec,
    )


# ---------------------------------------------------------------------------
# mating


_NO_SINGLE_MEET = "parallel or identical lines have no single meet"


def line_meet(p0: Vec, p1: Vec, q0: Vec, q1: Vec) -> Vec:
    """Meet of lines p0p1 and q0q1 in R^d (the lines must be coplanar)."""
    return _meet(*(ProjPoint.affine(*p) for p in (p0, p1, q0, q1))).affine_coords()


def _meet(p0: ProjPoint, p1: ProjPoint, q0: ProjPoint, q1: ProjPoint) -> ProjPoint:
    """The finite meet of lines p0p1 and q0q1 through finite points of P^d.

    ``projcore.homogeneous_meet`` classifies the lines (in P^2 it is
    (p0 x p1) x (q0 x q1)).  Skew lines raise NonCoplanarDiagonals;
    identical lines, and parallel lines (a meet with w = 0), have no single
    finite meet.
    """
    a, b, c, e = p0.coords, p1.coords, q0.coords, q1.coords
    size = len(a)
    if len(b) != size or len(c) != size or len(e) != size:
        raise ValueError("points of different dimensions")
    if a == b or c == e:
        raise DegenerateJoin("cannot join coincident points")
    meet = homogeneous_meet(a, b, c, e)
    if meet is SKEW:
        raise NonCoplanarDiagonals("lines are skew")
    if meet is IDENTICAL or not meet[-1]:
        raise DegenerateMeet(_NO_SINGLE_MEET)
    return ProjPoint(meet)


def _child_tag(X: NPoint, slot: int) -> object:
    if X.period is not None:
        L = X.count
        xa = X.tags[slot]
        xb = X.tags[(slot + 1) % L] + (X.period if slot + 1 == L else 0)
        return xa, xb
    idx, primed = X.tags[slot]
    return idx % X.cycle + 1, primed


def _mate(X: NPoint, Y: NPoint, slots: int) -> NPoint:
    if X.level != Y.level or X.d != Y.d or X.count != Y.count:
        raise DimensionMismatch("can only mate sequences of the same stage")
    if Y.seq_label != X.seq_label + 2:
        raise ValueError("mating expects sequences at adjacent ladder labels")
    if X.period != Y.period or X.cycle != Y.cycle:
        raise DimensionMismatch("mixed tag vocabularies")
    L = X.count
    xs, ys = X.proj, Y.proj
    points = []
    tags = []
    for t in range(slots):
        t1 = (t + 1) % L
        try:
            points.append(_meet(xs[t], xs[t1], ys[t], ys[t1]))
        except (DegenerateJoin, DegenerateMeet, NonCoplanarDiagonals) as exc:
            raise type(exc)(f"slot {t}: {exc}") from exc
        if X.period is not None:
            xa, xb = _child_tag(X, t)
            ya, yb = _child_tag(Y, t)
            total = xa + xb + ya + yb
            if total % 4 != 0:
                raise InconsistentTags(
                    f"slot {t}: parent labels sum to {total}, not a multiple of 4"
                )
            tags.append(total // 4)
        else:
            tags.append(_child_tag(X, t))
    return NPoint.homogeneous(
        proj=tuple(points),
        tags=tuple(tags),
        seq_label=(X.seq_label + Y.seq_label) // 2,
        level=X.level + 1,
        period=X.period,
        cycle=X.cycle,
    )


def mating(X: NPoint, Y: NPoint) -> NPoint:
    """Full mating: slot t meets chord X_t X_{t+1} with chord Y_t Y_{t+1},
    cyclically; the child's tag averages the four parent tags."""
    return _mate(X, Y, X.count)


def star(X: NPoint, Y: NPoint) -> NPoint:
    """Mating without the wraparound slot (used by the odd mirror chains,
    whose last meet is genuinely undefined)."""
    return _mate(X, Y, X.count - 1)


# ---------------------------------------------------------------------------
# orbit contexts and the mating-orbit verdict


class _OrbitContext:
    """Uniform access to map iterates for tag verification."""

    def __init__(self, P):
        self.variant, start, step, self.m = _variant(P)
        self.n = P.n
        # not projcore.orbit: the L2 claims print a degenerate step's message
        # as the step raised it, without a step number
        states = [start]
        for _ in range(self.n - 2):
            states.append(step(states[-1]))
        if self.m is None:
            self._pairs = states
            self.period = None
        else:
            self._maps = [poly.label_map() for poly in states]
            self.period = states[0].label_period

    def tag_point(self, stage: int, tag) -> ProjPoint:
        if self.period is not None:
            return self._maps[stage - 1][tag % self.period].finite()
        return _mirror_point(self._pairs[stage - 1], tag)

    def full_tag_union(self, stage: int) -> set:
        if self.period is not None:
            return set(self._maps[stage - 1].keys())
        n = self.n
        return {(i, primed) for i in range(1, n + 1) for primed in (False, True)}

    def reduce(self, tag):
        return tag % self.period if self.period is not None else tag


def _expected_tags(ctx: _OrbitContext, seq_label: int, stage: int, length: int):
    """Closed-form stage tags, double-entry against averaged propagation."""
    if ctx.period is not None:
        m = ctx.m
        j = (seq_label - stage) // 2
        start = j * m + 1 + (stage - 1) * (m * m + m) // 2
        return tuple(start + m * m * t for t in range(length))
    s = (seq_label + stage) // 2
    return tuple(((s - 1 + t) % ctx.n + 1, t % 2 == 1) for t in range(length))


@dataclass(frozen=True)
class StageCheck:
    stage: int
    tags_ok: bool
    labels_ok: bool
    union_ok: bool

    @property
    def ok(self) -> bool:
        return self.tags_ok and self.labels_ok and self.union_ok


@dataclass(frozen=True)
class WindowReport:
    window: int
    per_stage: tuple[StageCheck, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.per_stage)


@dataclass(frozen=True)
class MatingOrbitReport:
    variant: str
    stages: int
    per_stage: tuple[StageCheck, ...]
    windows: tuple[WindowReport, ...]
    cross_union_ok: tuple[bool, ...] | None

    @property
    def ok(self) -> bool:
        if not all(s.ok for s in self.per_stage):
            return False
        if not all(w.ok for w in self.windows):
            return False
        return self.cross_union_ok is None or all(self.cross_union_ok)


def _run_chain(seqs: Sequence[NPoint], op) -> list[list[NPoint]]:
    stages = [list(seqs)]
    while len(stages[-1]) > 1:
        cur = stages[-1]
        stages.append([op(cur[i], cur[i + 1]) for i in range(len(cur) - 1)])
    return stages


def _check_stage(ctx: _OrbitContext, stage_seqs: Sequence[NPoint], stage: int,
                 expect_union: bool) -> StageCheck:
    tags_ok = True
    labels_ok = True
    union: set = set()
    for s in stage_seqs:
        if s.tags != _expected_tags(ctx, s.seq_label, stage, s.count):
            labels_ok = False
        for tag, point in zip(s.tags, s.proj):
            union.add(ctx.reduce(tag))
            if point.coords != ctx.tag_point(stage, tag).coords:
                tags_ok = False
    if not expect_union:
        union_ok = True
    elif ctx.period is not None:
        n, step = ctx.n, ctx.m
        expected_size = min(n - stage, step) * n
        union_ok = len(union) == expected_size
        if n - stage >= step:
            union_ok = union_ok and union == ctx.full_tag_union(stage)
    else:
        if stage <= ctx.n - 2:
            union_ok = union == ctx.full_tag_union(stage)
        else:
            union_ok = len(union) == ctx.n
    return StageCheck(stage=stage, tags_ok=tags_ok, labels_ok=labels_ok,
                      union_ok=union_ok)


def mating_orbit_check(P, full: bool = False) -> MatingOrbitReport:
    """Chain the matings and compare every stage against the map orbit.

    Planar/corrugated/even-mirror run one full-mating chain; stage unions are
    compared against iterate vertex sets (complete sets while enough label
    classes survive, counted subsets afterwards).  Odd-mirror runs star
    chains over the windows W_1(l); l = 1 plus one deterministic second
    window by default, all n windows (with exact cross-window stage unions)
    when full is set.
    """
    ctx = _OrbitContext(P)
    return _mating_orbit(ctx, build_A_sequences(P), full)[0]


def _mating_orbit(ctx: _OrbitContext, seqs: Sequence[NPoint],
                  full: bool) -> tuple[MatingOrbitReport, NPoint]:
    """The mating-orbit report, and the final stage of the chain that L2.8
    reads: the full-mating chain, or the odd-mirror star chain of window 1
    (the first n-1 sequences)."""
    variant = ctx.variant
    n = ctx.n
    if variant != "mirror_odd":
        stages = _run_chain(seqs, mating)
        per_stage = tuple(
            _check_stage(ctx, stage_seqs, g + 1, expect_union=True)
            for g, stage_seqs in enumerate(stages)
        )
        report = MatingOrbitReport(variant, len(stages), per_stage, (), None)
        return report, stages[-1][0]

    if full:
        windows = list(range(1, n + 1))
    else:
        windows = [1, 2 + SplitMix64(n).below(n - 1)]
    window_reports = []
    unions: list[set] | None = [set() for _ in range(n - 1)] if full else None
    for l in windows:
        window = [
            NPoint.homogeneous(
                proj=seqs[(l - 1 + u) % n].proj,
                tags=seqs[(l - 1 + u) % n].tags,
                seq_label=2 * (l + u) - 1,
                level=1,
                cycle=n,
            )
            for u in range(n - 1)
        ]
        stages = _run_chain(window, star)
        if l == 1:
            final = stages[-1][0]
        checks = []
        for g, stage_seqs in enumerate(stages):
            checks.append(_check_stage(ctx, stage_seqs, g + 1, expect_union=False))
            if unions is not None:
                for s in stage_seqs:
                    unions[g].update(s.tags)
        window_reports.append(WindowReport(window=l, per_stage=tuple(checks)))
    # every stage's union over all windows covers the whole iterate, final
    # stage included (the two-point tails rotate through all indices)
    cross = None
    if unions is not None:
        cross = tuple(
            unions[g] == ctx.full_tag_union(g + 1) for g in range(n - 1)
        )
    report = MatingOrbitReport(variant, n - 1, (), tuple(window_reports), cross)
    return report, final


# ---------------------------------------------------------------------------
# skeletons, H-flats, slicing


class _Skeleton:
    """The cyclic skeleton of one prism, built level by level.

    Level k holds the n faces t_k(j), each spanning k cyclically consecutive
    prism lines.  Levels are built on first use, up to the highest one asked
    for, so a degenerate face is raised exactly when its level is needed.
    """

    def __init__(self, T: Prism):
        self.prism = T
        self._levels: list[tuple[AffineFlat, ...]] = []

    def level(self, k: int) -> tuple[AffineFlat, ...]:
        n = self.prism.n
        if not 1 <= k <= n - 1:
            raise ValueError("skeleton level must be between 1 and n-1")
        if not self._levels:
            self._levels.append(self.prism.lines())
        while len(self._levels) < k:
            level = len(self._levels) + 1
            prev = self._levels[-1]
            faces = []
            for t in range(n):
                face = prev[t].span_with(prev[(t + 1) % n])
                if face.dim != level:
                    raise DegenerateSpan(
                        f"level {level} face {t} has dimension {face.dim}"
                    )
                faces.append(face)
            self._levels.append(tuple(faces))
        return self._levels[k - 1]

    def recurrence_holds(self, k: int) -> bool:
        """t_{l-1}(j) = t_l(j-1) ^ t_l(j+1) for 2 <= l <= k, by dimension count.

        Both faces contain t_{l-1}(j), so their meet is that face iff their
        span has dimension l + 1.  Below level k the span is a level-(l+1)
        face, whose dimension ``level`` has already checked; at level k it is
        the span of k + 1 consecutive lines, one flat when k = n - 1.
        """
        # every level first: a degenerate face raises before any verdict
        top = self.level(k)
        if k == 1:
            return True
        n = self.prism.n
        spans = 1 if k == n - 1 else n
        return all(top[t].span_with(top[(t + 1) % n]).dim == k + 1
                   for t in range(spans))

    def slices(self, W: AffineFlat) -> tuple[tuple[AffineFlat, ...], tuple[str, ...]]:
        """The cuts of W with the level-j faces, j = codim W, as point flats
        in face order, and the reasons W does not slice the prism; the cuts
        are complete only when there are no reasons.  Distinctness compares
        the cuts' canonical integer forms, not ``Fraction`` points.

        Face t at level j + 1 is the span of level-j faces t and t + 1, and
        holds face t as a hyperplane.  Once those two faces cut W in distinct
        points, W cuts the span in a flat that holds both points and meets
        the hyperplane in one point: exactly the line joining the points.
        The lines are the points' ``_chords`` and ``_distinct_lines``
        compares them (``_slice_reasons``, as for a mated slice), without
        building flats.
        """
        n = self.prism.n
        if W.ambient != n:
            raise DimensionMismatch(
                f"cannot slice a prism in R^{n} by a flat in R^{W.ambient}"
            )
        j = W.codim
        if not 1 <= j <= n - 1:
            return (), (f"codimension {j} out of range",)
        self.level(min(j + 1, n - 1))  # a degenerate face raises first
        reasons = []
        points = []
        for t, face in enumerate(self.level(j)):
            cut = W.intersect(face)
            if cut is None or cut.dim != 0:
                reasons.append(f"face {t} at level {j} does not cut to a point")
                continue
            points.append(cut)
        if not reasons:
            pairs = [(p._num, p._den) for p in points]
            reasons = _slice_reasons(pairs, _chords(pairs) if j < n - 1 else None)
        return tuple(points), tuple(reasons)


def skeleton_recurrence_check(T: Prism, k: int) -> bool:
    """t_{l-1}(j) = t_l(j-1) ^ t_l(j+1) at every level l <= k, checked
    exactly: the meet holds t_{l-1}(j), so it is decided by the dimension of
    the two faces' span rather than by computing the meet."""
    return _Skeleton(T).recurrence_holds(k)


def flat_H(g: int, k: int, hyperplanes: Mapping[int, AffineFlat]) -> AffineFlat:
    """H_{g,k}: intersection of the g hyperplanes at labels k-g+1, ..., k+g-1.

    Raises NonTransverse unless the intersection has codimension exactly g,
    and MissingHyperplane, naming the labels, where ``hyperplanes`` lacks one.
    """
    if g < 1:
        raise ValueError("need g >= 1")
    labels = [k - g + 1 + 2 * i for i in range(g)]
    missing = [label for label in labels if label not in hyperplanes]
    if missing:
        raise MissingHyperplane(f"H_{g},{k}: no hyperplane at labels {missing}")
    flat = hyperplanes[labels[0]]
    for label in labels[1:]:
        nxt = flat.intersect(hyperplanes[label])
        if nxt is None:
            raise NonTransverse(f"H_{g},{k}: empty intersection at label {label}")
        flat = nxt
    if flat.codim != g:
        raise NonTransverse(
            f"H_{g},{k} has codimension {flat.codim}, expected {g}"
        )
    return flat


@dataclass(frozen=True)
class SlicesReport:
    ok: bool
    level: int
    points: tuple[Vec, ...] | None
    reasons: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def slices_check(W: AffineFlat, T: Prism) -> SlicesReport:
    """codim-j W slices T: one point per level-j face, all n distinct, and
    (below the top level) one line per level-(j+1) face, all distinct."""
    points, reasons = _Skeleton(T).slices(W)
    if reasons:
        return SlicesReport(False, W.codim, None, reasons)
    return SlicesReport(True, W.codim, tuple(p.base for p in points), ())


def slice_points(W: AffineFlat, T: Prism) -> tuple[Vec, ...]:
    """The ordered points of W ^ Sigma_j T (face order); raises if not sliced."""
    report = slices_check(W, T)
    if not report.ok:
        raise NonTransverse("; ".join(report.reasons))
    return report.points


def lemma32_check(V: AffineFlat, Vp: AffineFlat, T: Prism) -> bool:
    """(V ^ V')_T equals the positional mating of V_T and V'_T, exactly."""
    meet = V.intersect(Vp)
    if meet is None:
        raise NonTransverse("V and V' do not intersect")
    xs = slice_points(V, T)
    ys = slice_points(Vp, T)
    zs = slice_points(meet, T)
    n = len(xs)
    for t in range(n):
        mate = line_meet(xs[t], xs[(t + 1) % n], ys[t], ys[(t + 1) % n])
        if mate != zs[t]:
            return False
    return True


def _spans(T: Prism) -> bool:
    """Whether T's n lines span R^n: det[b_1-b_0, ..., b_{n-1}-b_0, direction]
    is not zero.  Then every window of at most n-1 lines spans a face of
    full dimension, so ``recurrence_holds(n-1)`` is True; with a zero
    determinant it is False or a face raises ``DegenerateSpan``."""
    return linalg.integer_det([*_differences(T._joint._rows), T._direction]) != 0


def _chords(points) -> list[tuple] | None:
    """(A, a, U, i) per slot t: point t is A / a, U is the primitive
    direction of the chord to point t+1, a tuple whose first nonzero entry
    U[i] is positive.  None where two consecutive points coincide."""
    n = len(points)
    chords = []
    for t, (A, a) in enumerate(points):
        B, b = points[(t + 1) % n]
        U = [a * y - b * x for x, y in zip(A, B)]
        i = next((i for i, x in enumerate(U) if x), None)
        if i is None:
            return None
        g = gcd(*U)
        if U[i] < 0:
            g = -g
        chords.append((A, a, tuple(U) if g == 1 else tuple([x // g for x in U]), i))
    return chords


def _distinct_lines(chords: Sequence[tuple]) -> bool:
    """Whether the lines of ``_chords`` are pairwise distinct.  Lines of
    different directions are; a line equals an earlier one of its direction
    exactly when its point lies on that line."""
    earlier: dict[tuple, list] = {}
    for A, a, U, i in chords:
        same = earlier.setdefault(U, [])
        for C, c in same:
            # the gap a C - c A is a multiple of U
            gap = [a * z - c * x for x, z in zip(A, C)]
            gi, ui = gap[i], U[i]
            if all(gi * u == ui * x for u, x in zip(U, gap)):
                return False
        same.append((A, a))
    return True


def _slice_reasons(points, chords) -> list[str]:
    """Why a slice whose every face cut is a point (``_reduced`` pairs, in
    face order) fails: repeated points, or, given its ``chords`` (below the
    top level), repeated lines."""
    if len(set(points)) != len(points):
        return ["slice points are not pairwise distinct"]
    if chords is not None and not _distinct_lines(chords):
        return ["slice lines are not pairwise distinct"]
    return []


def _chord_meet(p: tuple, q: tuple) -> tuple[tuple[int, ...], int] | None:
    """The single finite meet of chords p and q, by two 2x2 minors and a
    check of every coordinate; None for parallel, identical or skew chords."""
    A, a, U, i = p
    C, c, W, _ = q
    ui, wi = U[i], W[i]
    for j, (u, w) in enumerate(zip(U, W)):
        minor = ui * w - u * wi
        if minor:
            break
    else:
        return None
    # A/a + s U = C/c + t W in coordinates i and j, with s = lam / (minor a c)
    # and t = mu / (minor a c); then every coordinate must agree
    ri, rj = a * C[i] - c * A[i], a * C[j] - c * A[j]
    lam = ri * W[j] - wi * rj
    mu = ri * U[j] - ui * rj
    ca, cc = minor * a, minor * c
    num = [cc * x + lam * u for x, u in zip(A, U)]
    if num != [ca * z + mu * w for z, w in zip(C, W)]:
        return None
    return _reduced(num, cc * a)


def _mates(ps: list[tuple] | None, qs: list[tuple] | None) -> list[tuple] | None:
    """The slice whose point t is the meet of chords t of two parent slices,
    or None where a parent is missing or a meet is not one finite point."""
    if ps is None or qs is None:
        return None
    points = [_chord_meet(p, q) for p, q in zip(ps, qs)]
    return None if None in points else points


def _hyperplane_cuts(pj: Polyjoint, normals: Sequence[Vec], spans: Sequence[bool]):
    """{(k, h): points}: the cut of each joint hyperplane |J_k| with the
    lines of each prism h whose lines span R^n (``spans``) and that is not
    parallel to it."""
    level = {}
    labels = pj.prism_labels()
    for k, J, normal in zip(pj.seq_labels, pj.joints, normals):
        # |J| = {x : N . x = c / s}; line l of a prism is row_l / scale + sigma v
        N = linalg.integer_row(normal)[0]
        c, s = sum(map(mul, N, J._rows[0])), J._scale
        for h, T, spanning in zip(labels, pj.prisms, spans):
            rows, scale, v = T._joint._rows, T._joint._scale, T._direction
            nv = sum(map(mul, N, v))
            if not spanning or not nv:
                continue
            den, f = scale * s * nv, s * nv
            points = []
            for row in rows:
                # sigma = step / (s scale nv) puts the point on |J|
                step = c * scale - s * sum(map(mul, N, row))
                points.append(_reduced([f * x + step * y for x, y in zip(row, v)], den))
            level[k, h] = points
    return level


def _line_through(points) -> AffineFlat | None:
    """The line joining a slice's first point and the first point that
    differs from it; None if all its points coincide."""
    A, a = points[0]
    for B, b in points:
        if (B, b) != (A, a):
            return AffineFlat._canonical(A, a, [[y * a - x * b for x, y in zip(A, B)]])
    return None


def _slicing_pass(pj: Polyjoint, normals: Sequence[Vec], spans: Sequence[bool]):
    """Slice every H_{g,k} by every prism, level by level, in (g, k, h) order.

    Returns the (ok, failures) verdicts of L2.5 (the prisms with |h-k| <= 1)
    and L2.6 (every prism with |h-k| <= g sliced, and slice sets that differ
    between prisms), and L2.8's line H_{n-1,n-1}, or None where no slice of
    it shows the line.  ``normals`` are the joints' hyperplane normals and
    ``spans`` tells, per prism, whether its lines span R^n (``_spans``).

    A slice by a prism whose lines span R^n is mated (Lemma 3.2).  Level 1
    cuts each joint hyperplane with each prism line.  Above it, H_{g,k} is
    H_{g-1,k-1} ^ H_{g-1,k+1}: once a parent's points t and t+1 differ, the
    parent meets level-g face t, which holds its faces t and t+1 as
    hyperplanes, in the line through them.  So where the two parents'
    lines (``_chords``) meet in one finite point, that point is the cut,
    and it shows that H_{g,k} has codimension g.  Every cut of a mated
    slice is a point, so ``_slice_reasons`` gives the reasons
    ``_Skeleton.slices`` would.  Every other slice in reach (|h-k| <= g)
    is cut by ``_Skeleton.slices`` from ``flat_H(g, k)``, built for the
    first such slice; where H_{g,k} is not transverse no slice mates, and
    its ``NonTransverse`` is the one reason of H_{g,k}.  The cuts of a
    spanning prism parent the next level as mates do; out of reach, a slice
    that does not mate is left out.  A prism that does not span is cut in
    every slice in reach, so a degenerate skeleton face raises
    ``DegenerateSpan`` where it is sliced.
    """
    n = pj.n
    prisms = pj.prism_labels()
    skeletons = dict(zip(prisms, map(_Skeleton, pj.prisms)))
    spanning = dict(zip(prisms, spans))
    hyperplanes = W = None
    level = _hyperplane_cuts(pj, normals, spans)
    sliced: list[str] = []
    indep: list[str] = []
    for g in range(1, n):
        ks = range(g, 2 * (n - 1) - g + 1, 2)
        if g > 1:
            level = {(k, h): _mates(chords.get((k - 1, h)), chords.get((k + 1, h)))
                     for k in ks for h in prisms}
        chords = {}
        for k in ks:
            W = seen = None
            for h in prisms:
                points, reasons = level.get((k, h)), None
                reach = abs(h - k) <= g
                if reach and points is None:
                    if W is None:
                        hyperplanes = hyperplanes or pj.joint_flats()
                        try:
                            W = flat_H(g, k, hyperplanes)
                        except NonTransverse as exc:
                            sliced.append(f"H({g},{k}): {exc}")
                            indep.append(sliced[-1])
                            break
                    cuts, reasons = skeletons[h].slices(W)
                    if len(cuts) == n:
                        points = [(p._num, p._den) for p in cuts]
                if points is not None and g < n - 1 and spanning[h]:
                    chords[k, h] = _chords(points)
                if not reach:
                    continue
                if reasons is None:
                    reasons = _slice_reasons(points, chords.get((k, h)))
                if reasons:
                    indep.append(f"H({g},{k}) vs prism {h}: " + "; ".join(reasons))
                    if abs(h - k) <= 1:
                        sliced.append(indep[-1])
                elif seen is None:
                    seen = set(points)
                elif set(points) != seen:
                    indep.append(f"H({g},{k}): prism {h} slice set differs")
    # W is H_{n-1,n-1} if the pass built it; if not, every slice of it mated,
    # or none did (it is not transverse)
    line = W
    if W is None:
        line = next(filter(None, map(_line_through, filter(None, level.values()))), None)
    return (not sliced, tuple(sliced)), (not indep, tuple(indep)), line


def fully_sliced_check(pj: Polyjoint) -> tuple[bool, tuple[str, ...]]:
    """slices_check for every H_{g,k} against every prism with |h-k| <= 1.

    It runs the pass of ``prism_independence_check`` and keeps the adjacent
    prisms' failures, so a degenerate skeleton face of any prism within
    |h-k| <= g raises ``DegenerateSpan`` here too.
    """
    return _checked_pass(pj)[0]


def prism_independence_check(pj: Polyjoint) -> tuple[bool, tuple[str, ...]]:
    """H_{g,k} ^ Sigma_g T_h yields one point set for every prism h with
    |h-k| <= g; the same pass decides ``fully_sliced_check``."""
    return _checked_pass(pj)[1]


def _checked_pass(pj: Polyjoint):
    """``_slicing_pass`` on pj's own normals and spanning tests."""
    return _slicing_pass(pj, [hyperplane_normal(J) for J in pj.joints],
                         [_spans(T) for T in pj.prisms])


# ---------------------------------------------------------------------------
# collapse line and the full report


def expected_projected_centroid(P) -> ProjPoint:
    """The vertex mean of a labelled polygon, or a canonical pair's
    collapse point: where the joint centroids must project."""
    _, start, _, m = _variant(P)
    if m is not None:
        return affine_mean(start.vertices)
    if not isinstance(P, AxisAlignedMirrorPair):
        raise VariantMismatch("mirror centroid prediction needs a canonical pair")
    return P.collapse_point()


@dataclass(frozen=True)
class CollapseLineReport:
    line: AffineFlat
    projected: AffineFlat
    final_points: tuple[Vec, ...]
    points_on_line: bool
    centroid_on_line: bool

    @property
    def ok(self) -> bool:
        return self.points_on_line and self.centroid_on_line


def collapse_line_check(P, pj: Polyjoint) -> CollapseLineReport:
    """pi(H_{n-1,n-1}) must contain the final mating points and the centroid.

    This is the computational content of the collapse theorems on one
    instance: the last mating stage is trapped on the projected line through
    the center of mass.  pj must lift P's own sequences, or
    ``VariantMismatch`` names the first sequence it does not lift.
    """
    seqs, op = _lift_chain(_variant(P)[0], build_A_sequences(P))
    for label, J, s in zip_longest(pj.seq_labels, pj.joints, seqs):
        if s is None or label != s.seq_label or not _lifts(J, s, pj.d):
            name = label if s is None else s.seq_label
            raise VariantMismatch(f"the polyjoint does not lift sequence {name}")
    line = flat_H(pj.n - 1, pj.n - 1, pj.joint_flats())
    final = _run_chain(seqs, op)[-1][0]
    return _collapse_line(pj, line, final, expected_projected_centroid(P))


def _lifts(J: Joint, s: NPoint, d: int) -> bool:
    """Whether J's points, cut to their first d coordinates, are s's points."""
    return J.n == s.count and all(
        ProjPoint((*row[:d], J._scale)) == p for p, row in zip(s.proj, J._rows))


def _collapse_line(pj: Polyjoint, line: AffineFlat, final: NPoint,
                   expected: ProjPoint) -> CollapseLineReport:
    projected = line.project(pj.d)
    points_on = all(projected._holds_point(p) for p in final.proj)
    centroid_on = projected._holds_point(expected.finite())
    return CollapseLineReport(
        line=line,
        projected=projected,
        final_points=final.points,
        points_on_line=points_on,
        centroid_on_line=centroid_on,
    )


@dataclass(frozen=True)
class LiftCheck:
    check_id: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class LiftReport:
    variant: str
    n: int
    d: int
    heights: tuple[tuple[Fraction, ...], ...]
    used_canonical: bool
    normals: tuple[Vec, ...]
    normal_rank: int
    checks: tuple[LiftCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


_HEIGHT_RETRIES = 8


def lift_report(P, seed: int = 0, full: bool = False) -> LiftReport:
    """Run the whole lifting battery on one instance.

    The canonical L0 heights are tried first; if the lift degenerates or
    fails general position, seeded random heights are retried up to
    ``_HEIGHT_RETRIES`` times, and the heights actually used are reported.
    L2.4 is ``_spans`` of each prism, or its recurrence where that is
    False; L2.5, L2.6 and L2.8's line come from ``_slicing_pass``.
    """
    variant = _variant(P)[0]
    seqs = build_A_sequences(P)
    expected = expected_projected_centroid(P)
    lift_seqs = _lift_chain(variant, seqs)[0]
    n = lift_seqs[0].count
    d = lift_seqs[0].d
    rng = SplitMix64(seed)
    pj = None
    used_canonical = True
    construction_error = ""
    for attempt in range(_HEIGHT_RETRIES + 1):
        heights = (
            canonical_heights(n, d) if attempt == 0 else random_heights(n, d, rng)
        )
        try:
            candidate = parallel_lift(lift_seqs, heights)
        except (NotAJoint, DegenerateSpan) as exc:
            construction_error = str(exc)
            continue
        normals, normal_rank = _normals_and_rank(candidate.joints)
        general = normal_rank == len(normals)
        if general:
            pj = candidate
            used_canonical = attempt == 0
            break
        construction_error = "hyperplanes not in general position"
    if pj is None:
        raise NotAJoint(
            f"no usable lift within {_HEIGHT_RETRIES + 1} attempts: {construction_error}"
        )

    checks = [
        LiftCheck("L2.1", True, "joints and prisms constructed"),
        LiftCheck("L2.2", general, f"normal rank {normal_rank} of {len(normals)}"),
    ]

    centroid = centroid_coincidence_check(pj, expected)
    checks.append(
        LiftCheck(
            "L2.3",
            centroid.ok,
            "joint centroids coincide and project to the predicted point"
            if centroid.ok
            else "centroid coincidence failed",
        )
    )

    # the mating chain first: after L2.2 nothing L2.4-L2.6 compute can raise,
    # so a degenerate mate raises before any slicing work, as it would after
    orbit, final = _mating_orbit(_OrbitContext(P), seqs, full)
    spans = [_spans(T) for T in pj.prisms]
    recurrence_ok = all(spanning or _Skeleton(T).recurrence_holds(n - 1)
                        for spanning, T in zip(spans, pj.prisms))
    (sliced_ok, sliced_failures), (indep_ok, indep_failures), line = (
        _slicing_pass(pj, normals, spans))
    checks.append(
        LiftCheck("L2.4", recurrence_ok, "skeleton intersection recurrence")
    )
    checks.append(
        LiftCheck(
            "L2.5", sliced_ok,
            "fully sliced" if sliced_ok else "; ".join(sliced_failures[:4]),
        )
    )

    checks.append(
        LiftCheck(
            "L2.6", indep_ok,
            "slice sets prism-independent" if indep_ok
            else "; ".join(indep_failures[:4]),
        )
    )

    checks.append(
        LiftCheck("L2.7", orbit.ok, "mating chain matches the map orbit")
    )

    if line is None:  # raises the NonTransverse the pass recorded
        line = flat_H(n - 1, n - 1, pj.joint_flats())
    collapse = _collapse_line(pj, line, final, expected)
    checks.append(
        LiftCheck(
            "L2.8", collapse.ok,
            "collapse line carries final mating points and centroid",
        )
    )

    return LiftReport(
        variant=variant,
        n=pj.n,
        d=pj.d,
        heights=pj.heights,
        used_canonical=used_canonical,
        normals=normals,
        normal_rank=normal_rank,
        checks=tuple(checks),
    )
