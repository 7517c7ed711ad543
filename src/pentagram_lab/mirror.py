"""The mirror pentagram map MP on point tuples of the projective plane.

A mirror pair is a tuple (X_1, ..., X_n) avoiding the horizontal axis l_0,
considered together with its reflection X'_i = r(X_i) across l_0.  One MP
step intersects cross joins:

    Q_i = (X_i X'_{i+1}) ^ (X_{i-1} X'_i)        (indices cyclic)

MP commutes with r, and is birational with inverse

    X_i = (Q_i Q_{i+1}) ^ (Q'_{i-1} Q'_i).

Canonical axis-aligned pairs live on the line y = -1.  Projecting vertically
to the x-axis intertwines MP with the lower map T_1 on pairs of n-tuples:
T_1^k applied to (p(MP^{-1} P), p(P)) equals (p(MP^{k-1} P), p(MP^k P)).
Canonical pairs collapse after n-1 steps to (C, 0) for even n and to
(C, -1/n) for odd n, where C is the mean of the x-coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegeneracyError,
    DegenerateJoin,
    InfiniteVertex,
    NotAxisAligned,
)
from .projcore import (
    ProjPoint,
    affine_mean,
    meet_consecutive_chords,
    orbit,
    point_coords,
    project_vertical,
    reflect_r,
)
from .rng import SplitMix64


@dataclass(frozen=True)
class MirrorPair:
    """n plane points off the horizontal axis, paired with their reflections."""

    points: tuple[ProjPoint, ...]

    @classmethod
    def of(cls, points) -> "MirrorPair":
        points = tuple(points)
        if len(points) < 3:
            raise ValueError("need at least 3 points")
        for i, p in enumerate(points):
            if p.dim != 2:
                raise ValueError("entries must be points of the projective plane")
            if p.coords[1] == 0:
                raise DegenerateJoin(f"point {i + 1} lies on the mirror axis")
        return cls(points)

    @property
    def n(self) -> int:
        return len(self.points)

    def reflected(self) -> tuple[ProjPoint, ...]:
        return tuple(reflect_r(p) for p in self.points)


def _reflected(coords):
    """The int triples (x, -y, w) of the reflections of plane points."""
    return [(x, -y, w) for x, y, w in coords]


def mp_step(pair: MirrorPair) -> MirrorPair:
    """Q_i = (X_i X'_{i+1}) ^ (X_{i-1} X'_i)."""
    X = point_coords(pair.points, 2)
    R = _reflected(X)
    # the right join X_{i-1} X'_i of output i is the left join of output i-1
    out = meet_consecutive_chords(X, R[1:] + R[:1], lambda i: f"output index {i + 1}")
    return MirrorPair(tuple(out))


def mp_inverse(pair: MirrorPair) -> MirrorPair:
    """X_i = (Q_i Q_{i+1}) ^ (Q'_{i-1} Q'_i)."""
    Q = point_coords(pair.points, 2)
    R = _reflected(Q)
    out = meet_consecutive_chords(
        Q, Q[1:] + Q[:1], lambda i: f"output index {i + 1}", R, R[1:] + R[:1]
    )
    return MirrorPair(tuple(out))


@dataclass(frozen=True)
class AxisAlignedMirrorPair:
    """A mirror pair in canonical position: every point finite with y = -1."""

    underlying: MirrorPair

    @classmethod
    def canonicalize(cls, pair: MirrorPair) -> "AxisAlignedMirrorPair":
        """Rescale the y-axis to put a constant-height pair at y = -1.

        The rescaling (x, y) -> (x, -y/c) commutes with the reflection and
        with MP, and leaves x-coordinates (hence vertical projections) alone.
        """
        heights = set()
        for i, p in enumerate(pair.points):
            if not p.is_finite:
                raise InfiniteVertex(f"point {i + 1} is at infinity")
            heights.add(p.affine_coords()[1])
        if len(heights) != 1:
            raise NotAxisAligned("points do not share a common height")
        c = heights.pop()
        if c == 0:
            raise NotAxisAligned("common height must be nonzero")
        scaled = tuple(
            ProjPoint.affine(p.affine_coords()[0], -p.affine_coords()[1] / c)
            for p in pair.points
        )
        return cls(MirrorPair.of(scaled))

    @classmethod
    def from_values(cls, values) -> "AxisAlignedMirrorPair":
        points = tuple(ProjPoint.affine(v, -1) for v in values)
        return cls(MirrorPair.of(points))

    @property
    def n(self) -> int:
        return self.underlying.n

    def x_values(self) -> tuple[Fraction, ...]:
        return tuple(p.affine_coords()[0] for p in self.underlying.points)

    def collapse_point(self) -> ProjPoint:
        """Where n-1 MP steps collapse the pair: (C, 0) for even n and
        (C, -1/n) for odd n, where C is the mean x-coordinate."""
        n = self.n
        C = affine_mean(self.underlying.points).affine_coords()[0]
        return ProjPoint.affine(C, Fraction(0) if n % 2 == 0 else Fraction(-1, n))


def lift_from_p1(B) -> AxisAlignedMirrorPair:
    """Place finite projective-line points at height -1."""
    B = tuple(B)
    for i, b in enumerate(B):
        if b.dim != 1:
            raise ValueError("entries must be points of the projective line")
        if not b.is_finite:
            raise InfiniteVertex(f"entry {i + 1} is the point at infinity")
    return AxisAlignedMirrorPair.from_values(b.p1_value() for b in B)


def project(pair: MirrorPair) -> tuple[ProjPoint, ...]:
    """Vertical projection p = (X : W) of every point."""
    return tuple(project_vertical(p) for p in pair.points)


@dataclass(frozen=True)
class T007Report:
    steps_taken: int
    collapse_points: tuple[ProjPoint, ...]
    all_equal: bool
    expected: ProjPoint
    matched: bool
    roundtrips: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return self.all_equal and self.matched and all(self.roundtrips)


def verify_T007(pair: AxisAlignedMirrorPair) -> T007Report:
    """Collapse of a canonical pair in n-1 MP steps, with inverse round trips.

    The expected limit is ``pair.collapse_point()``.  mp_inverse is checked
    against every state the orbit passes through except the collapsed one,
    which has no inverse.
    """
    n = pair.n
    states = orbit(pair.underlying, mp_step, n - 1)
    final = states[-1]
    all_equal = len(set(final.points)) == 1
    expected = pair.collapse_point()
    matched = all_equal and final.points[0] == expected
    roundtrips = tuple(
        mp_inverse(states[j]).points == states[j - 1].points for j in range(1, n - 1)
    )
    return T007Report(
        steps_taken=n - 1,
        collapse_points=final.points,
        all_equal=all_equal,
        expected=expected,
        matched=matched,
        roundtrips=roundtrips,
    )


@dataclass(frozen=True)
class CorrespondenceReport:
    steps_taken: int
    per_step: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return all(self.per_step)


def verify_correspondence(pair: MirrorPair, k: int) -> CorrespondenceReport:
    """Check T_1^j (p(MP^{-1} P), p(P)) == (p(MP^{j-1} P), p(MP^j P)) for j <= k."""
    from .lower1d import PairState1D, t1_step

    if k < 1:
        raise ValueError("need k >= 1")
    behind = project(mp_inverse(pair))
    # p(previous), or None where the last step did not project it
    shadow = project(pair)
    state = PairState1D.of(behind, shadow)
    previous = pair
    per_step = []
    for j in range(1, k + 1):
        try:
            current = mp_step(previous)
            state = t1_step(state)
        except DegeneracyError as exc:
            raise type(exc)(f"step {j}: {exc}") from exc
        if shadow is None:
            shadow = project(previous)
        if state.X == shadow:
            shadow = project(current)
            per_step.append(state.Y == shadow)
        else:
            shadow = None
            per_step.append(False)
        previous = current
    return CorrespondenceReport(steps_taken=k, per_step=tuple(per_step))


def random_mirror_pair(n: int, seed: int, bound: int = 10) -> MirrorPair:
    """Seeded generic pair: random x, random nonzero y per point."""
    if n < 3:
        raise ValueError("need n >= 3")
    rng = SplitMix64(seed)
    points = tuple(
        ProjPoint.affine(rng.rational(bound), rng.nonzero_rational(bound))
        for _ in range(n)
    )
    return MirrorPair.of(points)


def random_axis_aligned_mirror(n: int, seed: int, bound: int = 10) -> AxisAlignedMirrorPair:
    """Seeded canonical pair: n distinct x-values at height -1."""
    if n < 3:
        raise ValueError("need n >= 3")
    rng = SplitMix64(seed)
    return AxisAlignedMirrorPair.from_values(rng.distinct_rationals(n, bound))
