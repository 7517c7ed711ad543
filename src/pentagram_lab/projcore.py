"""Exact projective kernel.

Points and lines carry canonical homogeneous coordinates: denominators are
cleared, the gcd is divided out, and the leading nonzero entry is made
positive.  Two points are equal exactly when their canonical tuples are equal,
so all downstream identity checks (collapse detection, orbit comparisons) are
structural.

The kernel is integer-native.  Joins, meets, harmonic solves and maps
produce integer coordinates, and integer input is taken as it is.  The
``Fraction`` boundary sits at the constructors: a ``ProjPoint`` or
``ProjLine2`` built from rationals has its denominators cleared there, once,
on the generic path that any input other than an int tuple takes, by
``linalg.integer_row`` (which ``ProjPoint.affine`` and ``ProjPoint.p1``
call first, so they reach the constructor as int tuples); it reads int and
``Fraction`` entries through their numerators and denominators.  Text is
parsed in ``serde``.  Past the constructors, joins, meets, harmonic
solves and reflections read the int coordinates, form the result entries
inline, and hand an int tuple to the constructor, which divides out the
content with one ``gcd`` and no ``Fraction``.  The planar and mirror map
steps meet their chords in ``meet_consecutive_chords`` on int triples, and
a chord, which is only ever met, is divided by its gcd but never built as
a ``ProjLine2``; each output point is built once.  Lines of P^m meet in
``homogeneous_meet``, by 3x3 minors and no elimination, ``affine_mean``
averages over the lcm of the homogenizing coordinates, and the printed forms
(``format_p1``, ``format_ratio``) are read from the canonical ints.  Only
the affine, P^1 and cross-ratio read-outs return ``Fraction`` values;
``is_harmonic4`` and ``is_harmonic6`` decide a cross ratio of -1 on its
integer numerator and denominator, and projective maps invert through an
integer adjugate.

Every printed integer goes through ``int_text``, which writes a value past
Python's int-to-string digit limit in chunks under the limit, so an exact
value is never unprintable.

The raw entries of a join, meet or harmonic solve share a large common
factor, and the content division is where the kernel spends its time.
``solve_harmonic6`` and ``lower1d.t1_step`` do not divide their
determinant pairs by their gcds before multiplying them.  In long T_1
orbits that would remove about 40% of the raw bits, but on orbits whose
coordinates stay below about a thousand bits the extra gcds cost more than
the shorter final gcd saves.  The T002 and T008 verifiers take no gcd along
their orbits: ``pentagram2d.collapse_orbit`` and ``lower1d.verify_T008``
run the maps' tau-function recurrences, which divide by factors known in
advance, and canonicalize only the states their reports read.

Cross ratios on the projective line are computed from 2x2 determinants
``[a, b] = a_x * b_w - a_w * b_x`` so the point at infinity ``(1 : 0)`` needs
no special casing anywhere.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from . import linalg
from .errors import (
    DegeneracyError,
    DegenerateJoin,
    DegenerateMeet,
    DimensionMismatch,
    IndeterminateCrossRatio,
    InfiniteVertex,
    NonCoplanarDiagonals,
    UndefinedProjection,
    ZeroDenominator,
)


class Infinity:
    """Cross-ratio value at infinity (the affine value of the point (1 : 0))."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = Infinity()


def int_text(value: int) -> str:
    """``str(value)``, also past Python's int-to-string digit limit.

    A value with more digits than ``sys.get_int_max_str_digits()`` allows is
    written in chunks of fewer digits than the limit, split off by powers of
    ten, so an exact result is printed whatever its size."""
    try:
        return str(value)
    except ValueError:
        pass
    width = sys.get_int_max_str_digits() - 1
    base = 10**width
    sign = "-" if value < 0 else ""
    value = abs(value)
    chunks = []
    while value >= base:
        value, low = divmod(value, base)
        chunks.append(str(low).zfill(width))
    chunks.append(str(value))
    return sign + "".join(reversed(chunks))


def format_ratio(num: int, den: int) -> str:
    """The rational num/den, den != 0, in lowest terms: "n" or "n/d" with d > 0."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    num //= g
    den //= g
    if den == 1:
        return int_text(num)
    return f"{int_text(num)}/{int_text(den)}"


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    return format_ratio(value.numerator, value.denominator)


def format_p1(point: ProjPoint) -> str:
    """A point of the projective line as its rational value, or "inf"."""
    coords = point.coords
    if len(coords) != 2:
        raise DimensionMismatch("p1_value needs a point of the projective line")
    if coords[1] == 0:
        return "inf"
    return format_ratio(*coords)


def as_fraction(value) -> Fraction:
    """``Fraction(value)``, reusing ``value`` when it already is one."""
    return value if type(value) is Fraction else Fraction(value)


def _canonical_ints(values: Iterable[int | Fraction]) -> tuple[int, ...]:
    """The primitive integer tuple of ``values`` with first nonzero entry > 0.

    An int tuple of any length, the form every kernel result takes, is
    reduced directly with one ``gcd`` (2- and 3-tuples written out); any
    other iterable, or a tuple holding a ``Fraction``, a ``bool`` or an int
    subclass, is cleared of its denominators by ``linalg.integer_row``
    first.
    """
    if type(values) is not tuple:
        values = linalg.integer_row(tuple(values))[0]
    else:
        size = len(values)
        if size == 3:
            x, y, z = values
            if type(x) is int and type(y) is int and type(z) is int:
                g = gcd(x, y, z)
                if x < 0 or not x and (y < 0 or not y and z < 0):
                    g = -g
                if g == 1:
                    return values
                if g == 0:
                    raise ValueError("homogeneous coordinates must not all vanish")
                return (x // g, y // g, z // g)
        elif size == 2:
            x, y = values
            if type(x) is int and type(y) is int:
                g = gcd(x, y)
                if x < 0 or not x and y < 0:
                    g = -g
                if g == 1:
                    return values
                if g == 0:
                    raise ValueError("homogeneous coordinates must not all vanish")
                return (x // g, y // g)
        for v in values:
            if type(v) is not int:
                values = linalg.integer_row(values)[0]
                break
    g = gcd(*values)
    if g == 0:
        raise ValueError("homogeneous coordinates must not all vanish")
    for v in values:
        if v:
            break
    if v < 0:
        g = -g
    if g == 1:
        return values
    return tuple([v // g for v in values])


class ProjPoint:
    """A projective point in canonical integer homogeneous coordinates.

    ``coords`` has dim+1 entries; the last one is the homogenizing coordinate,
    so an affine point (x_1, ..., x_d) is stored as (x_1 : ... : x_d : 1) after
    clearing denominators.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int | Fraction]):
        self.coords = _canonical_ints(coords)

    @classmethod
    def affine(cls, *xs: int | Fraction) -> "ProjPoint":
        """The point (x_1 : ... : x_d : 1), put over the lcm of the
        denominators as an int tuple before it is canonicalized."""
        return cls(linalg.integer_row((*xs, 1))[0])

    @classmethod
    def p1(cls, value) -> "ProjPoint":
        """Point of the projective line from a rational value or INF."""
        if isinstance(value, Infinity):
            return cls((1, 0))
        return cls(linalg.integer_row((value, 1))[0])

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    @property
    def is_finite(self) -> bool:
        return self.coords[-1] != 0

    def finite(self) -> "ProjPoint":
        """The point itself; a point at infinity has no affine coordinates
        and raises ``InfiniteVertex``."""
        if not self.coords[-1]:
            raise InfiniteVertex(f"{self} has no affine coordinates")
        return self

    def affine_coords(self) -> tuple[Fraction, ...]:
        w = self.finite().coords[-1]
        return tuple(Fraction(c, w) for c in self.coords[:-1])

    def p1_value(self):
        """Affine value of a point on the projective line, or INF."""
        if self.dim != 1:
            raise DimensionMismatch("p1_value needs a point of the projective line")
        if self.coords[1] == 0:
            return INF
        return Fraction(self.coords[0], self.coords[1])

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __hash__(self):
        return hash(("ProjPoint", self.coords))

    def __repr__(self):
        return "(" + " : ".join(int_text(c) for c in self.coords) + ")"


P1_INFINITY = ProjPoint((1, 0))


def affine_mean(points: Sequence[ProjPoint]) -> ProjPoint:
    """Coordinatewise mean of finite points: their center of mass.

    Each point (c : w) is scaled to the lcm L of the w's, so the mean is the
    integer point (sum of c * L / w : k * L) for k points."""
    scale = lcm(*(p.finite().coords[-1] for p in points))
    sums = [0] * len(points[0].coords)
    for p in points:
        factor = scale // p.coords[-1]
        for i, c in enumerate(p.coords):
            sums[i] += c * factor
    sums[-1] = len(points) * scale
    return ProjPoint(tuple(sums))


class ProjLine2:
    """A line of the projective plane in canonical coefficients (a : b : c)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int | Fraction]):
        coeffs = tuple(coeffs)
        if len(coeffs) != 3:
            raise DimensionMismatch("a plane line has three coefficients")
        self.coeffs = _canonical_ints(coeffs)

    def incident(self, p: ProjPoint) -> bool:
        if p.dim != 2:
            raise DimensionMismatch("incidence is defined for plane points")
        return sum(a * x for a, x in zip(self.coeffs, p.coords)) == 0

    def __eq__(self, other):
        return isinstance(other, ProjLine2) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("ProjLine2", self.coeffs))

    def __repr__(self):
        return "[" + " : ".join(int_text(c) for c in self.coeffs) + "]"


def _need_dim(d: int, *points: ProjPoint):
    for p in points:
        if p.dim != d:
            raise DimensionMismatch(f"expected a point of P^{d}, got {p!r}")


def point_coords(points: Sequence[ProjPoint], d: int) -> list[tuple[int, ...]]:
    """The canonical int coordinate tuples of points of P^d; a point of
    another space raises DimensionMismatch."""
    coords = [p.coords for p in points]
    for c in coords:
        if len(c) != d + 1:
            _need_dim(d, *points)
    return coords


def _chord(p: Sequence[int], q: Sequence[int]) -> tuple[int, int, int]:
    """The line through plane points p and q (int triples) as their cross
    product divided by its gcd, with no sign fix.  Points that are one
    projective point raise DegenerateJoin."""
    p0, p1, p2 = p
    q0, q1, q2 = q
    a = p1 * q2 - p2 * q1
    b = p2 * q0 - p0 * q2
    c = p0 * q1 - p1 * q0
    g = gcd(a, b, c)
    if g == 1:
        return a, b, c
    if g == 0:
        raise DegenerateJoin(f"join of coincident points {ProjPoint(p)!r}")
    return a // g, b // g, c // g


def join_points(a: ProjPoint, b: ProjPoint) -> ProjLine2:
    """Line through two distinct points of the projective plane."""
    u, v = a.coords, b.coords
    if len(u) != 3 or len(v) != 3:
        _need_dim(2, a, b)
    return ProjLine2(_chord(u, v))


def meet_lines(l1: ProjLine2, l2: ProjLine2) -> ProjPoint:
    """Intersection point of two distinct plane lines."""
    u, v = l1.coeffs, l2.coeffs
    if u == v:
        raise DegenerateMeet(f"meet of identical lines {l1!r}")
    u0, u1, u2 = u
    v0, v1, v2 = v
    return ProjPoint((u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0))


def meet_consecutive_chords(P: Sequence[Sequence[int]], Q: Sequence[Sequence[int]],
                            where: Callable[[int], str],
                            R: Sequence[Sequence[int]] | None = None,
                            S: Sequence[Sequence[int]] | None = None) -> list[ProjPoint]:
    """[(P[t] v Q[t]) ^ (R[t - 1] v S[t - 1]) for t in range(k)], indices
    mod k, on int coordinate triples of plane points.  R and S default to P
    and Q: then each meet is of two consecutive chords of one family.

    A chord is the cross product of its points divided by its gcd, with no
    sign fix and no ``ProjLine2``; it is built once, in the order the meets
    first need it (chord t, then chord t - 1 unless it is already built).
    A meet hands the raw cross product of its chords to ``ProjPoint``, the
    one place that canonicalizes.  Coincident points raise ``DegenerateJoin``
    and chords on one line ``DegenerateMeet``, with the messages of
    ``join_points`` and ``meet_lines``, prefixed by ``where(t)`` for the
    first meet that needs the chord.
    """
    k = len(P)
    shared = R is None
    if shared:
        R, S = P, Q
    out = []
    for t in range(k):
        try:
            if t == 0:
                line = _chord(P[0], Q[0])
                prev = last = _chord(R[-1], S[-1])
            elif shared:
                prev = line
                line = last if t == k - 1 else _chord(P[t], Q[t])
            else:
                line = _chord(P[t], Q[t])
                prev = _chord(R[t - 1], S[t - 1])
            a0, a1, a2 = line
            b0, b1, b2 = prev
            x = a1 * b2 - a2 * b1
            y = a2 * b0 - a0 * b2
            z = a0 * b1 - a1 * b0
            if not (x or y or z):
                raise DegenerateMeet(f"meet of identical lines {ProjLine2(line)!r}")
        except DegeneracyError as exc:
            raise type(exc)(f"{where(t)}: {exc}") from exc
        out.append(ProjPoint((x, y, z)))
    return out


def orbit(start, step: Callable, steps: int) -> list:
    """[start, step(start), ...]: ``start`` and its first ``steps`` images.

    A degeneracy in step i (counted from 1) raises its own error type, with
    the message prefixed by ``step i: ``.
    """
    states = [start]
    for i in range(1, steps + 1):
        try:
            states.append(step(states[-1]))
        except DegeneracyError as exc:
            raise type(exc)(f"step {i}: {exc}") from exc
    return states


SKEW = "skew"
IDENTICAL = "identical"


def homogeneous_meet(a: Sequence[int], b: Sequence[int], c: Sequence[int],
                     d: Sequence[int]) -> tuple[int, ...] | str:
    """The meet of lines ab and cd of P^m (int coordinate tuples of one
    length, a != b and c != d as points): an unreduced int tuple, ``SKEW``
    or ``IDENTICAL``.

    On the first coordinate triple I where [a,c,d]_I or [b,c,d]_I (3x3
    minors sharing the 2x2 minors of c, d) is nonzero, X = [a,c,d]_I b -
    [b,c,d]_I a lies on ab, Y = [a,b,d]_I c - [a,b,c]_I d on cd, and both
    project to (a x b) x (c x d) on I.  This is exact, by the rank of a, b,
    c, d:

    - rank 3: the nonzero minor makes the projection to I injective on the
      span, so X = Y != 0 is the meet;
    - rank 4: span(a, b) and span(c, d) meet only in 0, and X != 0, so X != Y;
    - rank 2: every 3x3 minor vanishes, so there is no such I (at rank >= 3
      one of a, b lies off the line cd, so there is one).

    In P^2, where the rank is at most 3, X is written out with no Y check;
    in P^1 there is no triple.
    """
    if len(a) == 3:
        a0, a1, a2 = a
        b0, b1, b2 = b
        c0, c1, c2 = c
        d0, d1, d2 = d
        l0, l1, l2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
        m0, m1, m2 = c1 * d2 - c2 * d1, c2 * d0 - c0 * d2, c0 * d1 - c1 * d0
        meet = (l1 * m2 - l2 * m1, l2 * m0 - l0 * m2, l0 * m1 - l1 * m0)
        return meet if any(meet) else IDENTICAL
    for i, j, k in combinations(range(len(a)), 3):
        ci, cj, ck = c[i], c[j], c[k]
        di, dj, dk = d[i], d[j], d[k]
        jk, ik, ij = cj * dk - ck * dj, ci * dk - ck * di, ci * dj - cj * di
        acd = a[i] * jk - a[j] * ik + a[k] * ij
        bcd = b[i] * jk - b[j] * ik + b[k] * ij
        if acd or bcd:
            break
    else:
        return IDENTICAL
    ai, aj, ak = a[i], a[j], a[k]
    bi, bj, bk = b[i], b[j], b[k]
    jk, ik, ij = aj * bk - ak * bj, ai * bk - ak * bi, ai * bj - aj * bi
    abc = ci * jk - cj * ik + ck * ij
    abd = di * jk - dj * ik + dk * ij
    meet = [acd * y - bcd * x for x, y in zip(a, b)]
    if meet != [abd * z - abc * t for z, t in zip(c, d)]:
        return SKEW
    return tuple(meet)


def meet_coplanar_lines(a: ProjPoint, b: ProjPoint, c: ProjPoint, d: ProjPoint) -> ProjPoint:
    """Intersection of lines ab and cd in P^m, for coplanar quadruples.

    The four points must span a projective plane (rank 3): ``homogeneous_meet``
    decides the rank and gives the meet.  Lines that span all of a 3-space
    raise NonCoplanarDiagonals, identical lines raise DegenerateMeet.
    """
    dim = a.dim
    for p in (b, c, d):
        if p.dim != dim:
            raise DimensionMismatch("all four points must live in the same space")
    if dim < 2:
        raise DimensionMismatch("meet_coplanar_lines needs ambient dimension >= 2")
    if a == b or c == d:
        raise DegenerateJoin("meet_coplanar_lines needs two genuine lines")
    meet = homogeneous_meet(a.coords, b.coords, c.coords, d.coords)
    if meet is SKEW:
        raise NonCoplanarDiagonals("the two lines are skew")
    if meet is IDENTICAL:
        raise DegenerateMeet("the two lines coincide")
    return ProjPoint(meet)


def _det2(p: ProjPoint, q: ProjPoint) -> int:
    return p.coords[0] * q.coords[1] - p.coords[1] * q.coords[0]


def _cross_ratio_terms(points: Sequence[ProjPoint], name: str) -> tuple[int, int]:
    """The integer numerator and denominator of the cross ratio of 2k points
    of the projective line: the products of [x_0, x_1], [x_2, x_3], ... and
    of [x_1, x_2], [x_3, x_4], ..., [x_(2k-1), x_0].  Raises
    IndeterminateCrossRatio, naming the ratio, when both vanish."""
    _need_dim(1, *points)
    k = len(points)
    num = den = 1
    for i in range(0, k, 2):
        num *= _det2(points[i], points[i + 1])
        den *= _det2(points[i + 1], points[(i + 2) % k])
    if num == 0 and den == 0:
        raise IndeterminateCrossRatio(f"{name} of the form 0/0")
    return num, den


def cross_ratio4(a: ProjPoint, b: ProjPoint, c: ProjPoint, d: ProjPoint):
    """[a, b, c, d] = (a-b)(c-d) / ((b-c)(d-a)) on the projective line."""
    num, den = _cross_ratio_terms((a, b, c, d), "cross ratio")
    return INF if den == 0 else Fraction(num, den)


def cross_ratio6(a, b, c, d, e, f):
    """[a, b, c, d, e, f] = (a-b)(c-d)(e-f) / ((b-c)(d-e)(f-a))."""
    num, den = _cross_ratio_terms((a, b, c, d, e, f), "six-point cross ratio")
    return INF if den == 0 else Fraction(num, den)


def is_harmonic4(a: ProjPoint, b: ProjPoint, c: ProjPoint, d: ProjPoint) -> bool:
    """cross_ratio4(a, b, c, d) == -1, decided on the integer terms as
    num == -den: a ratio at infinity (den = 0, num != 0) is not -1, and 0/0
    raises IndeterminateCrossRatio as cross_ratio4 does."""
    num, den = _cross_ratio_terms((a, b, c, d), "cross ratio")
    return num == -den


def is_harmonic6(a, b, c, d, e, f) -> bool:
    """cross_ratio6(a, b, c, d, e, f) == -1, decided as ``is_harmonic4`` does."""
    num, den = _cross_ratio_terms((a, b, c, d, e, f), "six-point cross ratio")
    return num == -den


def solve_harmonic4(a: ProjPoint, b: ProjPoint, d: ProjPoint) -> ProjPoint:
    """The point c with cross_ratio4(a, b, c, d) == -1.

    The relation (a-b)(c-d) + (b-c)(d-a) = 0 is linear in c's homogeneous
    coordinates; its kernel is the unique non-violating value even where the
    cross ratio itself degenerates to 0/0 (it agrees with the limit of -1
    solutions under perturbation there).  Only an identically-zero system --
    a, b, d all coincident -- leaves c undetermined.
    """
    A, B, D = a.coords, b.coords, d.coords
    if len(A) != 2 or len(B) != 2 or len(D) != 2:
        _need_dim(1, a, b, d)
    a0, a1 = A
    b0, b1 = B
    d0, d1 = D
    ab = a0 * b1 - a1 * b0
    da = d0 * a1 - d1 * a0
    x = ab * d0 - b0 * da
    w = ab * d1 - b1 * da
    if x == 0 and w == 0:
        raise ZeroDenominator("harmonic conjugate is indeterminate")
    return ProjPoint((x, w))


def solve_harmonic6(a, b, c, e, f) -> ProjPoint:
    """The point d with cross_ratio6(a, b, c, d, e, f) == -1.

    Linear-kernel solve, exactly as in solve_harmonic4: returns the unique
    non-violating d, which is the perturbation limit when the six-point
    ratio degenerates at the solution: d = p*c - q*e with p = [a,b][e,f]
    and q = [b,c][f,a].
    """
    A, B, C, E, F = a.coords, b.coords, c.coords, e.coords, f.coords
    if len(A) != 2 or len(B) != 2 or len(C) != 2 or len(E) != 2 or len(F) != 2:
        _need_dim(1, a, b, c, e, f)
    a0, a1 = A
    b0, b1 = B
    c0, c1 = C
    e0, e1 = E
    f0, f1 = F
    p = (a0 * b1 - a1 * b0) * (e0 * f1 - e1 * f0)
    q = (b0 * c1 - b1 * c0) * (f0 * a1 - f1 * a0)
    x = p * c0 - q * e0
    w = p * c1 - q * e1
    if x == 0 and w == 0:
        raise ZeroDenominator("six-point harmonic solve is indeterminate")
    return ProjPoint((x, w))


def reflect_r(p: ProjPoint) -> ProjPoint:
    """Reflection across the horizontal axis: (X : Y : W) -> (X : -Y : W)."""
    coords = p.coords
    if len(coords) != 3:
        _need_dim(2, p)
    x, y, w = coords
    return ProjPoint((x, -y, w))


def project_vertical(p: ProjPoint) -> ProjPoint:
    """Vertical projection of the plane to the x-axis line: (X : Y : W) -> (X : W)."""
    coords = p.coords
    if len(coords) != 3:
        _need_dim(2, p)
    x, _, w = coords
    if x == 0 and w == 0:
        raise UndefinedProjection("the vertical direction has no vertical projection")
    return ProjPoint((x, w))


class ProjMap:
    """An invertible projective map given by a canonical integer matrix."""

    __slots__ = ("matrix",)

    def __init__(self, rows: Sequence[Sequence[int | Fraction]]):
        size = len(rows)
        if size < 2 or any(len(r) != size for r in rows):
            raise DimensionMismatch("projective maps need a square matrix of size >= 2")
        flat = _canonical_ints([x for row in rows for x in row])
        matrix = tuple(tuple(flat[i * size + j] for j in range(size)) for i in range(size))
        if linalg.integer_det(matrix) == 0:
            raise ValueError("projective map matrix must be invertible")
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return len(self.matrix) - 1

    def apply(self, p: ProjPoint) -> ProjPoint:
        if p.dim != self.dim:
            raise DimensionMismatch("map and point dimensions differ")
        coords = [sum(m * c for m, c in zip(row, p.coords)) for row in self.matrix]
        return ProjPoint(coords)

    def inverse(self) -> "ProjMap":
        return ProjMap(_adjugate(self.matrix))

    def __eq__(self, other):
        return isinstance(other, ProjMap) and self.matrix == other.matrix

    def __hash__(self):
        return hash(("ProjMap", self.matrix))

    def __repr__(self):
        return f"ProjMap{self.matrix!r}"


def _adjugate(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer adjugate: out[j][i] is the (i, j) cofactor."""
    n = len(matrix)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [matrix[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            sign = -1 if (i + j) % 2 else 1
            out[j][i] = sign * linalg.integer_det(minor)
    return out


def apply_map(phi: ProjMap, p: ProjPoint) -> ProjPoint:
    return phi.apply(p)


def identity_map(dim: int) -> ProjMap:
    n = dim + 1
    return ProjMap([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def axes_normalization_map(p: ProjPoint, q: ProjPoint) -> ProjMap:
    """A projective map of the plane sending p to (1:0:0) and q to (0:1:0).

    The matrix is completed with the first standard basis vector that keeps it
    invertible, so the choice is deterministic.  Any two admissible maps differ
    by an affine map that fixes the two axis directions, which is why centroid
    computations built on this map do not depend on the completion rule.
    """
    _need_dim(2, p, q)
    if p == q:
        raise DegenerateJoin("the two concurrency points coincide")
    for k in range(3):
        third = [1 if i == k else 0 for i in range(3)]
        cols = [list(p.coords), list(q.coords), third]
        matrix = [[cols[j][i] for j in range(3)] for i in range(3)]
        if linalg.integer_det(matrix) != 0:
            return ProjMap(_adjugate(matrix))
    raise DegenerateJoin("could not complete a projective basis")  # pragma: no cover


def mobius_to_infinity(a: ProjPoint) -> ProjMap:
    """A Moebius map of the line sending a to infinity (x -> 1/(x - a)).

    With a = (x : w), w != 0, that is the integer matrix [[0, w], [w, -x]]."""
    _need_dim(1, a)
    if a == P1_INFINITY:
        return identity_map(1)
    x, w = a.coords
    return ProjMap([[0, w], [w, -x]])


def random_projective_map(dim: int, rng, bound: int = 9) -> ProjMap:
    """A random invertible projective map with small integer entries."""
    n = dim + 1
    while True:
        rows = [[rng.below(2 * bound + 1) - bound for _ in range(n)] for _ in range(n)]
        if linalg.integer_det(rows) != 0:
            return ProjMap(rows)
