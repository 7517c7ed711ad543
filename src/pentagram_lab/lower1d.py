"""The lower map T_1 on pairs of n-tuples of points of the projective line.

T_1 sends (X, Y) to (Y, Z) where each Z_i is pinned down by the six-point
relation [X_i, Y_i, Y_{i-1}, Z_i, Y_i, Y_{i+1}] = -1 (indices cyclic).

Started from X = (inf, ..., inf) and a finite tuple B with at least two
distinct values, n-1 steps land on a pair (C, D) whose second component is
constant, equal to the mean of B.  The first component C is carried along in
reports but nothing is asserted about it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateJoin, InfiniteVertex, NotAxisAligned, ZeroDenominator
from .projcore import (
    P1_INFINITY,
    ProjPoint,
    affine_mean,
    mobius_to_infinity,
    orbit,
    point_coords,
)
from .rng import SplitMix64


@dataclass(frozen=True)
class PairState1D:
    """A pair of n-tuples on the projective line, the state T_1 acts on."""

    X: tuple[ProjPoint, ...]
    Y: tuple[ProjPoint, ...]

    @classmethod
    def of(cls, X, Y) -> "PairState1D":
        X, Y = tuple(X), tuple(Y)
        if len(X) != len(Y) or len(X) < 3:
            raise ValueError("need two tuples of equal length n >= 3")
        for p in (*X, *Y):
            if p.dim != 1:
                raise ValueError("entries must be points of the projective line")
        for i, (x, y) in enumerate(zip(X, Y)):
            if x == y:
                raise DegenerateJoin(f"X_{i + 1} and Y_{i + 1} coincide")
        return cls(X, Y)

    @property
    def n(self) -> int:
        return len(self.X)


def t1_step(state: PairState1D) -> PairState1D:
    """(X, Y) -> (Y, Z) with [X_i, Y_i, Y_{i-1}, Z_i, Y_i, Y_{i+1}] = -1.

    This is ``solve_harmonic6(X_i, Y_i, Y_{i-1}, Y_i, Y_{i+1})`` on the int
    coordinates, with b = e = Y_i: Z_i = p Y_{i-1} - q Y_i, where
    p = [X_i, Y_i] D_i and q = -[Y_{i+1}, X_i] D_{i-1}, and each bracket
    D_i = [Y_i, Y_{i+1}] is computed once per step.  The raw (x, w) goes to
    ``ProjPoint`` as it is: dividing p and q by common factors first was
    measured slower.
    """
    X = point_coords(state.X, 1)
    Y = point_coords(state.Y, 1)
    n = len(Y)
    D = [y0 * z1 - y1 * z0 for (y0, y1), (z0, z1) in zip(Y, Y[1:] + Y[:1])]
    Z = []
    for i in range(n):
        x0, x1 = X[i]
        c0, c1 = Y[i - 1]
        e0, e1 = Y[i]
        f0, f1 = Y[(i + 1) % n]
        p = (x0 * e1 - x1 * e0) * D[i]
        q = (f1 * x0 - f0 * x1) * D[i - 1]
        x = p * c0 - q * e0
        w = p * c1 - q * e1
        if x == 0 and w == 0:
            raise ZeroDenominator(f"entry {i + 1}: six-point harmonic solve is indeterminate")
        Z.append(ProjPoint((x, w)))
    return PairState1D(state.Y, tuple(Z))


@dataclass(frozen=True)
class AxisAlignedPair1:
    """The canonical start (inf, ..., inf; B) with B finite and non-constant."""

    B: tuple[ProjPoint, ...]

    @classmethod
    def of(cls, B) -> "AxisAlignedPair1":
        B = tuple(B)
        if len(B) < 3:
            raise ValueError("need at least 3 entries")
        for i, b in enumerate(B):
            if b.dim != 1:
                raise ValueError("entries must be points of the projective line")
            if not b.is_finite:
                raise InfiniteVertex(f"B_{i + 1} is the point at infinity")
        if len(set(B)) < 2:
            raise NotAxisAligned("B must take at least two distinct values")
        return cls(B)

    @classmethod
    def from_values(cls, values) -> "AxisAlignedPair1":
        return cls.of(tuple(ProjPoint.p1(v) for v in values))

    @property
    def n(self) -> int:
        return len(self.B)

    def initial_state(self) -> PairState1D:
        return PairState1D.of((P1_INFINITY,) * self.n, self.B)


def center_of_mass_p1(A, B) -> ProjPoint:
    """Mean of B in the chart that puts the common A-value at infinity.

    A must be constant; B must avoid the A-value (the chart has no mean
    otherwise).  For A = (inf, ..., inf) this is the plain mean of B.
    """
    A, B = tuple(A), tuple(B)
    if not A or len(A) != len(B):
        raise ValueError("need two tuples of equal positive length")
    if len(set(A)) != 1:
        raise NotAxisAligned("first component must be constant")
    phi = mobius_to_infinity(A[0])
    images = []
    for i, b in enumerate(B):
        image = phi.apply(b)
        if not image.is_finite:
            raise InfiniteVertex(f"B_{i + 1} equals the common first-component value")
        images.append(image)
    return phi.inverse().apply(affine_mean(images))


@dataclass(frozen=True)
class T008Report:
    steps_taken: int
    first_component: tuple[ProjPoint, ...]
    final_component: tuple[ProjPoint, ...]
    constant: bool
    expected: ProjPoint
    matched: bool

    @property
    def ok(self) -> bool:
        return self.constant and self.matched


def verify_T008(pair: AxisAlignedPair1) -> T008Report:
    """Run n-1 steps of T_1 from (inf^n, B); the second component must become
    the constant mean of B.  The first component rides along unasserted."""
    n = pair.n
    state = orbit(pair.initial_state(), t1_step, n - 1)[-1]
    expected = affine_mean(pair.B)
    constant = len(set(state.Y)) == 1
    matched = constant and state.Y[0] == expected
    return T008Report(
        steps_taken=n - 1,
        first_component=state.X,
        final_component=state.Y,
        constant=constant,
        expected=expected,
        matched=matched,
    )


def random_b(n: int, seed: int, bound: int = 10) -> AxisAlignedPair1:
    """Seeded tuple of n distinct rationals."""
    if n < 3:
        raise ValueError("need n >= 3")
    rng = SplitMix64(seed)
    values = rng.distinct_rationals(n, bound)
    return AxisAlignedPair1.of(tuple(ProjPoint.p1(v) for v in values))
