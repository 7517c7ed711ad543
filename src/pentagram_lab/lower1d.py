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
from math import lcm

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


def _last_pair(B: tuple[ProjPoint, ...]):
    """The state (X, Y) after n-1 steps of T_1 from (inf^n, B), B finite, or
    None where a guard fails.

    The steps run on T_1's tau functions, whose Laurent phenomenon makes the
    common factors of ``t1_step``'s raw points known in advance.  The integer
    frame scales B by L, the lcm of its denominators, and starts from
    Y_i = (L b_i : 1) and tau = 1.  Each step sets

        D_i = [Y_i, Y_{i+1}],  tau'_i = D_i / tau_i,
        Y'_i = (tau'_i Y_{i-1} - tau'_{i-1} Y_i) / tau_{i-1}.

    Along it [X_i, Y_i] and [X_i, Y_{i+1}] are tau_i tau_{i-1} and tau_i^2,
    up to one common sign, so ``t1_step``'s p : q is tau'_i : tau'_{i-1}.
    Every divisor must be nonzero, every division exact, and every point
    nonzero; then each Y'_i is a nonzero multiple of ``t1_step``'s Z_i, and
    the last X and Y map back by (u : w) -> (u : L w), canonicalized only
    there.
    """
    n = len(B)
    L = lcm(*(w for _, w in (p.coords for p in B)))
    Y = [(u * (L // w), 1) for u, w in (p.coords for p in B)]
    tau = [1] * n
    for _ in range(n - 1):
        if 0 in tau:
            return None
        T = []
        for (y0, y1), (z0, z1), t in zip(Y, Y[1:] + Y[:1], tau):
            d, r = divmod(y0 * z1 - y1 * z0, t)
            if r:
                return None
            T.append(d)
        Z = []
        (a0, a1), c, g = Y[-1], T[-1], tau[-1]
        for (b0, b1), d, t in zip(Y, T, tau):
            x, rx = divmod(d * a0 - c * b0, g)
            w, rw = divmod(d * a1 - c * b1, g)
            if rx or rw or not (x or w):
                return None
            Z.append((x, w))
            a0, a1, c, g = b0, b1, d, t
        X, Y, tau = Y, Z, T
    return tuple(tuple(ProjPoint((u, L * w)) for u, w in S) for S in (X, Y))


def verify_T008(pair: AxisAlignedPair1) -> T008Report:
    """Run n-1 steps of T_1 from (inf^n, B); the second component must become
    the constant mean of B.  The first component rides along unasserted.

    The steps run on the tau-function recurrence of ``_last_pair``, which
    canonicalizes only the last state.  A draw on which one of its guards
    fails runs ``orbit`` with ``t1_step`` instead, so a degenerate draw
    raises that step's own error.
    """
    n = pair.n
    start = pair.initial_state()
    last = _last_pair(start.Y)
    if last is None:
        state = orbit(start, t1_step, n - 1)[-1]
        last = state.X, state.Y
    X, Y = last
    expected = affine_mean(pair.B)
    constant = len(set(Y)) == 1
    matched = constant and Y[0] == expected
    return T008Report(
        steps_taken=n - 1,
        first_component=X,
        final_component=Y,
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
