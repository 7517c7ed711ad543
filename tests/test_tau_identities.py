"""The steps of the T002 and T008 tau loops, proved for every n.

Both loops (``pentagram2d._tau_states`` and ``lower1d._last_pair``) carry
invariants from one step to the next.  Each invariant and each step formula
involves only a few consecutive indices, so a step that keeps them on a
symbolic window of that width keeps them for every n: the identities below
are identities of rational functions, and they specialize to any polygon,
with its indices read mod n, whose divisors are nonzero.  Integrality (the
Laurent phenomenon) is not proved here; the loops test every division.

T002.  D(i, j, k) is the determinant of the vertices V_i, V_j, V_k and
e = (-1)^(s+t) at step s.  The invariants

    (A) D(t, t+1, t+2) = e G_t G_{t+1} H_{t+1}
    (B) D(t-1, t, t+2) = -e G_{t-1} G_t H_{t+1}
    (C) D(t-1, t+1, t+2) = e G_t G_{t+1} H_t

hold at step 0 on free levels.  For the step, V_0, V_1, V_2 is a basis
scaled to (A), and (A), (B) and (C) fix V_{-2}, ..., V_4 by Cramer's rule.
No polygon is lost: the map, W and F are GL_3-equivariant, and a polygon
that keeps the invariants is the image of this window under a matrix of
determinant 1.  Then W_t lies on the chords V_t V_{t+2} and V_{t-1} V_{t+1}
of ``pentagram_step``, and (A), (B), (C) hold again with G' = F, H' = G and
e negated, at both parities of t.

T008.  [p, q] is the 2x2 bracket.  The invariants [X_i, Y_i] = c tau_i
tau_{i-1} and [X_i, Y_{i+1}] = c tau_i^2, with one sign c for every i,
hold at the start (c = 1) and after one step on free Y_{-1}, ..., Y_2 and
tau (c = -1, whatever c was before).  With X_i fixed by them, ``t1_step``'s
p : q is tau'_i : tau'_{i-1}, so its Z_i is a multiple of the loop's Y'_i.
"""

import pytest
from sympy import ZZ
from sympy.polys.fields import field
from sympy.polys.rings import ring


def _det(p, q, r):
    return (p[0] * (q[1] * r[2] - q[2] * r[1]) - p[1] * (q[0] * r[2] - q[2] * r[0])
            + p[2] * (q[0] * r[1] - q[1] * r[0]))


def _bracket(p, q):
    return p[0] * q[1] - p[1] * q[0]


def _combine(*terms):
    """The linear combination sum(c * v) of vectors v."""
    return tuple(sum(c * v[i] for c, v in terms) for i in range(len(terms[0][1])))


class _Invariants:
    """(A), (B) and (C) of step s, with G and H indexed by t."""

    def __init__(self, G, H, sign):
        self.G, self.H, self.sign = G, H, sign

    def e(self, t):
        return self.sign * (-1) ** t

    def A(self, t):
        return self.e(t) * self.G[t] * self.G[t + 1] * self.H[t + 1]

    def B(self, t):
        return -self.e(t) * self.G[t - 1] * self.G[t] * self.H[t + 1]

    def C(self, t):
        return self.e(t) * self.G[t] * self.G[t + 1] * self.H[t]

    def hold(self, V, t):
        return (_det(V[t], V[t + 1], V[t + 2]) == self.A(t)
                and _det(V[t - 1], V[t], V[t + 2]) == self.B(t)
                and _det(V[t - 1], V[t + 1], V[t + 2]) == self.C(t))


def test_t002_invariants_hold_at_step_0():
    """V_{2j-1}, ..., V_{2j+3} from free levels a_j, a_{j+1}, a_{j+2} and
    b_{j-1}, b_j, b_{j+1}, with j = 0 and H = 1."""
    R, a0, a1, a2, bm, b0, b1 = ring("a0,a1,a2,bm,b0,b1", ZZ)
    V = {-1: (a0, bm, R.one), 0: (a0, b0, R.one), 1: (a1, b0, R.one),
         2: (a1, b1, R.one), 3: (a2, b1, R.one)}
    G = {-1: bm - b0, 0: a0 - a1, 1: b0 - b1, 2: a1 - a2}
    H = dict.fromkeys(range(-1, 3), R.one)
    assert all(_Invariants(G, H, 1).hold(V, t) for t in (0, 1))


@pytest.mark.parametrize("sign", [1, -1])
def test_t002_step_carries_the_invariants(sign):
    """``sign`` is e at t = 0; the two signs cover both parities of s + t."""
    K, *gens = field(",".join([f"g{i}" for i in range(7)] + [f"h{i}" for i in range(5)]), ZZ)
    G = dict(zip(range(-2, 5), gens[:7]))
    H = dict(zip(range(-1, 4), gens[7:]))
    old = _Invariants(G, H, sign)
    V = {0: (K.one, K.zero, K.zero), 1: (K.zero, K.one, K.zero), 2: (K.zero, K.zero, old.A(0))}
    for t in (0, 1):  # V_{t+3} from the basis V_t, V_{t+1}, V_{t+2}
        d = old.A(t)
        V[t + 3] = _combine((old.A(t + 1) / d, V[t]), (-old.C(t + 1) / d, V[t + 1]),
                            (old.B(t + 1) / d, V[t + 2]))
    for t in (0, -1):  # V_{t-1} from the same basis
        d = old.A(t)
        V[t - 1] = _combine((old.C(t) / d, V[t]), (-old.B(t) / d, V[t + 1]),
                            (old.A(t - 1) / d, V[t + 2]))
    assert all(old.hold(V, t) for t in range(-1, 3))

    W = {t: _combine((G[t + 1] / H[t], V[t - 1]), (-G[t - 1] / H[t], V[t + 1]))
         for t in range(-1, 4)}
    F = {t: (G[t - 1] * G[t + 2] - G[t] * G[t + 1]) / H[t + 1] for t in range(-1, 3)}
    for t in range(-1, 3):
        assert _det(W[t], V[t], V[t + 2]) == 0
        assert _det(W[t], V[t - 1], V[t + 1]) == 0
    assert all(_Invariants(F, G, -sign).hold(W, t) for t in (0, 1))


def test_t008_invariants_hold_at_the_start():
    """X = (inf, ..., inf), Y_i = (y_i : 1) and tau = 1: c = 1."""
    R, y0, y1 = ring("y0,y1", ZZ)
    X, Y = (R.one, R.zero), [(y0, R.one), (y1, R.one)]
    assert _bracket(X, Y[0]) == 1 and _bracket(X, Y[1]) == 1


@pytest.mark.parametrize("sign", [1, -1])
def test_t008_step_carries_the_invariants(sign):
    """Y_{-1}, ..., Y_2 and tau_{-1}, tau_0, tau_1 free; ``sign`` is c."""
    K, *gens = field("u0,u1,u2,u3,w0,w1,w2,w3,tm,t0,t1", ZZ)
    Y = {i: (gens[i + 1], gens[i + 5]) for i in range(-1, 3)}
    tau = dict(zip(range(-1, 2), gens[8:]))
    D = {i: _bracket(Y[i], Y[i + 1]) for i in range(-1, 2)}
    T = {i: D[i] / tau[i] for i in range(-1, 2)}
    Z = {i: _combine((T[i] / tau[i - 1], Y[i - 1]), (-T[i - 1] / tau[i - 1], Y[i]))
         for i in (0, 1)}
    # (X', Y') = (Y, Z) keeps the invariants with c = -1
    assert _bracket(Y[0], Z[0]) == -T[0] * T[-1]
    assert _bracket(Y[0], Z[1]) == -T[0] ** 2
    # X_0 from [X_0, Y_0] = c tau_0 tau_{-1} and [X_0, Y_1] = c tau_0^2
    X0 = _combine((sign * tau[0] ** 2 / D[0], Y[0]), (-sign * tau[0] * tau[-1] / D[0], Y[1]))
    assert _bracket(X0, Y[0]) == sign * tau[0] * tau[-1]
    assert _bracket(X0, Y[1]) == sign * tau[0] ** 2
    p = _bracket(X0, Y[0]) * D[0]
    q = _bracket(X0, Y[1]) * D[-1]
    assert p * T[-1] == q * T[0]
    assert _bracket(_combine((p, Y[-1]), (-q, Y[0])), Z[0]) == 0
