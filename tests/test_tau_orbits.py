"""The T002 and T008 verifiers' tau-function loops against the public steps.

``collapse_orbit`` and ``verify_T008`` run their orbits in private loops on
the maps' tau-function recurrences in an integer frame:
``pentagram2d._tau_states`` on the pentagram map's T-system, of which
``collapse_orbit`` reads step n - 2 and, where its two-line stage does not
fix the collapse point, step n - 1, and ``lower1d._last_pair``.  Each
divides by factors known in advance where ``pentagram_step`` and
``t1_step`` take a gcd, and stops where a divisor vanishes, a division
leaves a remainder, or a point is zero.  The verifier then runs ``orbit``
on the public step.  ``pentagram2d._collapse_stages``, steps n - 2 and
n - 1 of ``_tau_states`` canonicalized, is the T002 loop's reference here.

- Each loop is compared with the public step's orbit over fixed windows:
  T008 at n = 3-12 and seeds 0-99, T002 at n = 2-10 and seeds 0-49, T002 n
  = 2 over seeds 0-299, and T002 at n = 11-16 and seeds 0-19 with the
  bound max(10, n).  The windows are never re-seeded: the draws on which a
  loop falls back are counted and pinned, and each of them is a draw on
  which the public orbit raises.
- The degenerate draws the CLI pins raise their errors unchanged.
- sympy runs both recurrences as polynomial identities for n <= 4 over
  every step of the orbit (n - 1 <= 3): every division is exact over the
  integers, each T_1 tau state is the image of the one before it, and each
  T002 vertex lies on both chords ``pentagram_step`` meets.
  ``test_tau_identities.py`` proves one step of each for every n.
- hypothesis checks that both steps commute with the diagonal change of
  frame that the loops' integer frames rest on.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import ZZ
from sympy.polys.rings import ring

from pentagram_lab.errors import DegeneracyError, DegenerateMeet, ZeroDenominator
from pentagram_lab.lower1d import PairState1D, _last_pair, random_b, t1_step, verify_T008
from pentagram_lab.pentagram2d import (
    LabeledPolygon2,
    _collapse_stages,
    collapse_orbit,
    pentagram_step,
    random_axis_aligned,
)
from pentagram_lab.projcore import ProjPoint, orbit
from pentagram_lab.rng import trial_seed


def _t008_orbit(pair):
    """(X, Y) after n - 1 public steps, or the error the orbit raises."""
    try:
        state = orbit(pair.initial_state(), t1_step, pair.n - 1)[-1]
    except DegeneracyError as exc:
        return exc
    return state.X, state.Y


def _t002_orbit(P):
    """The vertices of public steps n - 2 and n - 1, or the orbit's error."""
    try:
        polys = orbit(P.underlying, pentagram_step, P.n - 1)
    except DegeneracyError as exc:
        return exc
    return polys[P.n - 2].vertices, polys[-1].vertices


def _census(draws, loop, public):
    """The draws on which the loop falls back; every other draw's loop
    states equal the public orbit's, and every fallback draw raises there."""
    fallbacks = []
    for key, instance in draws:
        got, want = loop(instance), public(instance)
        if got is None:
            assert isinstance(want, DegeneracyError), key
            fallbacks.append((key, type(want).__name__))
        else:
            assert got == want, key
    return fallbacks


def test_t008_loop_matches_the_public_orbit():
    draws = [((n, seed), random_b(n, seed)) for n in range(3, 13) for seed in range(100)]
    fallbacks = _census(draws, lambda pair: _last_pair(pair.initial_state().Y), _t008_orbit)
    assert fallbacks == [((11, 60), "ZeroDenominator"), ((11, 77), "ZeroDenominator")]


def test_t002_loop_matches_the_public_orbit():
    draws = [((n, seed), random_axis_aligned(n, seed)) for n in range(2, 11) for seed in range(50)]
    fallbacks = _census(draws, _collapse_stages, _t002_orbit)
    assert fallbacks == [((8, 1), "DegenerateMeet"), ((8, 12), "DegenerateMeet"),
                         ((9, 12), "DegenerateMeet")]


def test_t002_loop_matches_the_public_orbit_past_n10():
    """Past n = 10 a planar draw's default bound is n."""
    draws = [((n, seed), random_axis_aligned(n, seed, max(10, n)))
             for n in range(11, 17) for seed in range(20)]
    assert _census(draws, _collapse_stages, _t002_orbit) == []


def test_t002_loop_at_n2_keeps_the_input_as_step_0():
    draws = [(seed, random_axis_aligned(2, seed)) for seed in range(300)]
    assert _census(draws, _collapse_stages, _t002_orbit) == []
    P = draws[0][1]
    assert _collapse_stages(P)[0] == P.underlying.vertices


def test_fallback_draws_raise_the_public_steps_errors():
    """The draws ``verify --theorem T008 --random --n 4 --seed 109`` and
    ``verify --theorem T002 --random --n 3 --seed 265`` check, and one
    fallback draw of each window above."""
    cases = [
        (verify_T008, random_b(4, trial_seed(109, 0)), ZeroDenominator,
         "step 3: entry 1: six-point harmonic solve is indeterminate"),
        (collapse_orbit, random_axis_aligned(3, trial_seed(265, 0)), DegenerateMeet,
         "step 2: output label 3: meet of identical lines [10 : -4 : -5]"),
        (verify_T008, random_b(11, 60), ZeroDenominator, None),
        (collapse_orbit, random_axis_aligned(8, 1), DegenerateMeet, None),
    ]
    for verifier, instance, error, message in cases:
        public = (_t008_orbit if verifier is verify_T008 else _t002_orbit)(instance)
        assert type(public) is error
        with pytest.raises(error) as info:
            verifier(instance)
        assert str(info.value) == str(public)
        if message is not None:
            assert str(info.value) == message


# ---------------------------------------------------------------------------
# the recurrences as polynomial identities


def _exact(f, g):
    """f / g in Z[...]: g is a nonzero polynomial and the remainder is 0."""
    assert g != 0
    q, r = divmod(f, g)
    assert r == 0
    return q


def _cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _dot(p, q):
    return sum(x * y for x, y in zip(p, q))


def _bracket(p, q):
    return p[0] * q[1] - p[1] * q[0]


@pytest.mark.parametrize("n", [3, 4])
def test_t008_recurrence_is_a_polynomial_identity(n):
    """From Y_i = (y_i : 1) and tau = 1, with the y_i free integers: tau'_i
    and Y'_i are integer polynomials, and Y'_i is proportional to the
    raw Z_i = p Y_{i-1} - q Y_i of ``t1_step`` on the previous tau state,
    p = [X_i, Y_i][Y_i, Y_{i+1}] and q = [X_i, Y_{i+1}][Y_{i-1}, Y_i]."""
    R, *y = ring(",".join(f"y{i}" for i in range(n)), ZZ)
    X = [(R.one, R.zero)] * n
    Y = [(v, R.one) for v in y]
    tau = [R.one] * n
    for _ in range(n - 1):
        D = [_bracket(Y[i], Y[(i + 1) % n]) for i in range(n)]
        T = [_exact(D[i], tau[i]) for i in range(n)]
        Z = []
        for i in range(n):
            point = tuple(_exact(T[i] * u - T[i - 1] * v, tau[i - 1])
                          for u, v in zip(Y[i - 1], Y[i]))
            p = _bracket(X[i], Y[i]) * D[i]
            q = _bracket(X[i], Y[(i + 1) % n]) * D[i - 1]
            raw = tuple(p * u - q * v for u, v in zip(Y[i - 1], Y[i]))
            assert any(point) and _bracket(point, raw) == 0
            Z.append(point)
        X, Y, tau = Y, Z, T
    assert all(_bracket(Y[0], v) == 0 for v in Y)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_t002_recurrence_is_a_polynomial_identity(n):
    """From V_{2j} = (a_j, b_j, 1) and V_{2j+1} = (a_{j+1}, b_j, 1), with the
    levels free integers: every vertex W_t = (G_{t+1} V_{t-1} - G_{t-1}
    V_{t+1}) / H_t and next G_t = (G_{t-1} G_{t+2} - G_t G_{t+1}) / H_{t+1}
    of the step before is an integer polynomial.  W_t is nonzero and lies on
    the chords V_t V_{t+2} and V_{t-1} V_{t+1}, which differ, so it is
    proportional to the vertex ``pentagram_step`` meets; after n - 1 steps
    the vertices coincide."""
    R, *levels = ring(",".join([f"a{j}" for j in range(n)] + [f"b{j}" for j in range(n)]), ZZ)
    a, b = levels[:n], levels[n:]
    k = 2 * n
    V, G = [], []
    for j in range(n):
        V += [(a[j], b[j], R.one), (a[(j + 1) % n], b[j], R.one)]
        G += [a[j] - a[(j + 1) % n], b[j] - b[(j + 1) % n]]
    H = [R.one] * k
    for _ in range(n - 1):
        W = [tuple(_exact(G[(t + 1) % k] * u - G[t - 1] * v, H[t])
                   for u, v in zip(V[t - 1], V[(t + 1) % k])) for t in range(k)]
        for t in range(k):
            chord, other = _cross(V[t], V[(t + 2) % k]), _cross(V[t - 1], V[(t + 1) % k])
            assert any(W[t]) and any(_cross(chord, other))
            assert _dot(chord, W[t]) == 0 and _dot(other, W[t]) == 0
        F = [_exact(G[t - 1] * G[(t + 2) % k] - G[t] * G[(t + 1) % k], H[(t + 1) % k])
             for t in range(k)]
        H, G, V = G, F, W
    assert all(not any(_cross(V[0], v)) for v in V)


# ---------------------------------------------------------------------------
# the change of frame


def _scalars():
    return st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


def _points(size):
    return st.tuples(*[st.integers(-3, 3)] * size).filter(any)


def _with_infinity(draw, points, size):
    """points with at least one of them replaced by a point at infinity."""
    at = draw(st.integers(0, len(points) - 1))
    direction = draw(st.tuples(*[st.integers(-3, 3)] * (size - 1)).filter(any))
    return [*points[:at], (*direction, 0), *points[at + 1:]]


def _outcome(step, state):
    """The step's result, or its error class with the prefix naming the
    output (the rest of the message prints coordinates)."""
    try:
        return step(state)
    except DegeneracyError as exc:
        return type(exc), str(exc).split(":")[0]


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(2, 6), _scalars(), _scalars())
def test_pentagram_step_commutes_with_diagonal_scaling(data, k, alpha, beta):
    points = data.draw(st.lists(_points(3), min_size=2 * k, max_size=2 * k))
    points = _with_infinity(data.draw, points, 3)

    def scale(vertices):
        return tuple(ProjPoint((alpha * x, beta * y, w)) for x, y, w in
                     (v.coords for v in vertices))

    poly = LabeledPolygon2(tuple(ProjPoint(p) for p in points), 1)
    scaled = LabeledPolygon2(scale(poly.vertices), 1)
    want = _outcome(pentagram_step, poly)
    if isinstance(want, LabeledPolygon2):
        want = LabeledPolygon2(scale(want.vertices), want.label_offset)
    assert _outcome(pentagram_step, scaled) == want


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(3, 8), _scalars())
def test_t1_step_commutes_with_scaling(data, n, alpha):
    X = _with_infinity(data.draw, data.draw(st.lists(_points(2), min_size=n, max_size=n)), 2)
    Y = _with_infinity(data.draw, data.draw(st.lists(_points(2), min_size=n, max_size=n)), 2)

    def scale(points):
        return tuple(ProjPoint((alpha * u, w)) for u, w in (p.coords for p in points))

    state = PairState1D(tuple(ProjPoint(p) for p in X), tuple(ProjPoint(p) for p in Y))
    assume(all(x != y for x, y in zip(state.X, state.Y)))
    want = _outcome(t1_step, state)
    if isinstance(want, PairState1D):
        want = PairState1D(scale(want.X), scale(want.Y))
    assert _outcome(t1_step, PairState1D(scale(state.X), scale(state.Y))) == want

