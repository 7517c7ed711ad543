"""The map steps against references built from the public kernel alone.

``pentagram_step``, ``mp_step`` and ``mp_inverse`` meet their chords on int
coordinate triples in ``meet_consecutive_chords``, and ``t1_step`` solves
its six-point relations on int pairs with each bracket [Y_i, Y_{i+1}]
computed once.  Each reference below builds every chord with
``join_points``, meets it with ``meet_lines``, reflects with ``reflect_r``
and solves with ``solve_harmonic6``, in the order the step needs them, and
prefixes an error as the step does.  The two must agree on every input:
the same output points, or the same error class with the same message.
Small coordinate ranges make coincident points, identical chords and
indeterminate solves frequent.
"""

import pytest
from hypothesis import given, settings, strategies as st

from pentagram_lab.errors import (
    DegeneracyError,
    DegenerateJoin,
    DegenerateMeet,
    PentagramError,
    ZeroDenominator,
)
from pentagram_lab.lower1d import PairState1D, t1_step
from pentagram_lab.mirror import MirrorPair, mp_inverse, mp_step
from pentagram_lab.pentagram2d import LabeledPolygon2, pentagram_step
from pentagram_lab.projcore import (
    ProjPoint,
    join_points,
    meet_lines,
    reflect_r,
    solve_harmonic6,
)


def _meets(left, right, k, where):
    """[left(t) ^ right(t - 1) for t in range(k)], each error prefixed by
    ``where(t)``; the left chord is built before the right one."""
    out = []
    for t in range(k):
        try:
            out.append(meet_lines(left(t), right(t - 1)))
        except DegeneracyError as exc:
            raise type(exc)(f"{where(t)}: {exc}") from exc
    return out


def reference_pentagram_step(poly):
    verts = poly.vertices
    k = len(verts)
    period = 2 * k
    offset = (poly.label_offset + 1) % period

    def chord(t):
        return join_points(verts[t % k], verts[(t + 2) % k])

    out = _meets(chord, chord, k, lambda t: f"output label {(offset + 2 * t) % period}")
    return LabeledPolygon2(tuple(out), offset)


def reference_mp_step(pair):
    X = pair.points
    n = len(X)

    def chord(i):
        return join_points(X[i % n], reflect_r(X[(i + 1) % n]))

    return MirrorPair(tuple(_meets(chord, chord, n, lambda i: f"output index {i + 1}")))


def reference_mp_inverse(pair):
    Q = pair.points
    n = len(Q)

    def left(i):
        return join_points(Q[i % n], Q[(i + 1) % n])

    def right(j):
        return join_points(reflect_r(Q[j % n]), reflect_r(Q[(j + 1) % n]))

    return MirrorPair(tuple(_meets(left, right, n, lambda i: f"output index {i + 1}")))


def reference_t1_step(state):
    X, Y = state.X, state.Y
    n = len(Y)
    Z = []
    for i in range(n):
        try:
            Z.append(solve_harmonic6(X[i], Y[i], Y[i - 1], Y[i], Y[(i + 1) % n]))
        except ZeroDenominator as exc:
            raise ZeroDenominator(f"entry {i + 1}: {exc}") from exc
    return PairState1D(Y, tuple(Z))


def outcome(step, state):
    try:
        return step(state)
    except PentagramError as exc:
        return type(exc), str(exc)


def _points(size, low, high):
    entry = st.integers(low, high)
    return st.tuples(*[entry] * size).filter(any).map(ProjPoint)


def _plane_lists(min_size, max_size):
    return st.one_of(
        st.lists(_points(3, -2, 2), min_size=min_size, max_size=max_size),
        st.lists(_points(3, -(10**12), 10**12), min_size=min_size, max_size=max_size),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 6).flatmap(lambda n: _plane_lists(2 * n, 2 * n)),
    st.integers(0, 50),
)
def test_pentagram_step_matches_joins_and_meets(vertices, offset):
    poly = LabeledPolygon2(tuple(vertices), offset % (2 * len(vertices)))
    assert outcome(pentagram_step, poly) == outcome(reference_pentagram_step, poly)


@settings(max_examples=300, deadline=None)
@given(_plane_lists(3, 9))
def test_mp_step_matches_joins_and_meets(points):
    pair = MirrorPair(tuple(points))
    assert outcome(mp_step, pair) == outcome(reference_mp_step, pair)


@settings(max_examples=300, deadline=None)
@given(_plane_lists(3, 9))
def test_mp_inverse_matches_joins_and_meets(points):
    pair = MirrorPair(tuple(points))
    assert outcome(mp_inverse, pair) == outcome(reference_mp_inverse, pair)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(3, 9).flatmap(
        lambda n: st.one_of(
            st.tuples(*[st.lists(_points(2, -2, 2), min_size=n, max_size=n)] * 2),
            st.tuples(*[st.lists(_points(2, -(10**12), 10**12), min_size=n, max_size=n)] * 2),
        )
    )
)
def test_t1_step_matches_six_point_solves(XY):
    state = PairState1D(tuple(XY[0]), tuple(XY[1]))
    assert outcome(t1_step, state) == outcome(reference_t1_step, state)


def test_orbits_match_the_references():
    hexagon = LabeledPolygon2.of(
        [ProjPoint(c) for c in ((0, 0, 1), (4, 0, 1), (5, 3, 1), (2, 6, 1), (-1, 5, 1), (-2, 2, 1))]
    )
    pair = MirrorPair.of([ProjPoint(c) for c in ((1, 2, 1), (3, -1, 2), (-2, 5, 3), (4, 1, 1), (0, 3, 2))])
    state = PairState1D.of(
        [ProjPoint(c) for c in ((1, 0), (1, 0), (1, 0), (1, 0), (1, 0))],
        [ProjPoint(c) for c in ((1, 1), (-3, 2), (5, 1), (2, 7), (0, 1))],
    )
    for step, reference, start in (
        (pentagram_step, reference_pentagram_step, hexagon),
        (mp_step, reference_mp_step, pair),
        (mp_inverse, reference_mp_inverse, pair),
        (t1_step, reference_t1_step, state),
    ):
        current = start
        for _ in range(3):
            current, expected = step(current), reference(current)
            assert current == expected


def _plane(*coords):
    return tuple(ProjPoint(c) for c in coords)


PLANTED = [
    # vertices 0 and 2 coincide, so chord 0 (first needed by output 0) is no line
    (pentagram_step, LabeledPolygon2(_plane((0, 0, 1), (1, 0, 1), (0, 0, 1), (1, 1, 1)), 1),
     DegenerateJoin, "output label 2: join of coincident points (0 : 0 : 1)"),
    # chord 3 = v3 v1 is degenerate: first needed by output 0 (as chord k - 1)
    (pentagram_step, LabeledPolygon2(_plane((0, 0, 1), (1, 0, 1), (2, 1, 1), (1, 0, 1)), 1),
     DegenerateJoin, "output label 2: join of coincident points (1 : 0 : 1)"),
    # v1, v2, v3, v4 on y = 0: chords 1 and 2 are one line, met by output 2
    (pentagram_step, LabeledPolygon2(
        _plane((0, 1, 1), (1, 0, 1), (2, 0, 1), (3, 0, 1), (4, 0, 1), (2, 5, 1)), 1),
     DegenerateMeet, "output label 6: meet of identical lines [0 : 1 : 0]"),
    # X_2 is the reflection of X_1, so chord 0 = X_1 X'_2 is no line
    (mp_step, MirrorPair(_plane((1, 2, 1), (1, -2, 1), (3, 1, 1))),
     DegenerateJoin, "output index 1: join of coincident points (1 : 2 : 1)"),
    # chords X_2 X'_3 and X_3 X'_4 are both the line x = 1, met by output 3
    (mp_step, MirrorPair(_plane((5, 1, 1), (1, 2, 1), (1, 3, 1), (1, 5, 1))),
     DegenerateMeet, "output index 3: meet of identical lines [1 : 0 : -1]"),
    # Q_2 = Q_3: the left chord of output 2 is no line
    (mp_inverse, MirrorPair(_plane((1, 2, 1), (3, 1, 1), (3, 1, 1), (0, 4, 1))),
     DegenerateJoin, "output index 2: join of coincident points (3 : 1 : 1)"),
    # Q_4 = Q_1: the right chord Q'_4 Q'_1 of output 1 is no line
    (mp_inverse, MirrorPair(_plane((1, 2, 1), (3, 1, 1), (0, 4, 1), (1, 2, 1))),
     DegenerateJoin, "output index 1: join of coincident points (1 : -2 : 1)"),
    # every Q on x = 0: Q_1 Q_2 and Q'_3 Q'_1 are one line
    (mp_inverse, MirrorPair(_plane((0, 1, 1), (0, 2, 1), (0, 3, 1))),
     DegenerateMeet, "output index 1: meet of identical lines [1 : 0 : 0]"),
    # Y_1 = Y_2 = Y_3: both brackets of entry 2 vanish
    (t1_step, PairState1D(_plane((1, 0), (1, 0), (1, 0), (1, 0)),
                          _plane((2, 1), (2, 1), (2, 1), (5, 1))),
     ZeroDenominator, "entry 2: six-point harmonic solve is indeterminate"),
]


@pytest.mark.parametrize("step, state, error, message", PLANTED)
def test_planted_degeneracies_raise_the_reference_errors(step, state, error, message):
    reference = {
        pentagram_step: reference_pentagram_step,
        mp_step: reference_mp_step,
        mp_inverse: reference_mp_inverse,
        t1_step: reference_t1_step,
    }[step]
    with pytest.raises(error) as exc:
        step(state)
    assert str(exc.value) == message
    assert outcome(reference, state) == (error, message)
