"""T002 reads its collapse off the two-line stage.

``collapse_orbit`` stops its tau-function loop (``pentagram2d._tau_states``)
after step n - 2 and certifies that stage on the loop's raw integer triples
(``_certify_two_lines``).  Where both vertex families lie on lines A != B
and no two consecutive vertices of one family coincide, every chord of step
n - 1 is A or B, so every vertex of step n - 1 is A x B and the loop stops
there.  Otherwise the loop runs step n - 1, and where one of its guards
fails the verifier runs the public ``orbit``.

- Over fixed windows, never re-seeded (T002 n = 2-12 x seeds 0-59 at bounds
  max(10, n) and 3n, and n = 2 x seeds 0-299), ``repr`` of every report
  equals that of a report built from the public orbit with its own
  two-line certificate, and every draw on which the public orbit raises
  raises the same error type and message.  The draws that decline the
  shortcut are pinned with the path each one takes.
- Planted stages whose lines coincide, or whose family has two coincident
  consecutive points, decline the shortcut; ``pentagram_step`` raises on
  both.
- The 2x2 minor that tells two points of a known line apart agrees with the
  cross product on hypothesis-drawn points of a line.
"""

import pytest
from hypothesis import given, settings, strategies as st

from pentagram_lab import pentagram2d
from pentagram_lab.errors import DegeneracyError, DegenerateJoin, DegenerateMeet
from pentagram_lab.pentagram2d import (
    CollapseReport2,
    LabeledPolygon2,
    TwoLineStage,
    _certify_two_lines,
    _family_line,
    center_of_mass_affine,
    collapse_orbit,
    pentagram_step,
    random_axis_aligned,
)
from pentagram_lab.projcore import ProjPoint, join_points, orbit

WINDOW = [(n, seed, bound) for n in range(2, 13) for seed in range(60)
          for bound in (max(10, n), 3 * n)]
N2_WINDOW = [(2, seed, 10) for seed in range(300)]


def _public_line(points):
    """The line through ``points`` from ``join_points``, or None where they
    are one point or not collinear."""
    other = next((p for p in points[1:] if p != points[0]), None)
    if other is None:
        return None
    line = join_points(points[0], other)
    return line if all(line.incident(p) for p in points) else None


def _public_report(P):
    """The report read off the public orbit: the two-line certificate of
    step n - 2 and the vertices of step n - 1.  Raises the orbit's error."""
    polys = orbit(P.underlying, pentagram_step, P.n - 1)
    centroid = center_of_mass_affine(P.underlying)
    stage = polys[-2].vertices
    lines = _public_line(stage[0::2]), _public_line(stage[1::2])
    if None in lines:
        two_lines = TwoLineStage(None, False, False)
    else:
        two_lines = TwoLineStage(lines, True, all(ln.incident(centroid) for ln in lines))
    final = polys[-1].vertices
    all_equal = len(set(final)) == 1
    point = final[0] if all_equal else None
    return CollapseReport2(P.n - 1, two_lines, point, centroid, all_equal,
                           all_equal and point == centroid)


def _outcome(build, P):
    try:
        return repr(build(P))
    except DegeneracyError as exc:
        return type(exc).__name__, str(exc)


@pytest.fixture
def paths(monkeypatch):
    """Record, per ``collapse_orbit`` call, the loop states it asks for and
    whether it runs the public ``orbit``."""
    log = []
    states, public_orbit = pentagram2d._tau_states, pentagram2d.orbit

    def asking(P):
        it = states(P)
        for i in range(P.n):
            log.append(i)
            state = next(it, None)
            if state is None:
                return
            yield state

    def counted(*args):
        log.append("orbit")
        return public_orbit(*args)

    monkeypatch.setattr(pentagram2d, "_tau_states", asking)
    monkeypatch.setattr(pentagram2d, "orbit", counted)
    return log


def _census(draws, log):
    """The shortcut count and, for every other draw, its path: whether the
    loop was asked for step n - 1 and whether the public orbit ran."""
    shortcut, declined = 0, []
    for key in draws:
        P = random_axis_aligned(*key)
        want = _outcome(_public_report, P)
        log.clear()
        assert _outcome(collapse_orbit, P) == want, key
        asked = [i for i in log if i != "orbit"]
        if max(asked) == P.n - 2 and "orbit" not in log:
            shortcut += 1
        else:
            path = ("step n-1" if max(asked) == P.n - 1 else f"step {max(asked)}",
                    "orbit" if "orbit" in log else "loop")
            declined.append((key, path, want[0] if isinstance(want, tuple) else "ok"))
    return shortcut, declined


def test_reports_match_the_public_orbit_and_the_shortcut_tally_is_pinned(paths):
    shortcut, declined = _census(WINDOW, paths)
    assert len(WINDOW) == 1320
    assert shortcut == 1315
    # the two n = 3 draws reach the two-line stage with A = B, like the CLI's
    # seed-265 draw; the other three fail a loop guard at step 2
    assert declined == [
        ((3, 1, 9), ("step n-1", "orbit"), "DegenerateMeet"),
        ((3, 49, 9), ("step n-1", "orbit"), "DegenerateMeet"),
        ((8, 1, 10), ("step 2", "orbit"), "DegenerateMeet"),
        ((8, 12, 10), ("step 2", "orbit"), "DegenerateMeet"),
        ((9, 12, 10), ("step 2", "orbit"), "DegenerateMeet"),
    ]


def test_every_n2_draw_reads_its_collapse_off_the_input(paths):
    """At n = 2 stage n - 2 is the input: the loop runs no step."""
    assert _census(N2_WINDOW, paths) == (300, [])
    assert set(paths) == {0}


def _stage(*points):
    return [tuple(p) for p in points]


CENTROID = ProjPoint((0, 0, 1))


def _declines(stage, error):
    """The stage is certified two-line, gives no collapse point, and
    ``pentagram_step`` on it raises ``error``."""
    two_lines, point = _certify_two_lines(stage, CENTROID)
    assert two_lines.alternating and point is None
    poly = LabeledPolygon2(tuple(ProjPoint(p) for p in stage), 1)
    with pytest.raises(error):
        pentagram_step(poly)
    return two_lines


def test_a_stage_whose_lines_coincide_declines_the_shortcut():
    # both families on y = 0, the odd one written with unreduced triples
    two_lines = _declines(_stage((0, 0, 1), (6, 0, 2), (1, 0, 1), (12, 0, 3),
                                 (2, 0, 1), (-5, 0, 1)), DegenerateMeet)
    A, B = two_lines.lines
    assert A == B and two_lines.through_centroid


def test_a_stage_with_coincident_consecutive_points_declines_the_shortcut():
    # evens on y = 0 (coefficient x is 0, so the minor reads x and w), with
    # vertices 2 and 4 one point written twice; odds on x = 5
    two_lines = _declines(_stage((0, 0, 1), (5, 1, 1), (1, 0, 1), (5, 2, 1),
                                 (3, 0, 3), (5, 3, 1)), DegenerateJoin)
    A, B = two_lines.lines
    assert A != B and not two_lines.through_centroid
    # the wrap-around pair: the odd family's last and first vertices coincide
    _declines(_stage((0, 0, 1), (10, 6, 2), (1, 0, 1), (5, 2, 1), (2, 0, 1), (5, 3, 1)),
              DegenerateJoin)


def test_a_stage_that_allows_it_gives_the_meet_of_its_lines():
    stage = _stage((0, 0, 1), (5, 1, 1), (1, 0, 1), (5, 2, 1), (2, 0, 1), (5, 3, 1))
    two_lines, point = _certify_two_lines(stage, CENTROID)
    assert point == ProjPoint((5, 0, 1))
    step = pentagram_step(LabeledPolygon2(tuple(ProjPoint(p) for p in stage), 1))
    assert set(step.vertices) == {point}


def test_a_family_off_one_line_gives_no_lines():
    stage = _stage((0, 0, 1), (5, 1, 1), (1, 0, 1), (5, 2, 1), (2, 1, 1), (5, 3, 1))
    assert _certify_two_lines(stage, CENTROID) == (TwoLineStage(None, False, False), None)
    one_point = _stage((1, 1, 1), (5, 1, 1), (2, 2, 2), (5, 2, 1))
    assert _certify_two_lines(one_point, CENTROID) == (TwoLineStage(None, False, False), None)


def test_lines_map_back_from_the_integer_frame():
    """A stage in the frame (x, y, w) -> (Lb x, La y, La Lb w) certifies the
    lines through its mapped-back points."""
    La, Lb = 6, 35
    stage = _stage((0, 0, 1), (5, 1, 1), (1, 3, 1), (6, 3, 1), (2, 6, 1), (7, 5, 1))
    back = [ProjPoint((Lb * x, La * y, La * Lb * w)) for x, y, w in stage]
    two_lines, point = _certify_two_lines(stage, CENTROID, La, Lb)
    A, B = two_lines.lines
    assert A == join_points(back[0], back[2]) and B == join_points(back[1], back[3])
    assert point == pentagram_step(LabeledPolygon2(tuple(back), 1)).vertices[0]


def _cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _points_on_a_line():
    triple = st.tuples(*[st.integers(-6, 6)] * 3)
    combo = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any)
    return st.tuples(triple, triple, st.lists(combo, min_size=2, max_size=6))


@settings(max_examples=200, deadline=None)
@given(_points_on_a_line())
def test_the_minor_tells_points_of_a_line_apart_as_the_cross_product_does(drawn):
    p, q, combos = drawn
    points = [tuple(s * a + t * b for a, b in zip(p, q)) for s, t in combos]
    points = [v for v in points if any(v)]
    if len(points) < 2:
        return
    fit = _family_line(points)
    base = next((v for v in points[1:] if any(_cross(points[0], v))), None)
    if base is None:
        assert fit is None
        return
    assert fit is not None
    apart = all(any(_cross(u, v)) for u, v in zip(points, points[1:] + points[:1]))
    assert fit[1] == apart
