"""Shared fixtures: the worked hexagon and small constructors."""

from fractions import Fraction

import pytest

from pentagram_lab.projcore import ProjPoint
from pentagram_lab.pentagram2d import AxisAligned2, LabeledPolygon2

HEX_VERTICES = [(0, 0), (4, 0), (4, 2), (1, 2), (1, 5), (0, 5)]


def pt2(x, y) -> ProjPoint:
    return ProjPoint.affine(Fraction(x), Fraction(y))


def p1(x) -> ProjPoint:
    return ProjPoint.p1(Fraction(x))


@pytest.fixture
def hexagon() -> LabeledPolygon2:
    return LabeledPolygon2.of([pt2(x, y) for x, y in HEX_VERTICES], 1)


@pytest.fixture
def hexagon_aligned(hexagon) -> AxisAligned2:
    return AxisAligned2.from_polygon(hexagon)


@pytest.fixture
def recorded_pass(monkeypatch):
    """Run the slicing pass of the public checks on a polyjoint.  Returns its
    verdicts and line, the (g, k) of each ``flat_H`` it built, and
    {(g, k, h): points} of every slice it mated, in ``_reduced`` pairs."""
    from pentagram_lab import lifting

    def run(pj):
        built, levels, mates = [], [], []
        flat_H, cuts, mated = lifting.flat_H, lifting._hyperplane_cuts, lifting._mates

        def recorded(record, original):
            def wrapper(*args):
                record.append(original(*args))
                return record[-1]

            return wrapper

        with monkeypatch.context() as patch:
            patch.setattr(lifting, "flat_H", lambda g, k, hyperplanes: (
                built.append((g, k)) or flat_H(g, k, hyperplanes)))
            patch.setattr(lifting, "_hyperplane_cuts", recorded(levels, cuts))
            patch.setattr(lifting, "_mates", recorded(mates, mated))
            verdicts = lifting._checked_pass(pj)
        # level 1 is one dict; each level above mates every (k, h) in order
        n = pj.n
        keys = [(g, k, h) for g in range(2, n) for k in range(g, 2 * (n - 1) - g + 1, 2)
                for h in pj.prism_labels()]
        slices = {(1, k, h): points for (k, h), points in levels[0].items()}
        slices.update((key, points) for key, points in zip(keys, mates, strict=True)
                      if points is not None)
        return verdicts, built, slices

    return run
