"""Instance files: exact JSON serialization for every polygon space.

Format tag "pentagram-lab/v1".  The ``space`` field picks the payload shape:

* ``P2``        -- labeled planar polygon: ``label_offset`` + vertex pairs.
* ``Pm``        -- corrugated polygon in P^m: ``m``, ``label_offset``,
                   m-tuples of coordinates.
* ``P1``        -- pair of P^1 rows ``X`` and ``Y`` ("inf" marks the point
                   at infinity).
* ``P2-mirror`` -- point list of a mirror configuration.

Every number is a canonical rational string (``"-3/7"``, ``"5"``), so
``loads(dumps(obj))`` returns an equal object and ``dumps`` is byte-stable.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from .corrugated import PolygonM
from .errors import UsageError
from .lower1d import PairState1D
from .mirror import MirrorPair
from .pentagram2d import LabeledPolygon2
from .projcore import P1_INFINITY, ProjPoint, format_p1, format_rational

FORMAT_TAG = "pentagram-lab/v1"

Instance = LabeledPolygon2 | PolygonM | PairState1D | MirrorPair

# the exponent of a literal such as "1e5000", of which Fraction builds the power
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*\Z")


def parse_rational(text: str) -> Fraction:
    """``text`` as an exact rational, or a usage error: the package's one
    parser (instance files, ``--a1`` lists, ``pentagram_lab.parse_rational``).
    A numerator or denominator with more digits than Python converts to a
    string (``sys.get_int_max_str_digits``) is refused: input is held to the
    limit that ``int()`` applies to the digits of a literal, while computed
    values are printed past it (``projcore.int_text``).  A literal whose
    exponent alone puts it past that limit is refused before its power of
    ten is built, even where the mantissa is zero."""
    # 0 means no limit, as on Pythons older than 3.10.7, which lack the call
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        exponent = _EXPONENT.search(text)
        # a nonzero mantissa has fewer than len(text) digits, too few to
        # bring 10**|e| back under the limit
        if limit and exponent and abs(int(exponent[1])) > limit + len(text):
            raise UsageError(f"the exponent of {text!r} passes the {limit}-digit limit")
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc
    widest = max(abs(value.numerator), value.denominator)
    # 2**(3 * limit) < 10**limit, so the power is built only for long values
    if limit and widest.bit_length() > 3 * limit and widest >= 10 ** limit:
        raise UsageError(f"{text!r} has more than {limit} digits")
    return value


def parse_p1(text: str) -> ProjPoint:
    if text.strip() == "inf":
        return P1_INFINITY
    return ProjPoint.p1(parse_rational(text))


def _affine_strings(point: ProjPoint) -> list[str]:
    return [format_rational(c) for c in point.affine_coords()]


def instance_to_dict(obj: Instance) -> dict[str, Any]:
    if isinstance(obj, LabeledPolygon2):
        return {
            "format": FORMAT_TAG,
            "space": "P2",
            "label_offset": obj.label_offset,
            "vertices": [_affine_strings(v) for v in obj.vertices],
        }
    if isinstance(obj, PolygonM):
        return {
            "format": FORMAT_TAG,
            "space": "Pm",
            "m": obj.m,
            "label_offset": obj.label_offset,
            "vertices": [_affine_strings(v) for v in obj.vertices],
        }
    if isinstance(obj, PairState1D):
        return {
            "format": FORMAT_TAG,
            "space": "P1",
            "X": [format_p1(x) for x in obj.X],
            "Y": [format_p1(y) for y in obj.Y],
        }
    if isinstance(obj, MirrorPair):
        return {
            "format": FORMAT_TAG,
            "space": "P2-mirror",
            "P": [_affine_strings(p) for p in obj.points],
        }
    raise UsageError(f"cannot serialize {type(obj).__name__}")


def _parse_vertex(coords: Any, dim: int, where: str) -> ProjPoint:
    if not isinstance(coords, list) or len(coords) != dim:
        raise UsageError(f"{where}: expected {dim} coordinates")
    return ProjPoint.affine(*(parse_rational(str(c)) for c in coords))


def _label_offset(data: dict) -> int:
    offset = data.get("label_offset", 1)
    if type(offset) is not int:  # not bool, an int subclass
        raise UsageError("label_offset must be an integer")
    return offset


def instance_from_dict(data: Any) -> Instance:
    """The instance a parsed file describes.  A file whose content the
    constructors reject (too few points, rows of unequal length, m < 2) is
    a usage error; a degenerate one still raises its ``DegeneracyError``."""
    try:
        return _instance_from_dict(data)
    except ValueError as exc:
        raise UsageError(f"invalid instance: {exc}") from exc


def _instance_from_dict(data: Any) -> Instance:
    if not isinstance(data, dict):
        raise UsageError("instance file must hold a JSON object")
    if data.get("format") != FORMAT_TAG:
        raise UsageError(f'instance file must declare "format": "{FORMAT_TAG}"')
    space = data.get("space")
    if space == "P2":
        verts = data.get("vertices")
        if not isinstance(verts, list):
            raise UsageError("P2 instance needs a vertex list")
        points = tuple(
            _parse_vertex(v, 2, f"vertex {i + 1}") for i, v in enumerate(verts)
        )
        return LabeledPolygon2.of(points, _label_offset(data))
    if space == "Pm":
        m = data.get("m")
        if type(m) is not int:
            raise UsageError("Pm instance needs an integer m")
        verts = data.get("vertices")
        if not isinstance(verts, list):
            raise UsageError("Pm instance needs a vertex list")
        points = tuple(
            _parse_vertex(v, m, f"vertex {i + 1}") for i, v in enumerate(verts)
        )
        return PolygonM.of(m, points, _label_offset(data))
    if space == "P1":
        xs, ys = data.get("X"), data.get("Y")
        if not isinstance(xs, list) or not isinstance(ys, list):
            raise UsageError("P1 instance needs X and Y value lists")
        return PairState1D.of(
            tuple(parse_p1(str(x)) for x in xs),
            tuple(parse_p1(str(y)) for y in ys),
        )
    if space == "P2-mirror":
        pts = data.get("P")
        if not isinstance(pts, list):
            raise UsageError("P2-mirror instance needs a point list P")
        return MirrorPair.of(
            tuple(_parse_vertex(p, 2, f"point {i + 1}") for i, p in enumerate(pts))
        )
    raise UsageError(f"unknown space {space!r}")


def dumps(obj: Instance) -> str:
    return json.dumps(instance_to_dict(obj), sort_keys=True, indent=2) + "\n"


def loads(text: str | bytes) -> Instance:
    # ValueError: JSONDecodeError, bytes that do not decode, and integers
    # past Python's digit limit; RecursionError: nesting too deep to decode
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"invalid JSON: {exc}") from exc
    return instance_from_dict(data)


def save_instance(path: str | Path, obj: Instance) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def load_instance(path: str | Path) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    return loads(text)
