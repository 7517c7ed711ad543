"""Instance files round-trip losslessly across all four spaces, and any
file content loads to an instance or raises a typed error."""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pentagram_lab.cli import entrypoint
from pentagram_lab.corrugated import PolygonM, random_axis_aligned_m
from pentagram_lab.errors import PentagramError, UsageError
from pentagram_lab.lower1d import PairState1D
from pentagram_lab.mirror import MirrorPair, random_mirror_pair
from pentagram_lab.pentagram2d import LabeledPolygon2, random_axis_aligned
from pentagram_lab.projcore import P1_INFINITY
from pentagram_lab.serde import (
    FORMAT_TAG,
    dumps,
    format_p1,
    instance_to_dict,
    load_instance,
    loads,
    parse_p1,
    save_instance,
)

from conftest import p1, pt2


def test_p2_round_trip(hexagon):
    text = dumps(hexagon)
    back = loads(text)
    assert isinstance(back, LabeledPolygon2)
    assert back == hexagon
    assert dumps(back) == text


def test_pm_round_trip():
    poly = random_axis_aligned_m(3, 3, seed=5).underlying
    back = loads(dumps(poly))
    assert isinstance(back, PolygonM)
    assert back == poly


def test_p1_round_trip_keeps_infinity():
    state = PairState1D.of(
        (P1_INFINITY, P1_INFINITY, P1_INFINITY),
        (p1(1), p1(Fraction(-5, 3)), p1(6)),
    )
    text = dumps(state)
    assert '"inf"' in text
    back = loads(text)
    assert isinstance(back, PairState1D)
    assert back == state


def test_mirror_round_trip():
    pair = random_mirror_pair(4, seed=9)
    back = loads(dumps(pair))
    assert isinstance(back, MirrorPair)
    assert back == pair


def test_dumps_is_sorted_and_newline_terminated(hexagon):
    text = dumps(hexagon)
    assert text.endswith("\n")
    data_keys = list(instance_to_dict(hexagon))
    assert text.index('"format"') < text.index('"label_offset"') < text.index('"space"')
    assert set(data_keys) == {"format", "space", "label_offset", "vertices"}


def test_negative_and_fractional_coordinates():
    poly = LabeledPolygon2.of(
        (pt2(0, 0), pt2(Fraction(4, 7), 0), pt2(Fraction(4, 7), Fraction(-2, 3)), pt2(0, Fraction(-2, 3))),
        1,
    )
    text = dumps(poly)
    assert '"4/7"' in text and '"-2/3"' in text
    assert loads(text) == poly


def test_label_offset_preserved():
    poly = random_axis_aligned(4, seed=3).underlying
    shifted = LabeledPolygon2.of(poly.vertices, 7)
    assert loads(dumps(shifted)).label_offset == 7


def test_missing_format_tag():
    with pytest.raises(UsageError) as exc:
        loads('{"space": "P2", "vertices": []}')
    assert "format" in str(exc.value)


def test_unknown_space():
    with pytest.raises(UsageError) as exc:
        loads('{"format": "pentagram-lab/v1", "space": "P9", "vertices": []}')
    assert "unknown space" in str(exc.value)


def test_bad_rational_rejected():
    with pytest.raises(UsageError) as exc:
        loads(
            '{"format": "pentagram-lab/v1", "space": "P2",'
            ' "vertices": [["0", "0"], ["3/", "0"], ["1", "1"], ["0", "1"]]}'
        )
    assert "rational" in str(exc.value)


def test_invalid_json_rejected():
    with pytest.raises(UsageError) as exc:
        loads("{not json")
    assert "invalid JSON" in str(exc.value)


def test_wrong_arity_rejected():
    with pytest.raises(UsageError) as exc:
        loads(
            '{"format": "pentagram-lab/v1", "space": "P2",'
            ' "vertices": [["0", "0", "0"]]}'
        )
    assert "expected 2 coordinates" in str(exc.value)


def test_file_round_trip(tmp_path, hexagon):
    path = tmp_path / "hex.json"
    save_instance(path, hexagon)
    assert load_instance(path) == hexagon


def test_missing_file():
    with pytest.raises(UsageError):
        load_instance("/nonexistent/path.json")


def test_p1_text_forms():
    assert format_p1(P1_INFINITY) == "inf"
    assert format_p1(p1(Fraction(-5, 3))) == "-5/3"
    assert parse_p1("inf") == P1_INFINITY
    assert parse_p1("-5/3") == p1(Fraction(-5, 3))


# ---------------------------------------------------------------------------
# the file boundary under generated input: JSON ints and short rational
# strings as numbers, bounded lists, instance-shaped objects most of the time

rationals = st.one_of(
    st.integers(-9, 9),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(1, 9)),
)
numbers = rationals | st.sampled_from(["inf", "", "1/", "1/0", "x", " 2 ", "1.5", "-0"])
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)
SPACE_FIELDS = {
    "P2": ("vertices", "label_offset"),
    "Pm": ("m", "vertices", "label_offset"),
    "P1": ("X", "Y"),
    "P2-mirror": ("P",),
    "P9": ("vertices",),
}


def _fields(m, dim, num):
    vertex = st.lists(num, min_size=dim, max_size=dim)
    return {
        "m": st.just(m),
        "label_offset": st.integers(-3, 9),
        "vertices": st.lists(vertex, min_size=3, max_size=8),
        "P": st.lists(vertex, min_size=3, max_size=6),
        "X": st.lists(num, min_size=3, max_size=6),
        "Y": st.lists(num, min_size=3, max_size=6),
    }


@st.composite
def instance_documents(draw):
    """An instance-shaped object, each field well formed, holding a bad
    number, ill typed or missing; now and then any JSON value."""
    if draw(st.integers(0, 5)) == 0:
        return draw(json_values)
    space = draw(st.sampled_from(sorted(SPACE_FIELDS)))
    m = draw(st.integers(1, 4))
    dim = m if space == "Pm" else 2
    good, bad = _fields(m, dim, rationals), _fields(m, dim, numbers)
    doc = {"format": draw(st.sampled_from([FORMAT_TAG] * 5 + ["pentagram-lab/v0"])),
           "space": space}
    for key in SPACE_FIELDS[space]:
        kind = draw(st.integers(0, 9))
        if kind == 0:
            continue
        doc[key] = draw({1: json_values, 2: bad[key]}.get(kind, good[key]))
    return doc


@st.composite
def file_bytes(draw):
    """Encoded documents, often truncated or with one byte changed, and
    arbitrary short byte strings."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    raw = bytearray(json.dumps(draw(instance_documents())).encode())
    kind = draw(st.integers(0, 3))
    if kind == 1:
        del raw[draw(st.integers(0, len(raw) - 1)):]
    elif kind == 2:
        raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    return bytes(raw)


INSTANCE_TYPES = (LabeledPolygon2, PolygonM, PairState1D, MirrorPair)


def _load_or_typed_error(load, arg):
    try:
        inst = load(arg)
    except PentagramError:
        return None
    assert isinstance(inst, INSTANCE_TYPES)
    assert loads(dumps(inst)) == inst
    return inst


@settings(max_examples=300, deadline=None)
@given(instance_documents())
def test_loads_gives_an_instance_or_a_typed_error(doc):
    _load_or_typed_error(loads, json.dumps(doc))


@settings(max_examples=200, deadline=None)
@given(file_bytes())
def test_load_bytes_gives_an_instance_or_a_typed_error(raw):
    # json.loads detects UTF-16 and UTF-32 in bytes; a file is read as UTF-8
    _load_or_typed_error(loads, raw)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        _load_or_typed_error(load_instance, path)


@settings(max_examples=150, deadline=None)
@given(st.one_of(instance_documents().map(lambda doc: json.dumps(doc).encode()),
                 file_bytes()))
def test_iterate_file_exit_code(raw):
    # 0, 2 or 3: never a failed verification, never an uncaught exception
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = entrypoint(["iterate", path, "--steps", "1"])
    assert code in (0, 2, 3)
