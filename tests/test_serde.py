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

import pentagram_lab
from pentagram_lab import serde
from pentagram_lab.cli import CLAIMS, LIFT_CHECKS, entrypoint
from pentagram_lab.corrugated import PolygonM, random_axis_aligned_m
from pentagram_lab.errors import PentagramError, UsageError
from pentagram_lab.lower1d import PairState1D, random_b
from pentagram_lab.mirror import MirrorPair, random_axis_aligned_mirror, random_mirror_pair
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
    parse_rational,
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


@pytest.mark.parametrize("text", ["1e4299", "-1e-4299", "12345e4295", "0.5e4300"])
def test_rational_at_the_digit_limit_loads(text):
    value = parse_rational(text)
    assert max(len(str(value.numerator).lstrip("-")), len(str(value.denominator))) == 4300


@pytest.mark.parametrize("text", ["1e4300", "-1e-4300", "12345e4296", "1e4306", "1e5000"])
def test_rational_past_the_digit_limit_rejected(text):
    with pytest.raises(UsageError, match="4300"):
        parse_rational(text)


def test_long_exponent_rejected_before_its_power_is_built(monkeypatch):
    def build(text):
        raise AssertionError(f"{text} reached the Fraction constructor")

    monkeypatch.setattr(serde, "Fraction", build)
    # the package-level parser is the same guarded one
    for parse in (parse_rational, pentagram_lab.parse_rational):
        with pytest.raises(UsageError, match="exponent"):
            parse("1e2000000")


@pytest.mark.parametrize("value", ["1e5000", "1e2000000"])
def test_iterate_file_with_a_rational_past_the_digit_limit(tmp_path, value):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"format": FORMAT_TAG, "space": "P2",
                                "vertices": [[value, "0"], ["1", "0"], ["1", "1"], ["0", "1"]]}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entrypoint(["iterate", str(path), "--steps", "0"])
    assert (code, out.getvalue()) == (3, "")
    assert err.getvalue() == f"usage error: the exponent of '{value}' passes the 4300-digit limit\n"


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
numbers = rationals | st.sampled_from(["inf", "", "1/", "1/0", "x", " 2 ", "1.5", "-0",
                                      "1e5000", "-2e-4301"])
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


SAMPLERS = (
    lambda n, seed, bound: random_axis_aligned(n, seed, bound).underlying,
    lambda n, seed, bound: random_axis_aligned_m(3, n, seed, bound).underlying,
    lambda n, seed, bound: random_axis_aligned_mirror(n, seed, bound).underlying,
    random_mirror_pair,
    lambda n, seed, bound: random_b(n, seed, bound).initial_state(),
)


@st.composite
def claim_documents(draw):
    """Documents a claim can take: drawn by a sampler at a small bound, or a
    planar polygon on small integer levels, which often coincide; else any
    document of ``instance_documents``."""
    kind = draw(st.integers(0, 2))
    n = draw(st.integers(2, 5))
    if kind == 1:
        sample = draw(st.sampled_from(SAMPLERS))
        seed, bound = draw(st.integers(0, 2**32)), draw(st.integers(2, 10))
        try:
            return instance_to_dict(sample(n, seed, bound))
        except (ValueError, PentagramError):  # a size or bound the sampler cannot take
            pass
    if kind == 2:
        xs, ys = (draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)) for _ in "xy")
        vertices = []
        for i in range(n):
            vertices += [[str(xs[i]), str(ys[i])], [str(xs[(i + 1) % n]), str(ys[i])]]
        return {"format": FORMAT_TAG, "space": "P2", "vertices": vertices}
    return draw(instance_documents())


@settings(max_examples=150, deadline=None)
@given(doc=claim_documents(), command=st.sampled_from(
    [("verify", "--theorem", claim) for claim in CLAIMS]
    + [("lift", "--check", check) for check in sorted(LIFT_CHECKS)]
    + [("verify", "--theorem", "T005", "--a1")]),
    values=st.lists(numbers.map(str), max_size=6).map(",".join))
def test_claim_command_exit_code(doc, command, values):
    # a file for verify and lift, a value list for --a1: exit 0-3, never raise
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = [*command[:-1], f"--a1={values}"] if command[-1] == "--a1" else [*command, path]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = entrypoint(argv)
    assert code in (0, 1, 2, 3)
