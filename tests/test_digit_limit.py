"""Exact values past Python's int-to-string digit limit are printed.

Input literals past ``sys.get_int_max_str_digits()`` are refused at parse
time (``tests/test_serde.py``), but an orbit of accepted values can grow past
the limit.  Such values are printed in chunks of fewer digits than the limit,
and must read exactly as ``str()`` would print them with no limit.  The
sizes here scale with the limit in force, so the same tests exercise the
chunked printer on short values under ``python -X int_max_str_digits=640``.
"""

import json
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from pentagram_lab.cli import entrypoint
from pentagram_lab.lower1d import t1_step
from pentagram_lab.projcore import int_text, orbit
from pentagram_lab.rng import SplitMix64
from pentagram_lab.serde import load_instance

# 0 means no limit, as on Pythons older than 3.10.7
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
# 1,500 digits at the default limit of 4,300
DIGITS = 1500 * (LIMIT or 4300) // 4300


@contextmanager
def no_digit_limit():
    """Lift the limit for the references, and put it back afterwards."""
    if not LIMIT:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(LIMIT)


def wide_int(rng: SplitMix64, digits: int) -> int:
    """A seeded int of exactly ``digits`` digits."""
    low = 10 ** (digits - 1)
    value = 0
    while value < 9 * low:
        value = value * 2**64 + rng.next_u64()
    return low + value % (9 * low)


def wide_p1_document(seed: int) -> dict:
    """A P1 file whose four Y values have ``DIGITS``-digit numerators and
    denominators."""
    rng = SplitMix64(seed)
    ys = []
    for _ in range(4):
        num, den = (wide_int(rng, DIGITS) for _ in range(2))
        with no_digit_limit():
            ys.append(f"{num}/{den}")
    return {"format": "pentagram-lab/v1", "space": "P1", "X": ["inf"] * 4, "Y": ys}


def test_iterate_prints_an_orbit_past_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(wide_p1_document(7)), encoding="utf-8")
    assert entrypoint(["iterate", str(path), "--steps", "3"]) == 0
    out, err = capsys.readouterr()
    assert err == ""

    states = orbit(load_instance(path), t1_step, 3)
    with no_digit_limit():
        expected = [
            " ".join("inf" if y.coords[1] == 0 else str(Fraction(*y.coords)) for y in s.Y)
            for s in states
        ]
    assert out.splitlines() == expected
    if LIMIT:
        widest = max(len(part) for line in expected for part in line.replace("/", " ").split())
        assert widest > LIMIT


def test_wide_literal_is_still_refused(tmp_path, capsys):
    document = wide_p1_document(8)
    with no_digit_limit():
        document["Y"][0] = str(10 ** (LIMIT or 4300))
    path = tmp_path / "wider.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code = entrypoint(["iterate", str(path), "--steps", "1"])
    _, err = capsys.readouterr()
    assert (code, err.startswith("usage error:")) == ((3, True) if LIMIT else (0, False))


WIDTH = (LIMIT or 4300) - 1
BASE = 10**WIDTH
# printed in chunks of WIDTH digits once past the limit
BOUNDARY_VALUES = {
    "zero": 0,
    "small": 7,
    "small-negative": -7,
    "one-chunk": BASE - 1,
    "chunk-and-a-digit": BASE,
    "chunk-and-a-digit-plus-one": BASE + 1,
    "two-chunks-negative": -(BASE**2),
    "two-full-chunks": BASE**2 - 1,
    "zero-padded-chunks": BASE**3 + 5 * BASE + 11,
    "leading-zeros-negative": -(3 * BASE**2 + BASE // 10),
}


@pytest.mark.parametrize("value", list(BOUNDARY_VALUES.values()), ids=list(BOUNDARY_VALUES))
def test_int_text_equals_unlimited_str(value):
    with no_digit_limit():
        expected = str(value)
    assert int_text(value) == expected
