"""Pinned lifting outcomes for every map variant, inferred from the input.

Each family draws seeds 0-59 at bound 10 and hashes three lines per seed:
``mating_orbit_check(P, full=True)``, ``collapse_line_check`` on the lift
with canonical heights, and ``lift_report(P, seed=3)``, each as its ``repr``
or as ``"ErrorType: message"`` for a typed error.  The families cover planar,
corrugated, even and odd mirror inputs and a raw (not canonical) mirror pair,
so a change in how lifting tells the variants apart must keep every report,
error type and message.  The windows are fixed; a draw is never skipped or
re-seeded.
"""

import hashlib
from collections import Counter

import pytest

from pentagram_lab import lifting
from pentagram_lab.corrugated import random_axis_aligned_m
from pentagram_lab.errors import PentagramError, VariantMismatch
from pentagram_lab.lifting import (
    build_A_sequences,
    canonical_heights,
    collapse_line_check,
    lift_report,
    mating_orbit_check,
    parallel_lift,
)
from pentagram_lab.mirror import random_axis_aligned_mirror, random_mirror_pair
from pentagram_lab.pentagram2d import random_axis_aligned

SEEDS = range(60)
BOUND = 10

FAMILIES = {
    "planar_n4": lambda seed: random_axis_aligned(4, seed, BOUND),
    "planar_n5": lambda seed: random_axis_aligned(5, seed, BOUND),
    "corrugated_3_3": lambda seed: random_axis_aligned_m(3, 3, seed, BOUND),
    "corrugated_2_4": lambda seed: random_axis_aligned_m(2, 4, seed, BOUND),
    "mirror_n4": lambda seed: random_axis_aligned_mirror(4, seed, BOUND),
    "mirror_n5": lambda seed: random_axis_aligned_mirror(5, seed, BOUND),
    "raw_mirror_n5": lambda seed: random_mirror_pair(5, seed, BOUND),
}

# (SHA-256 of the per-seed lines, error lines counted by type)
PINS = {
    "planar_n4": (
        "360e6e40e09479fe964ac5e45db829d5f4af81dadb8cd7acf80b59186bdf9bda", {}),
    "planar_n5": (
        "2ef46a66f4c1cc05a6b9154f332bfd48182e8e61959e01e93fc4788457a17de8",
        {"DegenerateMeet": 3}),
    "corrugated_3_3": (
        "2053388664e9aed6fb9c04f5a8251b2826cffb88aba79ff17025da0a91cb8ac2",
        {"DegenerateMeet": 6}),
    "corrugated_2_4": (
        "aaa011535491c097c91e6f8880b3c2537bf8918329a16152a7d3fd934a1b1171",
        {"DegenerateMeet": 18}),
    "mirror_n4": (
        "f414857ca2952e71cd16eef0a7bcf43f65c8ed2e34006dbcb1dea8ef30c9d088", {}),
    "mirror_n5": (
        "acfd25dd48faf205b3258897904b44fea34bd1a97fcdd2676b8ee4235a2d1885",
        {"DegenerateMeet": 3}),
    # a generic pair has no parallel prisms, so only L2.7 runs through
    "raw_mirror_n5": (
        "0d1ed3e10b5a5598aa51f795d70fdf04828d0325ac20b8f80918e9c64c834a1c",
        {"DegenerateSpan": 60, "NotAJoint": 60}),
}


def _outcome(compute) -> str:
    try:
        return repr(compute())
    except PentagramError as exc:
        return f"{type(exc).__name__}: {exc}"


def _collapse(P):
    # the odd mirror builds n sequences and lifts the first n-1; the other
    # variants build exactly n-1
    seqs = build_A_sequences(P)[: P.n - 1]
    pj = parallel_lift(seqs, canonical_heights(seqs[0].count, seqs[0].d))
    return collapse_line_check(P, pj)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_variant_window_pinned(family):
    digest, errors = PINS[family]
    lines = []
    for seed in SEEDS:
        P = FAMILIES[family](seed)
        lines.append(_outcome(lambda: mating_orbit_check(P, full=True)))
        lines.append(_outcome(lambda: _collapse(P)))
        lines.append(_outcome(lambda: lift_report(P, seed=3)))
    found = Counter(line.split(":")[0] for line in lines if ":" in line.split("(")[0])
    assert found == errors
    text = "".join(line + "\n" for line in lines)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_unliftable_input_names_its_type():
    polygon = random_axis_aligned(4, 0).underlying
    with pytest.raises(VariantMismatch) as excinfo:
        lift_report(polygon)
    assert str(excinfo.value) == "no variant for LabeledPolygon2"
    P = random_axis_aligned(4, 0)
    pj = parallel_lift(build_A_sequences(P), canonical_heights(4, 2))
    with pytest.raises(VariantMismatch) as excinfo:
        collapse_line_check(polygon, pj)
    assert str(excinfo.value) == "no variant for LabeledPolygon2"


def test_raw_mirror_pair_has_no_centroid_prediction():
    # the canonical pair's lift, checked against the raw pair it wraps
    P = random_axis_aligned_mirror(4, 0)
    pj = parallel_lift(build_A_sequences(P), canonical_heights(4, 2))
    assert collapse_line_check(P, pj).ok
    with pytest.raises(VariantMismatch) as excinfo:
        collapse_line_check(P.underlying, pj)
    assert str(excinfo.value) == "mirror centroid prediction needs a canonical pair"


@pytest.mark.parametrize("sample, name", [
    (lambda: random_axis_aligned(5, 5), "pentagram_step"),
    (lambda: random_axis_aligned_mirror(5, 5), "mp_step"),
], ids=["planar", "mirror"])
def test_lift_report_reads_the_step_at_call_time(monkeypatch, sample, name):
    # a tracer rebinds the step names in the module; the orbit must see them
    calls = Counter()

    def counted(step):
        def wrapper(*args):
            calls[step.__name__] += 1
            return step(*args)

        return wrapper

    for step in ("pentagram_step", "mp_step"):
        monkeypatch.setattr(lifting, step, counted(getattr(lifting, step)))
    assert lift_report(sample()).ok
    assert calls == {name: 5 - 2}
