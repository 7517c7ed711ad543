"""End-to-end CLI: exit codes, exact stdout, determinism."""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pentagram_lab
from pentagram_lab import cli
from pentagram_lab.cli import entrypoint
from pentagram_lab.errors import DimensionMismatch, UsageError
from pentagram_lab.serde import dumps, load_instance

HEX_INSTANCE = """\
{
  "format": "pentagram-lab/v1",
  "space": "P2",
  "label_offset": 1,
  "vertices": [["0","0"],["4","0"],["4","2"],["1","2"],["1","5"],["0","5"]]
}
"""

B126_INSTANCE = """\
{
  "format": "pentagram-lab/v1",
  "space": "P1",
  "X": ["inf", "inf", "inf"],
  "Y": ["1", "2", "6"]
}
"""

MIRROR_INSTANCE = """\
{
  "format": "pentagram-lab/v1",
  "space": "P2-mirror",
  "P": [["1","-1"],["2","-1"],["6","-1"]]
}
"""


# P^3, m = 3, n = 3: written by `gen --map corrugated --m 3 --n 3 --seed 0 --range 3`
PM_INSTANCE = """\
{
  "format": "pentagram-lab/v1",
  "space": "Pm",
  "m": 3,
  "label_offset": 1,
  "vertices": [
    ["-2","-1/2","1/3"], ["-3","-1/2","1/3"], ["-3","-3/2","1/3"],
    ["-3","-3/2","-1/3"], ["-7/2","-3/2","-1/3"], ["-7/2","-13/6","-1/3"],
    ["-7/2","-13/6","2/3"], ["-2","-13/6","2/3"], ["-2","-1/2","2/3"]
  ]
}
"""

# a generic mirror pair (random_mirror_pair(4, 0, 5)): its points do not share
# one height, so it has no axis-aligned canonical form
GENERIC_MIRROR_INSTANCE = """\
{
  "format": "pentagram-lab/v1",
  "space": "P2-mirror",
  "P": [["-4","-4/5"],["2","-3"],["4","-1/2"],["2","5/3"]]
}
"""

CLAIM_IDS = ("T002", "T003", "T005", "T007", "T008",
             "L2-mating", "L2-lifting", "L4-correspondence")


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("hex", HEX_INSTANCE), ("b126", B126_INSTANCE),
                       ("mirror", MIRROR_INSTANCE), ("pm", PM_INSTANCE),
                       ("generic_mirror", GENERIC_MIRROR_INSTANCE)):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        paths[name] = str(path)
    return paths


@pytest.fixture
def hex_file(tmp_path):
    path = tmp_path / "hex.json"
    path.write_text(HEX_INSTANCE)
    return str(path)


@pytest.fixture
def b126_file(tmp_path):
    path = tmp_path / "b126.json"
    path.write_text(B126_INSTANCE)
    return str(path)


@pytest.fixture
def mirror_file(tmp_path):
    path = tmp_path / "mirror.json"
    path.write_text(MIRROR_INSTANCE)
    return str(path)


def run(capsys, *argv):
    code = entrypoint(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- gen ---------------------------------------------------------------


def test_gen_round_trip(tmp_path, capsys):
    out_path = tmp_path / "inst.json"
    code, _, _ = run(capsys, "gen", "--map", "pent2d", "--n", "4",
                     "--seed", "1", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert dumps(load_instance(out_path)) == text


def test_gen_stdout_matches_file(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--map", "mirror", "--n", "3", "--seed", "2")
    assert code == 0
    out_path = tmp_path / "m.json"
    run(capsys, "gen", "--map", "mirror", "--n", "3", "--seed", "2",
        "--out", str(out_path))
    assert out == out_path.read_text()


def test_gen_corrugated_needs_m(capsys):
    code, _, err = run(capsys, "gen", "--map", "corrugated", "--n", "4")
    assert code == 3
    assert "usage error" in err


# -- iterate -----------------------------------------------------------


def test_iterate_hexagon_collapse(hex_file, capsys):
    code, out, _ = run(capsys, "iterate", hex_file, "--steps", "2")
    assert code == 0
    assert "step 0:" in out and "step 2:" in out
    assert "(20/7, 10/7)" in out and "(-1/2, 13/2)" in out
    assert out.rstrip().endswith("all vertices = (5/3, 7/3)")


def test_iterate_rows_collapse(b126_file, capsys):
    code, out, _ = run(capsys, "iterate", b126_file, "--steps", "2")
    assert code == 0
    assert out.splitlines() == ["1 2 6", "11/6 2/3 34/9", "3 3 3"]


def test_iterate_mirror(mirror_file, capsys):
    code, out, _ = run(capsys, "iterate", mirror_file, "--steps", "2")
    assert code == 0
    assert out.rstrip().endswith("all vertices = (3, -1/3)")


def test_iterate_corrugated(files, capsys):
    step0 = ["(-2, -1/2, 1/3)", "(-3, -1/2, 1/3)", "(-3, -3/2, 1/3)", "(-3, -3/2, -1/3)",
             "(-7/2, -3/2, -1/3)", "(-7/2, -13/6, -1/3)", "(-7/2, -13/6, 2/3)",
             "(-2, -13/6, 2/3)", "(-2, -1/2, 2/3)"]
    step1 = ["(-4, -5/2, -1)", "(-9/2, -7/2, -5/3)", "(-16/5, -53/30, 1/15)",
             "(-25/8, -5/3, -1/12)", "(-43/14, -71/42, -1/21)", "(-19/8, -11/12, 5/12)",
             "(-13/5, -7/6, 7/15)", "(-21/8, -9/8, 11/24)", "(-1, 1/2, 1)"]
    collapse = "(-17/6, -25/18, 2/9)"
    lines = ["step 0:", *step0, "step 1:", *step1, "step 2:", *[collapse] * 9,
             f"all vertices = {collapse}"]
    assert run(capsys, "iterate", files["pm"], "--steps", "2") == (
        0, "\n".join(lines) + "\n", "")


B126_SVG = """\
<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="640" height="640" \
viewBox="0 0 640 640">
<polyline points="66.25,211.25 175,211.25 610,211.25" fill="none" stroke="#1f77b4" \
stroke-width="1.5" />
<circle cx="66.25" cy="211.25" r="2.5" fill="#1f77b4" />
<circle cx="175" cy="211.25" r="2.5" fill="#1f77b4" />
<circle cx="610" cy="211.25" r="2.5" fill="#1f77b4" />
<polyline points="156.875,320 30,320 368.333333333,320" fill="none" stroke="#d62728" \
stroke-width="1.5" />
<circle cx="156.875" cy="320" r="2.5" fill="#d62728" />
<circle cx="30" cy="320" r="2.5" fill="#d62728" />
<circle cx="368.333333333" cy="320" r="2.5" fill="#d62728" />
<polyline points="283.75,428.75 283.75,428.75 283.75,428.75" fill="none" stroke="#2ca02c" \
stroke-width="1.5" />
<circle cx="283.75" cy="428.75" r="2.5" fill="#2ca02c" />
<circle cx="283.75" cy="428.75" r="2.5" fill="#2ca02c" />
<circle cx="283.75" cy="428.75" r="2.5" fill="#2ca02c" />
<circle cx="283.75" cy="428.75" r="4" fill="none" stroke="#000000" stroke-width="1.5" />
<line x1="275.75" y1="428.75" x2="291.75" y2="428.75" stroke="#000000" stroke-width="1" />
<line x1="283.75" y1="420.75" x2="283.75" y2="436.75" stroke="#000000" stroke-width="1" />
</svg>
"""


def test_iterate_rows_svg(b126_file, tmp_path, capsys):
    svg = tmp_path / "rows.svg"
    assert run(capsys, "iterate", b126_file, "--steps", "2", "--svg", str(svg)) == (
        0, "1 2 6\n11/6 2/3 34/9\n3 3 3\n", "")
    assert svg.read_text() == B126_SVG


def test_iterate_past_collapse_is_degenerate(hex_file, capsys):
    code, _, err = run(capsys, "iterate", hex_file, "--steps", "3")
    assert code == 2
    assert err.startswith("degenerate input: step 3:")


def test_iterate_svg_deterministic(hex_file, tmp_path, capsys):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(capsys, "iterate", hex_file, "--steps", "2", "--svg", str(a))[0] == 0
    assert run(capsys, "iterate", hex_file, "--steps", "2", "--svg", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith('<?xml version="1.0"')


@pytest.mark.parametrize("argv", [
    ("gen", "--map", "pent2d", "--n", "3", "--out", "{missing}"),
    ("iterate", "{b126}", "--steps", "1", "--svg", "{missing}"),
    ("iterate", "{hex}", "--steps", "1", "--svg", "{missing}"),
    ("iterate", "{mirror}", "--steps", "1", "--svg", "{missing}"),
], ids=["gen", "iterate-rows", "iterate-points", "iterate-mirror"])
def test_unwritable_output_path_is_usage_error(files, tmp_path, capsys, argv):
    missing = tmp_path / "nodir" / "x.out"
    argv = [a.format(missing=missing, **files) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"usage error: cannot write {missing}: " \
        f"[Errno 2] No such file or directory: '{missing}'\n"
    assert not missing.parent.exists()


def test_iterate_svg_of_a_vertex_at_infinity(tmp_path, capsys):
    # the iterates are printed before the drawing fails on the point at infinity
    path, svg = tmp_path / "p3.json", tmp_path / "p3.svg"
    assert run(capsys, "gen", "--map", "pent2d", "--n", "3", "--seed", "3",
               "--range", "3", "--out", str(path)) == (0, "", "")
    assert run(capsys, "iterate", str(path), "--steps", "1", "--svg", str(svg)) == (
        2,
        "step 0:\n(-1, -1)\n(1, -1)\n(1, 2)\n(0, 2)\n(0, 0)\n(-1, 0)\n"
        "step 1:\n(-1/2, -1/4)\n(1/3, 1)\n(2/5, 4/5)\n[1 : 2 : 0]\n(-2, -2)\n(-1/3, -1/3)\n",
        "degenerate input: (1 : 2 : 0) has no affine coordinates\n",
    )
    assert not svg.exists()


def test_iterate_negative_steps(hex_file, capsys):
    assert run(capsys, "iterate", hex_file, "--steps", "-1")[0] == 3


def test_iterate_missing_file(capsys):
    code, _, err = run(capsys, "iterate", "/no/such/file.json", "--steps", "1")
    assert code == 3
    assert "usage error" in err


# -- verify (single instance) -------------------------------------------


def test_verify_t002_file(hex_file, capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "T002", hex_file)
    assert code == 0
    report = json.loads(out)
    assert report["passes"] == 1 and report["failures"] == []
    assert report["values"]["centroid"] == "(5/3, 7/3)"
    assert report["values"]["collapse_point"] == "(5/3, 7/3)"
    assert report["values"]["steps_taken"] == 2


def test_verify_t008_file(b126_file, capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "T008", b126_file)
    assert code == 0
    report = json.loads(out)
    assert report["values"]["final_row"] == "3 3 3"


def test_verify_t008_rejects_finite_first_row(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(B126_INSTANCE.replace('"inf", "inf", "inf"', '"0", "0", "0"'))
    code, _, err = run(capsys, "verify", "--theorem", "T008", str(path))
    assert code == 3
    assert "all-infinity first row" in err


def test_verify_t007_file(mirror_file, capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "T007", mirror_file)
    assert code == 0
    assert json.loads(out)["values"]["collapse_point"] == "(3, -1/3)"


def test_verify_t005_a1(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "T005", "--a1", "7,5,-3")
    assert code == 0
    report = json.loads(out)
    assert report["values"]["constant_value"] == "3"
    assert report["values"]["diamonds_sound"] is True


def test_verify_t005_a1_negative_first_value(capsys):
    # a value that starts with '-' belongs to --a1, it is not an option
    code, out, _ = run(capsys, "verify", "--theorem", "T005", "--a1", "-3/7,1/2,2")
    assert code == 0
    assert json.loads(out)["values"]["constant_value"] == "29/42"
    assert run(capsys, "verify", "--theorem", "T005", "--a1=-3/7,1/2,2")[1] == out


def test_verify_t005_constant_row_degenerate(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "T005", "--a1", "5,5,5")
    assert code == 2
    assert err.startswith("degenerate input:")


def test_verify_wrong_space(b126_file, capsys):
    code, _, err = run(capsys, "verify", "--theorem", "T002", b126_file)
    assert code == 3
    assert "needs a P2 instance" in err


def test_verify_needs_one_source(hex_file, capsys):
    assert run(capsys, "verify", "--theorem", "T002")[0] == 3
    assert run(capsys, "verify", "--theorem", "T002", hex_file, "--random")[0] == 3


def test_verify_unknown_theorem(hex_file, capsys):
    assert run(capsys, "verify", "--theorem", "T009", hex_file)[0] == 3


def test_verify_correspondence_file(mirror_file, capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "L4-correspondence",
                       mirror_file, "--k", "2")
    assert code == 0
    assert json.loads(out)["values"]["steps_taken"] == 2


def test_verify_lifting_file(hex_file, capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "L2-lifting", hex_file)
    assert code == 0
    report = json.loads(out)
    assert report["values"]["checks"] == {
        f"L2.{i}": True for i in range(1, 9)
    }


# Full stdout of each claim and input mode, recorded before the claim table
# replaced the per-claim branches in cli.py.
ALL_LIFT_CHECKS = {f"L2.{i}": True for i in range(1, 9)}
PINNED_FILE_VALUES = [
    ("T003", "pm", {"centroid": "(-17/6, -25/18, 2/9)",
                    "collapse_point": "(-17/6, -25/18, 2/9)",
                    "corrugated_certified": True, "steps_taken": 2}),
    ("L2-mating", "hex", {"stages": 2, "variant": "planar"}),
    ("L2-mating", "pm", {"stages": 2, "variant": "corrugated"}),
    ("L2-mating", "mirror", {"stages": 2, "variant": "mirror_odd"}),
    # L2-mating takes a mirror pair as it is, without canonicalizing it
    ("L2-mating", "generic_mirror", {"stages": 3, "variant": "mirror_even"}),
    ("L2-lifting", "pm", {"checks": ALL_LIFT_CHECKS, "used_canonical": True,
                          "variant": "corrugated"}),
    ("L2-lifting", "mirror", {"checks": ALL_LIFT_CHECKS, "used_canonical": True,
                              "variant": "mirror_odd"}),
]


def report_text(theorem, trials, passes, failures=(), values=None):
    report = {"failures": list(failures), "passes": passes,
              "theorem": theorem, "trials": trials}
    if values is not None:
        report["values"] = values
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("theorem, name, values", PINNED_FILE_VALUES,
                         ids=[f"{t}-{f}" for t, f, _ in PINNED_FILE_VALUES])
def test_verify_file_stdout_pinned(files, capsys, theorem, name, values):
    code, out, err = run(capsys, "verify", "--theorem", theorem, files[name])
    assert (code, err) == (0, "")
    assert out == report_text(theorem, 1, 1, values=values)


def test_verify_lifting_canonicalizes_mirror_file(files, capsys):
    code, out, err = run(capsys, "verify", "--theorem", "L2-lifting",
                         files["generic_mirror"])
    assert (code, out) == (2, "")
    assert err == "degenerate input: points do not share a common height\n"


WRONG_KIND = [
    (("verify", "--theorem", "T002"), "pm", "T002 needs a P2 instance"),
    (("verify", "--theorem", "T003"), "hex", "T003 needs a Pm instance"),
    (("verify", "--theorem", "T005"), "hex", "T005 takes --a1, not an instance file"),
    (("verify", "--theorem", "T007"), "hex", "T007 needs a P2-mirror instance"),
    (("verify", "--theorem", "T008"), "hex", "T008 needs a P1 instance"),
    (("verify", "--theorem", "L2-mating"), "b126",
     "L2-mating needs a polygon or mirror instance"),
    (("verify", "--theorem", "L2-lifting"), "b126",
     "L2-lifting needs a polygon or mirror instance"),
    (("verify", "--theorem", "L4-correspondence"), "hex",
     "L4-correspondence needs a P2-mirror instance"),
    (("lift", "--check", "centroid"), "b126", "lift needs a P2, Pm, or P2-mirror instance"),
]


@pytest.mark.parametrize("argv, name, message", WRONG_KIND,
                         ids=[argv[-1] for argv, _, _ in WRONG_KIND])
def test_wrong_instance_kind_message(files, capsys, argv, name, message):
    assert run(capsys, *argv, files[name]) == (3, "", f"usage error: {message}\n")


LIFT = ("lift", "--check", "centroid")
VERIFY_LIFT = ("verify", "--theorem", "L2-lifting")
SMALL_INSTANCES = [
    # n = 2 gives one A-sequence, and a lift needs two
    (LIFT, ("--map", "pent2d", "--n", "2"), "n >= 3, and this instance has n = 2"),
    (VERIFY_LIFT, ("--map", "pent2d", "--n", "2"), "n >= 3, and this instance has n = 2"),
    # sequences of three points of R^4 cannot be lifted into R^3
    (LIFT, ("--map", "corrugated", "--m", "4", "--n", "3"),
     "n >= 4, and this instance has n = 3"),
    (VERIFY_LIFT, ("--map", "corrugated", "--m", "4", "--n", "3"),
     "n >= 4, and this instance has n = 3"),
]


@pytest.mark.parametrize("argv, gen, message", SMALL_INSTANCES,
                         ids=["lift", "verify", "lift-n3-m4", "verify-n3-m4"])
def test_lifting_an_n2_file_is_usage_error(tmp_path, capsys, argv, gen, message):
    path = str(tmp_path / "small.json")
    assert run(capsys, "gen", *gen, "--out", path)[0] == 0
    assert run(capsys, *argv, path) == (3, "", f"usage error: lifting needs {message}\n")


MALFORMED_FILES = [
    ('"space": "P2", "vertices": [["0","0"],["1","0"],["1","1"]]',
     3, "usage error: invalid instance: a labeled polygon needs an even vertex count >= 4"),
    ('"space": "P2", "label_offset": "x", "vertices": [["0","0"],["1","0"],["1","1"],["0","1"]]',
     3, "usage error: label_offset must be an integer"),
    ('"space": "P2", "label_offset": 1.5, "vertices": [["0","0"],["1","0"],["1","1"],["0","1"]]',
     3, "usage error: label_offset must be an integer"),
    ('"space": "Pm", "m": 1, "vertices": [["0"],["1"],["2"]]',
     3, "usage error: invalid instance: ambient dimension m must be >= 2"),
    ('"space": "Pm", "m": true, "vertices": [["0"],["1"],["2"]]',
     3, "usage error: Pm instance needs an integer m"),
    ('"space": "P2-mirror", "P": [["0","1"],["1","2"]]',
     3, "usage error: invalid instance: need at least 3 points"),
    ('"space": "P1", "X": ["inf","inf","inf"], "Y": ["1","2"]',
     3, "usage error: invalid instance: need two tuples of equal length n >= 3"),
    # a point on the mirror axis is degenerate input, not a malformed file
    ('"space": "P2-mirror", "P": [["0","0"],["1","2"],["2","1"]]',
     2, "degenerate input: point 1 lies on the mirror axis"),
]


@pytest.mark.parametrize("body, code, message", MALFORMED_FILES,
                         ids=["p2-3-vertices", "offset-string", "offset-fraction", "pm-m1",
                              "pm-m-bool", "mirror-2-points", "p1-unequal-rows",
                              "mirror-point-on-axis"])
def test_malformed_instance_file(tmp_path, capsys, body, code, message):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "pentagram-lab/v1", ' + body + "}")
    assert run(capsys, "iterate", str(path), "--steps", "1") == (code, "", message + "\n")


# files json cannot decode: (bytes, message after the usage-error prefix)
UNREADABLE_FILES = [
    (b"\xff\xfe{", "cannot read {path}: 'utf-8' codec can't decode byte 0xff in "
                   "position 0: invalid start byte"),
    (b"[" * 200000 + b"]" * 200000,
     "invalid JSON: maximum recursion depth exceeded while decoding a JSON array"),
    (b"1" * 5000, "invalid JSON: Exceeds the limit (4300 digits) for integer string"),
]


@pytest.mark.parametrize("argv", [("iterate", "--steps", "1"),
                                  ("verify", "--theorem", "T002"),
                                  ("lift", "--check", "centroid")],
                         ids=["iterate", "verify", "lift"])
@pytest.mark.parametrize("body, message", UNREADABLE_FILES,
                         ids=["not-utf8", "nested-too-deep", "integer-too-long"])
def test_undecodable_instance_file_is_usage_error(tmp_path, capsys, argv, body, message):
    path = tmp_path / "bad.json"
    path.write_bytes(body)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (3, "")
    assert err.startswith("usage error: " + message.format(path=path))
    assert err.count("\n") == 1


# -- verify --random -----------------------------------------------------


def test_verify_random_t002(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "T002", "--random",
                       "--n", "3", "--trials", "5", "--seed", "0")
    assert code == 0
    report = json.loads(out)
    assert report["passes"] == 5 and report["trials"] == 5


def test_verify_random_degenerate_draw_exits_2(capsys):
    # seed 265 at n=3 lands on the non-generic locus (identical diagonals)
    code, out, err = run(capsys, "verify", "--theorem", "T002", "--random",
                         "--n", "3", "--trials", "1", "--seed", "265")
    assert code == 2
    report = json.loads(out)
    assert report["passes"] == 0
    assert report["failures"][0]["reason"].startswith("degenerate:")
    assert report["failures"][0]["seed"] == 265


def test_verify_random_t003_needs_m(capsys):
    assert run(capsys, "verify", "--theorem", "T003", "--random", "--n", "3")[0] == 3


def test_verify_random_reports_seeds(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "T008", "--random",
                       "--n", "4", "--trials", "3", "--seed", "1000")
    assert code == 0
    assert json.loads(out)["trials"] == 3


def test_parallel_trials_byte_identical(capsys, monkeypatch):
    argv = ("verify", "--theorem", "T002", "--random",
            "--n", "4", "--trials", "8", "--seed", "0")
    monkeypatch.setenv("PENTAGRAM_LAB_THREADS", "1")
    code_a, out_a, _ = run(capsys, *argv)
    monkeypatch.setenv("PENTAGRAM_LAB_THREADS", "4")
    code_b, out_b, _ = run(capsys, *argv)
    assert (code_a, out_a) == (code_b, out_b)


@pytest.mark.parametrize("threads", ["2", "3"])
@pytest.mark.parametrize("trials", ["3", "5", "7"])
@pytest.mark.parametrize("argv", [
    ("--theorem", "T002", "--n", "3", "--seed", "264"),  # trial 1 is degenerate
    ("--theorem", "L2-mating", "--n", "4", "--seed", "0"),
], ids=["T002-degenerate", "L2-mating"])
def test_pooled_trials_match_serial(capsys, monkeypatch, argv, trials, threads):
    argv = ("verify", "--random", "--trials", trials, *argv)
    monkeypatch.setenv("PENTAGRAM_LAB_THREADS", "1")
    serial = run(capsys, *argv)
    monkeypatch.setenv("PENTAGRAM_LAB_THREADS", threads)
    assert run(capsys, *argv) == serial
    assert serial[0] == (2 if "T002" in argv else 0)


def test_bad_thread_cap(capsys, monkeypatch):
    monkeypatch.setenv("PENTAGRAM_LAB_THREADS", "many")
    code, _, err = run(capsys, "verify", "--theorem", "T002", "--random",
                       "--n", "3", "--trials", "2")
    assert code == 3
    assert "PENTAGRAM_LAB_THREADS" in err


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="batches run serially")
SRC = str(Path(pentagram_lab.__file__).resolve().parents[1])


@contextlib.contextmanager
def deadline(seconds):
    """Fail, instead of hanging, when the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def outcome(capsys, *argv):
    """(code, stdout, stderr), or the exception the command raised."""
    try:
        return run(capsys, *argv)
    except Exception as exc:  # noqa: BLE001 - compared with the serial run
        return repr(exc), capsys.readouterr()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# trial index -> what it raises; with 6 trials, threads 2 gives chunks
# [0-2] [3-5] and threads 3 gives [0-1] [2-3] [4-5]
FAILING_TRIALS = [
    {4: UsageError("trial 4 cannot be drawn")},
    {2: DimensionMismatch("trial 2 does not fit"), 4: UsageError("trial 4 cannot be drawn")},
    {3: ValueError("trial 3 broke"), 5: UsageError("trial 5 cannot be drawn")},
]


@needs_fork
@pytest.mark.parametrize("threads", ["2", "3"])
@pytest.mark.parametrize("failing", FAILING_TRIALS, ids=["usage", "two-chunks", "plain-error"])
def test_pooled_trial_errors_keep_serial_order(capsys, monkeypatch, threads, failing):
    real = cli._trial_worker

    def worker(payload):
        if payload[1] in failing:
            raise failing[payload[1]]
        return real(payload)

    monkeypatch.setattr(cli, "_trial_worker", worker)
    argv = ("verify", "--theorem", "T008", "--random", "--n", "4", "--trials", "6")
    monkeypatch.setenv("PENTAGRAM_LAB_THREADS", "1")
    serial = outcome(capsys, *argv)
    monkeypatch.setenv("PENTAGRAM_LAB_THREADS", threads)
    with deadline(60):
        assert outcome(capsys, *argv) == serial
    assert_no_child_left()


@needs_fork
def test_dead_trial_worker_is_an_error(capsys, monkeypatch):
    argv = ("verify", "--theorem", "T008", "--random", "--n", "4", "--trials", "4")
    monkeypatch.setenv("PENTAGRAM_LAB_THREADS", "2")
    with deadline(60):
        assert run(capsys, *argv)[0] == 0
    assert_no_child_left()

    parent, real = os.getpid(), cli._trial_worker

    def worker(payload):
        if os.getpid() != parent:
            os._exit(9)
        return real(payload)

    monkeypatch.setattr(cli, "_trial_worker", worker)
    with deadline(60), pytest.raises(RuntimeError) as exc:
        run(capsys, *argv)
    pid = int(str(exc.value).split()[2])
    assert pid != parent
    assert str(exc.value) == (f"trial worker {pid} exited without its results "
                              f"(wait status {9 << 8})")
    assert_no_child_left()


def test_cli_import_leaves_out_multiprocessing():
    code = "import sys, pentagram_lab.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60, check=True)
    assert done.stdout == "False\n"


@needs_fork
def test_forked_children_leave_inherited_stdout_alone():
    # the marker sits unflushed in the block-buffered stdout when the
    # children fork; a child that flushed it would print it twice
    code = ("import sys; from pentagram_lab.cli import entrypoint; sys.stdout.write('marker ');"
            " sys.exit(entrypoint(['verify', '--theorem', 'T008', '--random', '--n', '4',"
            " '--trials', '3']))")
    env = {**os.environ, "PYTHONPATH": SRC, "PENTAGRAM_LAB_THREADS": "3"}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.count("marker") == 1
    assert json.loads(done.stdout.removeprefix("marker "))["passes"] == 3


PINNED_RANDOM = [
    (("T002", "--n", "3", "--seed", "264"), 2, 1, [{
        "index": 1, "seed": 265,
        "reason": "degenerate: step 2: output label 3: meet of identical lines [10 : -4 : -5]",
    }]),
    (("T003", "--n", "2", "--m", "3", "--seed", "5"), 0, 2, []),
    (("T005", "--n", "4", "--seed", "7"), 0, 2, []),
    (("T007", "--n", "5", "--seed", "11"), 0, 2, []),
    (("T008", "--n", "4", "--seed", "13"), 0, 2, []),
    (("L2-mating", "--n", "3", "--seed", "17"), 0, 2, []),
    (("L2-lifting", "--n", "3", "--seed", "19"), 0, 2, []),
    (("L4-correspondence", "--n", "4", "--seed", "23"), 0, 2, []),
]


@pytest.mark.parametrize("argv, code, passes, failures", PINNED_RANDOM,
                         ids=[argv[0] for argv, *_ in PINNED_RANDOM])
def test_verify_random_stdout_pinned(capsys, argv, code, passes, failures):
    result = run(capsys, "verify", "--theorem", *argv, "--random", "--trials", "2")
    assert result == (code, report_text(argv[0], 2, passes, failures), "")


# (PENTAGRAM_LAB_THREADS, argv): sizes a sampler or a check cannot take
OUT_OF_RANGE = [
    ("1", ("verify", "--theorem", "T002", "--random", "--n", "0")),
    ("1", ("verify", "--theorem", "T002", "--random", "--n", "-3")),
    ("1", ("verify", "--theorem", "T007", "--random", "--n", "1")),
    ("1", ("verify", "--theorem", "T008", "--random", "--n", "1")),
    ("1", ("verify", "--theorem", "T005", "--random", "--n", "2")),
    ("1", ("verify", "--theorem", "L2-lifting", "--random", "--n", "2")),
    ("1", ("verify", "--theorem", "T003", "--random", "--n", "3", "--m", "1")),
    ("1", ("verify", "--theorem", "L4-correspondence", "--random", "--n", "4", "--k", "0")),
    ("1", ("verify", "--theorem", "T002", "--random", "--n", "4", "--range", "0")),
    ("1", ("verify", "--theorem", "T002", "--random", "--n", "4", "--range", "-1")),
    ("1", ("verify", "--theorem", "T008", "--random", "--n", "4", "--range", "0")),
    ("2", ("verify", "--theorem", "T002", "--random", "--n", "0", "--trials", "2")),
    ("2", ("verify", "--theorem", "L2-lifting", "--random", "--n", "2", "--trials", "2")),
    # the lift raises points of R^m into R^n, so n < m cannot be lifted
    ("1", ("verify", "--theorem", "L2-lifting", "--random", "--n", "3", "--m", "4",
           "--trials", "2")),
    ("2", ("verify", "--theorem", "L2-lifting", "--random", "--n", "3", "--m", "4",
           "--trials", "2")),
    ("1", ("gen", "--map", "pent2d", "--n", "0")),
    ("1", ("gen", "--map", "corrugated", "--n", "3", "--m", "1")),
    ("1", ("gen", "--map", "lower", "--n", "0")),
    # one 64-bit word cannot draw a numerator in [-2**64, 2**64]
    ("1", ("verify", "--theorem", "T002", "--random", "--n", "4", "--range", str(2**64))),
    ("2", ("verify", "--theorem", "T002", "--random", "--n", "4", "--range", str(2**64),
           "--trials", "2")),
    ("1", ("gen", "--map", "pent2d", "--n", "4", "--range", str(2**64))),
    ("2", ("gen", "--map", "pent2d", "--n", "4", "--range", str(2**64))),
]


@pytest.mark.parametrize("threads, argv", OUT_OF_RANGE,
                         ids=[" ".join((f"threads={t}",) + a) for t, a in OUT_OF_RANGE])
def test_out_of_range_size_is_usage_error(capsys, monkeypatch, threads, argv):
    monkeypatch.setenv("PENTAGRAM_LAB_THREADS", threads)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1


@settings(max_examples=100, deadline=None, report_multiple_bugs=False)
@given(theorem=st.sampled_from(CLAIM_IDS), n=st.integers(-2, 5),
       m=st.none() | st.integers(-1, 3), k=st.none() | st.integers(-1, 4),
       bound=st.none() | st.integers(-1, 6), seed=st.integers(-3, 400))
def test_verify_random_exit_code_is_exhaustive(theorem, n, m, k, bound, seed):
    argv = ["verify", "--theorem", theorem, "--random", "--trials", "1",
            "--n", str(n), "--seed", str(seed)]
    for flag, value in (("--m", m), ("--k", k), ("--range", bound)):
        if value is not None:
            argv += [flag, str(value)]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = entrypoint(argv)
    assert code in (0, 1, 2, 3)


# -- frieze --------------------------------------------------------------


def test_frieze_staggered(capsys):
    code, out, _ = run(capsys, "frieze", "--a1", "7,5,-3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert lines[1].startswith("7")
    assert "34/9" in out


def test_frieze_json(capsys):
    code, out, _ = run(capsys, "frieze", "--a1", "7,5,-3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3
    assert data["rows"][0] == ["inf", "inf", "inf"]
    assert data["rows"][-1] == ["3", "3", "3"]


def test_frieze_negative_first_value(capsys):
    code, out, _ = run(capsys, "frieze", "--a1", "-3/7,1/2,2")
    assert code == 0
    assert out.splitlines()[1].split() == ["-3/7", "1/2", "2"]
    assert run(capsys, "frieze", "--a1=-3/7,1/2,2")[1] == out
    code, out, _ = run(capsys, "frieze", "--a1", "-.5,1,3", "--json")
    assert code == 0
    assert json.loads(out)["rows"][1] == ["-1/2", "1", "3"]


def test_frieze_constant_row(capsys):
    code, _, err = run(capsys, "frieze", "--a1", "5,5,5")
    assert code == 2
    assert err.startswith("degenerate input:")


def test_frieze_too_short(capsys):
    assert run(capsys, "frieze", "--a1", "1,2")[0] == 3


# -- lift ----------------------------------------------------------------


def test_lift_payload(hex_file, capsys):
    code, out, _ = run(capsys, "lift", "--check", "centroid", hex_file)
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["check", "checks", "d", "heights", "n",
                          "normal_rank", "normals", "used_canonical", "variant"]
    assert data["check"] == "L2.3"
    assert data["variant"] == "planar"
    assert data["n"] == 3 and data["d"] == 2
    assert data["normal_rank"] == 2
    assert data["normals"] == [["2", "-4", "18"], ["2", "3", "-7"]]
    assert data["heights"] == [["0"], ["0"], ["1"]]
    assert data["used_canonical"] is True
    assert all(c["ok"] for c in data["checks"])


def test_lift_mirror(mirror_file, capsys):
    code, out, _ = run(capsys, "lift", "--check", "collapse-line", mirror_file)
    assert code == 0
    assert json.loads(out)["variant"] == "mirror_odd"


def test_lift_unknown_check(hex_file, capsys):
    assert run(capsys, "lift", "--check", "L9", hex_file)[0] == 3


def test_json_keys_sorted(hex_file, capsys):
    _, out, _ = run(capsys, "verify", "--theorem", "T002", hex_file)
    data = json.loads(out)
    assert list(data) == sorted(data)
    assert list(data["values"]) == sorted(data["values"])


def test_no_arguments_is_usage_error(capsys):
    assert run(capsys)[0] == 3
