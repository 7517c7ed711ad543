"""End-to-end CLI: exit codes, exact stdout, determinism."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from pentagram_lab.cli import entrypoint
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


def test_bad_thread_cap(capsys, monkeypatch):
    monkeypatch.setenv("PENTAGRAM_LAB_THREADS", "many")
    code, _, err = run(capsys, "verify", "--theorem", "T002", "--random",
                       "--n", "3", "--trials", "2")
    assert code == 3
    assert "PENTAGRAM_LAB_THREADS" in err


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
    ("1", ("gen", "--map", "pent2d", "--n", "0")),
    ("1", ("gen", "--map", "corrugated", "--n", "3", "--m", "1")),
    ("1", ("gen", "--map", "lower", "--n", "0")),
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
