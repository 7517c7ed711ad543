"""End-to-end CLI: exit codes, exact stdout, determinism."""

import json

import pytest

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
