"""Every failure reason of ``verify``, one condition at a time.

Each case replaces the claim's verifier in ``cli``'s namespace with one that
returns a fixed report, so that exactly the named condition fails (or, for
the ``passes`` cases, none does).  The JSON report must carry the reason of
that condition and the report's values, and the command must exit 1 (0 when
the report passes).
"""

import json
from dataclasses import replace

import pytest

from pentagram_lab import cli
from pentagram_lab.corrugated import CollapseReportM
from pentagram_lab.frieze import T005Report
from pentagram_lab.lifting import (
    LiftCheck,
    LiftReport,
    MatingOrbitReport,
    StageCheck,
    WindowReport,
)
from pentagram_lab.lower1d import T008Report
from pentagram_lab.mirror import CorrespondenceReport, T007Report
from pentagram_lab.pentagram2d import CollapseReport2, TwoLineStage
from pentagram_lab.projcore import ProjPoint

POINT = ProjPoint.affine(1, 2)
OTHER = ProjPoint.affine(3, -1)
ON_LINE = ProjPoint.p1(5)

T002 = CollapseReport2(
    steps_taken=2, two_line_stage=TwoLineStage(None, True, True),
    collapse_point=POINT, centroid=POINT, all_equal=True, matched=True)
T002_VALUES = {"centroid": "(1, 2)", "collapse_point": "(1, 2)", "steps_taken": 2}

T003 = CollapseReportM(
    steps_taken=2, collapse_point=POINT, centroid=POINT, all_equal=True,
    matched=True, corrugated_certificates=(True, True))
T003_VALUES = {"centroid": "(1, 2)", "collapse_point": "(1, 2)",
               "corrugated_certified": True, "steps_taken": 2}

T005 = T005Report(penultimate_constant=True, last_constant=True, shift_equal=True,
                  value=ON_LINE, expected=ON_LINE, matched=True)
T005_VALUES = {"constant_value": "5", "diamonds_sound": True, "expected": "5"}

T007 = T007Report(steps_taken=2, collapse_points=(POINT, POINT), all_equal=True,
                  expected=POINT, matched=True, roundtrips=(True, True))
T007_VALUES = {"collapse_point": "(1, 2)", "expected": "(1, 2)", "roundtrips": True,
               "steps_taken": 2}

T008 = T008Report(steps_taken=2, first_component=(ON_LINE,) * 3,
                  final_component=(ON_LINE,) * 3, constant=True, expected=ON_LINE,
                  matched=True)
T008_VALUES = {"expected": "5", "final_row": "5 5 5", "steps_taken": 2}

STAGE = StageCheck(stage=1, tags_ok=True, labels_ok=True, union_ok=True)
MATING = MatingOrbitReport(variant="planar", stages=2, per_stage=(STAGE, STAGE),
                           windows=(WindowReport(1, (STAGE,)),), cross_union_ok=(True,))
MATING_VALUES = {"stages": 2, "variant": "planar"}
MATING_REASON = "a mating stage disagreed with the map orbit"

LIFT = LiftReport(variant="planar", n=3, d=3, heights=(), used_canonical=True,
                  normals=(), normal_rank=0,
                  checks=tuple(LiftCheck(c, True, "") for c in ("L2.2", "L2.5", "L2.6")))


def _lift_values(**oks):
    checks = {"L2.2": True, "L2.5": True, "L2.6": True, **oks}
    return {"checks": checks, "used_canonical": True, "variant": "planar"}


def _failing(report, *failed):
    return replace(report, checks=tuple(
        replace(c, ok=False) if c.check_id in failed else c for c in report.checks))


L4 = CorrespondenceReport(steps_taken=3, per_step=(True, True, True))

# (claim, extra --random arguments, name in cli, report, reason, values);
# reason None means the report passes
CASES = {
    "T002 passes": ("T002", (), "collapse_orbit", T002, None, T002_VALUES),
    "T002 all_equal": ("T002", (), "collapse_orbit",
                       replace(T002, all_equal=False, matched=False, collapse_point=None),
                       "vertices did not all coincide",
                       {**T002_VALUES, "collapse_point": None}),
    "T002 matched": ("T002", (), "collapse_orbit",
                     replace(T002, matched=False, collapse_point=OTHER),
                     "collapse point differs from the center of mass",
                     {**T002_VALUES, "collapse_point": "(3, -1)"}),
    "T002 alternating": ("T002", (), "collapse_orbit",
                         replace(T002, two_line_stage=TwoLineStage(None, False, True)),
                         "two-line stage certificate failed", T002_VALUES),
    "T002 through_centroid": ("T002", (), "collapse_orbit",
                              replace(T002, two_line_stage=TwoLineStage(None, True, False)),
                              "two-line stage certificate failed", T002_VALUES),
    "T003 passes": ("T003", ("--m", "3"), "collapse_orbit_m", T003, None, T003_VALUES),
    "T003 all_equal": ("T003", ("--m", "3"), "collapse_orbit_m",
                       replace(T003, all_equal=False, matched=False, collapse_point=None),
                       "vertices did not all coincide",
                       {**T003_VALUES, "collapse_point": None}),
    "T003 matched": ("T003", ("--m", "3"), "collapse_orbit_m",
                     replace(T003, matched=False, collapse_point=OTHER),
                     "collapse point differs from the center of mass",
                     {**T003_VALUES, "collapse_point": "(3, -1)"}),
    "T005 passes": ("T005", (), "_report_T005", T005, None, T005_VALUES),
    "T005 penultimate_constant": ("T005", (), "_report_T005",
                                  replace(T005, penultimate_constant=False, value=None,
                                          matched=False),
                                  "final rows are not constant",
                                  {**T005_VALUES, "constant_value": None}),
    "T005 last_constant": ("T005", (), "_report_T005", replace(T005, last_constant=False),
                           "final rows are not constant", T005_VALUES),
    "T005 shift_equal": ("T005", (), "_report_T005", replace(T005, shift_equal=False),
                         "final rows differ under the column shift", T005_VALUES),
    "T005 matched": ("T005", (), "_report_T005",
                     replace(T005, matched=False, value=ProjPoint.p1(7)),
                     "constant value differs from the mean of A_1",
                     {**T005_VALUES, "constant_value": "7"}),
    "T007 passes": ("T007", (), "verify_T007", T007, None, T007_VALUES),
    "T007 all_equal": ("T007", (), "verify_T007",
                       replace(T007, all_equal=False, matched=False,
                               collapse_points=(POINT, OTHER)),
                       "points did not all coincide",
                       {**T007_VALUES, "collapse_point": None}),
    "T007 matched": ("T007", (), "verify_T007",
                     replace(T007, matched=False, collapse_points=(OTHER, OTHER)),
                     "collapse point differs from the predicted point",
                     {**T007_VALUES, "collapse_point": "(3, -1)"}),
    "T007 roundtrips": ("T007", (), "verify_T007", replace(T007, roundtrips=(True, False)),
                        "an inverse round trip failed", {**T007_VALUES, "roundtrips": False}),
    "T008 passes": ("T008", (), "verify_T008", T008, None, T008_VALUES),
    "T008 constant": ("T008", (), "verify_T008",
                      replace(T008, constant=False, matched=False,
                              final_component=(ON_LINE, ProjPoint.p1(7), ON_LINE)),
                      "final second component is not constant",
                      {**T008_VALUES, "final_row": "5 7 5"}),
    "T008 matched": ("T008", (), "verify_T008",
                     replace(T008, matched=False, final_component=(ProjPoint.p1(7),) * 3),
                     "final value differs from the mean of B",
                     {**T008_VALUES, "final_row": "7 7 7"}),
    "L2-mating passes": ("L2-mating", (), "mating_orbit_check", MATING, None, MATING_VALUES),
    "L2-mating per_stage": ("L2-mating", (), "mating_orbit_check",
                            replace(MATING, per_stage=(STAGE, replace(STAGE, labels_ok=False))),
                            MATING_REASON, MATING_VALUES),
    "L2-mating windows": ("L2-mating", (), "mating_orbit_check",
                          replace(MATING, windows=(
                              WindowReport(1, (replace(STAGE, tags_ok=False),)),)),
                          MATING_REASON, MATING_VALUES),
    "L2-mating cross_union": ("L2-mating", (), "mating_orbit_check",
                              replace(MATING, cross_union_ok=(True, False)),
                              MATING_REASON, MATING_VALUES),
    "L2-mating no cross_union": ("L2-mating", (), "mating_orbit_check",
                                 replace(MATING, cross_union_ok=None), None, MATING_VALUES),
    "L2-lifting passes": ("L2-lifting", (), "lift_report", LIFT, None, _lift_values()),
    "L2-lifting one check": ("L2-lifting", (), "lift_report", _failing(LIFT, "L2.5"),
                             "lift checks failed: L2.5", _lift_values(**{"L2.5": False})),
    "L2-lifting two checks": ("L2-lifting", (), "lift_report", _failing(LIFT, "L2.2", "L2.6"),
                              "lift checks failed: L2.2, L2.6",
                              _lift_values(**{"L2.2": False, "L2.6": False})),
    "L4 passes": ("L4-correspondence", (), "verify_correspondence", L4, None,
                  {"steps_taken": 3}),
    "L4 first step": ("L4-correspondence", (), "verify_correspondence",
                      replace(L4, per_step=(False, True, False)),
                      "projected orbits disagree at step 1", {"steps_taken": 3}),
    "L4 later step": ("L4-correspondence", (), "verify_correspondence",
                      replace(L4, per_step=(True, False, False)),
                      "projected orbits disagree at step 2", {"steps_taken": 3}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_verify_reason(case, monkeypatch, capsys):
    claim, extra, name, report, reason, values = CASES[case]
    monkeypatch.setattr(cli, name, lambda *args: report)
    if claim == "T005":
        monkeypatch.setattr(cli, "diamond_soundness", lambda pattern: True)
    code = cli.entrypoint(["verify", "--theorem", claim, "--random", "--n", "3", *extra])
    out = json.loads(capsys.readouterr().out)
    assert out["values"] == values
    if reason is None:
        assert (code, out["passes"], out["failures"]) == (0, 1, [])
    else:
        assert code == 1
        assert out["failures"] == [{"index": 0, "reason": reason, "seed": 0}]


def test_unsound_diamond_comes_first(monkeypatch, capsys):
    """T005 names a failed diamond before any condition of the report."""
    monkeypatch.setattr(cli, "_report_T005",
                        lambda pattern: replace(T005, shift_equal=False, matched=False))
    monkeypatch.setattr(cli, "diamond_soundness", lambda pattern: False)
    code = cli.entrypoint(["verify", "--theorem", "T005", "--random", "--n", "3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["values"] == {**T005_VALUES, "diamonds_sound": False}
    assert out["failures"][0]["reason"] == "a diamond failed to resubstitute to -1"
