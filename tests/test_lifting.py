"""Higher-dimensional lifts: joints, prisms, mating chains, collapse line."""

from fractions import Fraction

import pytest

from pentagram_lab.corrugated import random_axis_aligned_m
from pentagram_lab import lifting
from pentagram_lab.errors import (
    DegenerateSpan,
    DimensionMismatch,
    InconsistentTags,
    MissingHyperplane,
    NonOrthogonalNormal,
    NonTransverse,
    NotAJoint,
)
from pentagram_lab.lifting import (
    AffineFlat,
    Joint,
    NPoint,
    build_A_sequences,
    canonical_heights,
    flat_H,
    fully_sliced_check,
    general_position_check,
    hyperplane_normal,
    lemma32_check,
    lift_report,
    mating,
    mating_orbit_check,
    parallel_lift,
    prism_independence_check,
    random_heights,
    slice_points,
    slices_check,
    star,
)
from pentagram_lab.mirror import AxisAlignedMirrorPair, random_axis_aligned_mirror
from pentagram_lab.pentagram2d import AxisAligned2, random_axis_aligned
from pentagram_lab.rng import SplitMix64

ALL_CHECKS = ("L2.1", "L2.2", "L2.3", "L2.4", "L2.5", "L2.6", "L2.7", "L2.8")


def test_hexagon_lift_frozen(hexagon_aligned):
    rep = lift_report(hexagon_aligned)
    assert rep.variant == "planar"
    assert (rep.n, rep.d) == (3, 2)
    assert rep.used_canonical
    assert rep.heights == ((Fraction(0),), (Fraction(0),), (Fraction(1),))
    assert rep.normals == (
        (Fraction(2), Fraction(-4), Fraction(18)),
        (Fraction(2), Fraction(3), Fraction(-7)),
    )
    assert rep.normal_rank == 2
    assert tuple(c.check_id for c in rep.checks) == ALL_CHECKS
    assert rep.ok


def test_hexagon_a_sequences(hexagon_aligned):
    seqs = build_A_sequences(hexagon_aligned)
    assert [s.seq_label for s in seqs] == [1, 3]
    assert [s.tags for s in seqs] == [(1, 5, 9), (3, 7, 11)]
    assert all(s.count == 3 and s.d == 2 for s in seqs)


def test_hexagon_mating_orbit(hexagon_aligned):
    orb = mating_orbit_check(hexagon_aligned, full=True)
    assert orb.ok
    assert orb.stages == 2
    assert orb.windows == ()
    assert orb.cross_union_ok is None
    assert [(sc.stage, sc.tags_ok, sc.labels_ok, sc.union_ok) for sc in orb.per_stage] == [
        (1, True, True, True),
        (2, True, True, True),
    ]


def test_mirror_odd_lift_and_windows():
    mp = AxisAlignedMirrorPair.from_values([1, 2, 6])
    rep = lift_report(mp)
    assert rep.variant == "mirror_odd"
    assert rep.ok and rep.used_canonical
    orb = mating_orbit_check(mp, full=True)
    assert orb.ok
    # odd mirrors are checked windowwise; there is no single global stage list
    assert orb.per_stage == ()
    assert [w.window for w in orb.windows] == [1, 2, 3]
    assert orb.cross_union_ok == (True, True)
    for w in orb.windows:
        assert all(sc.tags_ok and sc.labels_ok and sc.union_ok for sc in w.per_stage)


def test_mirror_even_lift():
    rep = lift_report(AxisAlignedMirrorPair.from_values([1, 2, 6, 3]))
    assert rep.variant == "mirror_even"
    assert rep.ok


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
def test_planar_lift_battery(n):
    rep = lift_report(random_axis_aligned(n, seed=n))
    assert rep.variant == "planar" and rep.n == n and rep.ok


@pytest.mark.parametrize("m,n,seed", [(3, 3, 0), (3, 4, 2), (2, 4, 2)])
def test_corrugated_lift_battery(m, n, seed):
    rep = lift_report(random_axis_aligned_m(m, n, seed=seed))
    assert rep.variant == "corrugated" and rep.ok


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
def test_mirror_lift_battery(n):
    rep = lift_report(random_axis_aligned_mirror(n, seed=n))
    assert rep.variant == ("mirror_even" if n % 2 == 0 else "mirror_odd")
    assert rep.ok


def test_short_corrugated_sequences_unsupported():
    with pytest.raises(DimensionMismatch) as exc:
        lift_report(random_axis_aligned_m(4, 3, seed=0))
    assert "at least d positions" in str(exc.value)


def test_zero_heights_degenerate():
    # at n=3 the flat lift still assembles but the hyperplanes coincide
    seqs = build_A_sequences(random_axis_aligned(3, seed=1000))
    pj = parallel_lift(seqs, ((Fraction(0),),) * 3)
    assert not general_position_check(pj.joints)
    # from n=4 on a flat lift cannot even form a joint
    seqs4 = build_A_sequences(random_axis_aligned(4, seed=1000))
    with pytest.raises(NotAJoint) as exc:
        parallel_lift(seqs4, ((Fraction(0), Fraction(0)),) * 4)
    assert "affinely dependent" in str(exc.value)


def test_canonical_heights_shape():
    assert canonical_heights(3, 2) == ((Fraction(0),), (Fraction(0),), (Fraction(1),))
    h4 = canonical_heights(4, 2)
    assert len(h4) == 4 and all(len(row) == 2 for row in h4)
    with pytest.raises(DimensionMismatch):
        seqs = build_A_sequences(random_axis_aligned(4, seed=1000))
        parallel_lift(seqs, ((Fraction(0),),) * 4)


def test_mating_and_star_disagree_on_wraparound():
    seqs = build_A_sequences(random_axis_aligned(4, seed=2))
    full = mating(seqs[0], seqs[1])
    partial = star(seqs[0], seqs[1])
    assert full.count == seqs[0].count
    assert partial.count == seqs[0].count - 1
    assert full.points[: partial.count] == partial.points


def test_mating_rejects_tags_off_the_label_lattice():
    # slot 0 averages the labels 1, 5, 4, 7, whose sum 17 is not a multiple
    # of 4, so the child has no vertex label
    X = NPoint(((0, 0), (1, 0), (0, 1)), (1, 5, 9), seq_label=1, period=12)
    Y = NPoint(((0, 2), (2, 1), (3, 3)), (4, 7, 11), seq_label=3, period=12)
    with pytest.raises(InconsistentTags) as exc:
        mating(X, Y)
    assert "slot 0" in str(exc.value)


def test_hyperplane_normal_checks_orthogonality(monkeypatch):
    J = Joint.of([(0, 0, 0), (1, 0, 0), (0, 1, 1)])
    assert hyperplane_normal(J) == (0, -1, 1)
    # a wrong minor must surface as a typed error, also under python -O
    monkeypatch.setattr(lifting.linalg, "integer_det", lambda rows: 1)
    with pytest.raises(NonOrthogonalNormal):
        hyperplane_normal(J)


def test_lemma32_positional_mating_planar_n5():
    P = random_axis_aligned(5, seed=5)
    pj = parallel_lift(build_A_sequences(P), canonical_heights(5, 2))
    flats = pj.joint_flats()
    # |J_1| ^ |J_3| = H_{2,2}, both sliced by the prism at label 2
    assert lemma32_check(flats[1], flats[3], pj.prism_at(2))
    # H_{2,2} ^ H_{2,4} = H_{3,3}, sliced by the prism at label 4
    assert lemma32_check(flat_H(2, 2, flats), flat_H(2, 4, flats), pj.prism_at(4))
    # |J_1| ^ |J_5| is no H-flat: it cuts prism 2 in repeated points
    with pytest.raises(NonTransverse) as exc:
        lemma32_check(flats[1], flats[5], pj.prism_at(2))
    assert "not pairwise distinct" in str(exc.value)


def test_public_slice_api_returns_fractions():
    # slices compare as integers inside; the public results stay Fraction tuples
    P = random_axis_aligned(5, seed=5)
    pj = parallel_lift(build_A_sequences(P), canonical_heights(5, 2))
    flats = pj.joint_flats()
    for g, k, h in ((1, 1, 2), (2, 2, 2), (3, 3, 4), (4, 4, 4)):
        W, T = flat_H(g, k, flats), pj.prism_at(h)
        report = slices_check(W, T)
        assert report.ok and report.level == g
        points = slice_points(W, T)
        assert points == report.points and len(set(points)) == 5
        assert all(type(c) is Fraction for p in points for c in p)
        assert all(len(p) == 5 and W.contains(p) for p in points)


def _corrugated_lift_cut_short():
    # with these heights H(2,4) misses a level-2 face of prisms 2 and 4
    P = random_axis_aligned_m(3, 4, seed=0, bound=5)
    return parallel_lift(build_A_sequences(P), ((-1,), (-1,), (0,), (1,)))


def test_slice_failures_name_each_prism():
    pj = _corrugated_lift_cut_short()
    miss = "face 2 at level 2 does not cut to a point"
    assert fully_sliced_check(pj) == (False, (f"H(2,4) vs prism 4: {miss}",))
    assert prism_independence_check(pj) == (
        False, (f"H(2,4) vs prism 2: {miss}", f"H(2,4) vs prism 4: {miss}"),
    )


def _reference_slicing(pj):
    """The H-flats and the L2.5 and L2.6 verdicts, from flat_H and a fresh
    slices_check per (g, k, h): reach 1 for L2.5, reach g for L2.6."""
    flats, n = pj.joint_flats(), pj.n
    H, sliced, indep = {}, [], []
    for g in range(1, n):
        for k in range(g, 2 * n - 1 - g, 2):
            try:
                H[g, k] = flat_H(g, k, flats)
            except NonTransverse as exc:
                sliced.append(f"H({g},{k}): {exc}")
                indep.append(f"H({g},{k}): {exc}")
                continue
            for reach, failures, compare in ((1, sliced, False), (g, indep, True)):
                first = None
                for h in pj.prism_labels():
                    if abs(h - k) > reach:
                        continue
                    report = slices_check(H[g, k], pj.prism_at(h))
                    if not report.ok:
                        failures.append(f"H({g},{k}) vs prism {h}: " + "; ".join(report.reasons))
                    elif compare and first is None:
                        first = set(report.points)
                    elif compare and set(report.points) != first:
                        failures.append(f"H({g},{k}): prism {h} slice set differs")
    return H, (not sliced, tuple(sliced)), (not indep, tuple(indep))


def _seeded_lift(sample, heights):
    P = sample()
    seqs = lifting._lift_chain(lifting._variant(P)[0], build_A_sequences(P))[0]
    return parallel_lift(seqs, heights(seqs[0].count, seqs[0].d))


SLICING_LIFTS = [_corrugated_lift_cut_short] + [
    lambda sample=sample, heights=heights: _seeded_lift(sample, heights)
    for sample in (lambda: random_axis_aligned(5, seed=5),
                   lambda: random_axis_aligned_mirror(5, seed=5),
                   lambda: random_axis_aligned_m(3, 3, seed=0))
    for heights in (canonical_heights,
                    lambda n, d: random_heights(n, d, SplitMix64(1)),
                    # for planar and mirror n=5, some H_{g,k} are not transverse
                    lambda n, d: random_heights(n, d, SplitMix64(3), bound=2))
] + [
    # natural draws where some slices do not mate and are cut from flats
    lambda sample=sample, seed=seed, heights=heights: _seeded_lift(
        lambda: sample(seed), heights(seed))
    for sample, seed in ((lambda seed: random_axis_aligned(7, seed), 2),
                         (lambda seed: random_axis_aligned(8, seed), 16),
                         (lambda seed: random_axis_aligned_m(2, 5, seed), 36),
                         (lambda seed: random_axis_aligned_m(3, 4, seed), 44))
    for heights in (lambda seed: canonical_heights,
                    lambda seed: lambda n, d: random_heights(n, d, SplitMix64(seed), bound=2))
]
SLICING_IDS = ["corrugated_cut_short"] + [
    f"{sample}_{heights}" for sample in ("planar_n5", "mirror_n5", "corrugated_3_3")
    for heights in ("canonical", "random", "random_repeated")
] + [
    f"{sample}_{heights}"
    for sample in ("planar_n7_seed2", "planar_n8_seed16", "corrugated_2_5_seed36",
                   "corrugated_3_4_seed44")
    for heights in ("canonical", "bound_2")
]


@pytest.mark.parametrize("lift", SLICING_LIFTS, ids=SLICING_IDS)
def test_slicing_pass_matches_fresh_checks(lift):
    # both verdicts of the one pass and its L2.8 line equal the fresh checks
    pj = lift()
    H, sliced, indep = _reference_slicing(pj)
    line = H.get((pj.n - 1, pj.n - 1))
    assert lifting._checked_pass(pj) == (sliced, indep, line)
    assert fully_sliced_check(pj) == sliced
    assert prism_independence_check(pj) == indep


def test_slicing_pass_names_a_prism_whose_slice_set_differs(monkeypatch):
    # prism 6 is made to repeat one slice point in place of another; every
    # H_{g,k} that reaches it after an earlier prism reports it, and L2.5,
    # which compares no sets, still holds.  No prism spans, so every slice
    # is cut from its flat
    pj = parallel_lift(build_A_sequences(random_axis_aligned(5, seed=5)),
                       canonical_heights(5, 2))
    moved, real = pj.prism_at(6), lifting._Skeleton.slices
    monkeypatch.setattr(lifting, "_spans", lambda T: False)

    def slices(skeleton, W):
        points, reasons = real(skeleton, W)
        if skeleton.prism is moved:
            points = points[1:2] + points[1:]
        return points, reasons

    monkeypatch.setattr(lifting._Skeleton, "slices", slices)
    assert fully_sliced_check(pj) == (True, ())
    assert prism_independence_check(pj) == (False, tuple(
        f"H({g},{k}): prism 6 slice set differs"
        for g, k in ((1, 5), (2, 4), (2, 6), (3, 3), (3, 5), (4, 4))))


def test_fully_sliced_check_raises_like_prism_independence_check():
    # H(2,2) reaches the far prism 4, whose level-3 face is degenerate: the
    # one pass slices it for both checks, so both raise.  lift_report turns
    # these heights down (their normals have rank 2) and lifts with others
    P = random_axis_aligned_m(3, 4, 29, 5)
    pj = parallel_lift(build_A_sequences(P), canonical_heights(4, 3))
    for check in (fully_sliced_check, prism_independence_check):
        with pytest.raises(DegenerateSpan) as exc:
            check(pj)
        assert str(exc.value) == "level 3 face 0 has dimension 2"
    rep = lift_report(P)
    assert rep.ok and not rep.used_canonical


# Known open defect: at n=4 about one draw in 500 fails L2.5 and L2.6,
# because H(3,3) cuts prisms 2 and 4 in repeated points; L2.7 and L2.8 hold.
# These are the reports as the library gives them today.  When the defect
# is resolved, this expectation changes with it.
OPEN_DEFECT_N4_SLICES = "; ".join(
    f"H(3,3) vs prism {h}: slice points are not pairwise distinct" for h in (2, 4)
)
OPEN_DEFECT_N4_CHECKS = (
    ("L2.1", True, "joints and prisms constructed"),
    ("L2.2", True, "normal rank 3 of 3"),
    ("L2.3", True, "joint centroids coincide and project to the predicted point"),
    ("L2.4", True, "skeleton intersection recurrence"),
    ("L2.5", False, OPEN_DEFECT_N4_SLICES),
    ("L2.6", False, OPEN_DEFECT_N4_SLICES),
    ("L2.7", True, "mating chain matches the map orbit"),
    ("L2.8", True, "collapse line carries final mating points and centroid"),
)


@pytest.mark.parametrize("variant,sample", [
    ("mirror_even", lambda: random_axis_aligned_mirror(4, 14234457832150684138, 10)),
    ("planar", lambda: random_axis_aligned(4, 12131605065070490169, 10)),
])
def test_open_defect_n4_repeated_slice_points(variant, sample):
    rep = lift_report(sample())
    assert rep.variant == variant and rep.used_canonical
    assert tuple((c.check_id, c.ok, c.detail) for c in rep.checks) == OPEN_DEFECT_N4_CHECKS


def test_lift_report_computes_normals_once(monkeypatch):
    # the accepted lift's normals serve general position, L2.2 and the report
    calls = []

    def counted(J):
        calls.append(J)
        return original(J)

    original = lifting.hyperplane_normal
    monkeypatch.setattr(lifting, "hyperplane_normal", counted)
    rep = lift_report(random_axis_aligned(5, seed=5))
    assert rep.ok and rep.used_canonical
    assert len(calls) == len(rep.normals) == 4
    assert rep.checks[1] == lifting.LiftCheck("L2.2", True, "normal rank 4 of 4")


@pytest.mark.parametrize("sample", [
    lambda: random_axis_aligned(5, seed=5),
    lambda: random_axis_aligned_mirror(5, seed=5),
    lambda: random_axis_aligned_m(3, 3, seed=0),
], ids=["planar_n5", "mirror_n5", "corrugated_3_3"])
def test_skeleton_meets_only_level_j_faces(monkeypatch, sample):
    # L2.4 is a dimension count and the slice lines are joins of the slice
    # points: a slice makes one meet per level-j face, the recurrence none.
    # One pass builds each H_{g,k} once and slices it once per prism in reach.
    # The skeleton checks and prism_independence_check run this path on the
    # report's lift once no prism spans, so that no slice mates
    P = sample()
    rep = lift_report(P)
    assert rep.ok
    seqs = lifting._lift_chain(rep.variant, build_A_sequences(P))[0]
    pj = parallel_lift(seqs, rep.heights)
    meets = []
    calls = []
    flats = []

    def built(g, k, hyperplanes):
        flats.append((g, k, flat_H(g, k, hyperplanes)))
        return flats[-1][2]

    def counted(self, other):
        meets.append((self, other))
        return intersect(self, other)

    def measured(name):
        original = getattr(lifting._Skeleton, name)

        def wrapper(skeleton, *args):
            before = len(meets)
            result = original(skeleton, *args)
            calls.append((name, skeleton.prism.n, args, result, len(meets) - before,
                          skeleton.prism))
            return result

        return wrapper

    intersect = AffineFlat.intersect
    monkeypatch.setattr(AffineFlat, "intersect", counted)
    monkeypatch.setattr(lifting, "flat_H", built)
    monkeypatch.setattr(lifting, "_spans", lambda T: False)
    for name in ("recurrence_holds", "slices"):
        monkeypatch.setattr(lifting._Skeleton, name, measured(name))
    assert all(lifting.skeleton_recurrence_check(T, pj.n - 1) for T in pj.prisms)
    assert prism_independence_check(pj) == (True, ())
    recurrences = [c for c in calls if c[0] == "recurrence_holds"]
    slices = [c for c in calls if c[0] == "slices"]
    assert recurrences and all(made == 0 for *_, made, _ in recurrences)
    assert slices and all(made == n for _, n, _, _, made, _ in slices)
    # the line pass ran: below the top level, with distinct points
    assert any(W.codim < n - 1 and not reasons
               for _, n, (W,), (_, reasons), _, _ in slices)
    n = rep.n
    assert [(g, k) for g, k, _ in flats] == [
        (g, k) for g in range(1, n) for k in range(g, 2 * n - 1 - g, 2)]
    label = dict(zip(pj.prisms, pj.prism_labels()))
    flat_of = {id(W): (g, k) for g, k, W in flats}
    assert [(*flat_of[id(W)], label[prism]) for *_, (W,), _, _, prism in slices] == [
        (g, k, h) for g, k, _ in flats for h in pj.prism_labels() if abs(h - k) <= g]


@pytest.mark.parametrize("sample", [
    lambda: random_axis_aligned(5, seed=5),
    lambda: random_axis_aligned_mirror(5, seed=5),
], ids=["planar_n5", "mirror_n5"])
def test_point_cuts_build_no_flats(monkeypatch, sample):
    # once the skeleton levels are built and W's and the faces' equation rows
    # are read, each point cut and the slice line comparison of
    # fully_sliced_check's pass make no span, echelon or kernel (no prism
    # spans, so that every slice is cut from its flat)
    P = sample()
    rep = lift_report(P)
    seqs = lifting._lift_chain(rep.variant, build_A_sequences(P))[0]
    pj = parallel_lift(seqs, rep.heights)
    made, slicing, sliced = [], [], []

    def counted(name, original):
        def wrapper(*args):
            if slicing:
                made.append(name)
            return original(*args)

        return wrapper

    def slices(skeleton, W):
        W._equation_rows()
        skeleton.level(min(W.codim + 1, skeleton.prism.n - 1))
        for face in skeleton.level(W.codim):
            face._equation_rows()
        slicing.append(W)
        try:
            sliced.append(real(skeleton, W))
        finally:
            slicing.pop()
        return sliced[-1]

    real = lifting._Skeleton.slices
    monkeypatch.setattr(lifting._Skeleton, "slices", slices)
    monkeypatch.setattr(lifting, "_spans", lambda T: False)
    monkeypatch.setattr(AffineFlat, "span_with", counted("span_with", AffineFlat.span_with))
    for name in ("integer_echelon", "integer_kernel"):
        monkeypatch.setattr(lifting.linalg, name, counted(name, getattr(lifting.linalg, name)))
    assert fully_sliced_check(pj) == (True, ())
    assert rep.ok and rep.n == 5
    assert len(sliced) > 2 * rep.n and all(not reasons for _, reasons in sliced)
    assert made == []


@pytest.mark.parametrize("sample", [
    lambda: random_axis_aligned(5, seed=5),
    lambda: random_axis_aligned_mirror(5, seed=5),
    lambda: random_axis_aligned_m(3, 3, seed=0),
    lambda: random_axis_aligned(7, seed=3),
], ids=["planar_n5", "mirror_n5", "corrugated_3_3", "planar_n7"])
def test_mated_lift_report_builds_no_flats(monkeypatch, sample):
    # where every slice mates, a report builds no H-flat and no skeleton, and
    # makes no meet of flats; the report is the one every slice cut from its
    # flat gives, which no spanning prism forces
    P = sample()
    calls = []

    def recorded(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    monkeypatch.setattr(lifting, "flat_H", recorded("flat_H", lifting.flat_H))
    monkeypatch.setattr(AffineFlat, "intersect", recorded("intersect", AffineFlat.intersect))
    for name in ("slices", "recurrence_holds"):
        monkeypatch.setattr(lifting._Skeleton, name,
                            recorded(name, getattr(lifting._Skeleton, name)))
    rep = lift_report(P)
    assert rep.ok and calls == []
    monkeypatch.setattr(lifting, "_spans", lambda T: False)
    assert lift_report(P) == rep
    assert {"flat_H", "intersect", "slices", "recurrence_holds"} <= set(calls)


@pytest.mark.parametrize("sample, chains", [
    (lambda: random_axis_aligned(5, seed=5), 1),
    (lambda: random_axis_aligned_m(3, 3, seed=0), 1),
    (lambda: random_axis_aligned_mirror(4, seed=4), 1),
    # two star-mating windows; L2.8 reads the final stage of window 1
    (lambda: random_axis_aligned_mirror(5, seed=5), 2),
], ids=["planar", "corrugated", "mirror_even", "mirror_odd"])
def test_lift_report_builds_sequences_and_chain_once(monkeypatch, sample, chains):
    P = sample()
    calls = {"build_A_sequences": 0, "_run_chain": 0}
    collapse = []

    def counted(name):
        original = getattr(lifting, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def spy(*args):
        collapse.append(original_collapse_line(*args))
        return collapse[-1]

    original_collapse_line = lifting._collapse_line
    for name in calls:
        monkeypatch.setattr(lifting, name, counted(name))
    monkeypatch.setattr(lifting, "_collapse_line", spy)
    rep = lift_report(P)
    monkeypatch.undo()
    assert rep.ok
    assert calls == {"build_A_sequences": 1, "_run_chain": chains}
    # L2.7 and L2.8 give what the stand-alone checks give
    seqs = build_A_sequences(P)
    if rep.variant == "mirror_odd":
        seqs = seqs[:-1]
    pj = parallel_lift(seqs, rep.heights)
    assert collapse == [lifting.collapse_line_check(P, pj)]
    assert rep.checks[6].ok == mating_orbit_check(P).ok


@pytest.mark.parametrize("sequences, label", [(2, 5), (3, 7)])
def test_public_checks_on_a_short_polyjoint_name_the_missing_hyperplane(sequences, label):
    """A polyjoint of fewer than n - 1 sequences has no hyperplane at the
    labels past its last joint; both public checks raise the typed error
    from ``flat_H``, naming the first H-flat that needs one and its labels."""
    P = random_axis_aligned(5, 0)
    pj = parallel_lift(build_A_sequences(P)[:sequences], canonical_heights(5, 2))
    for check in (fully_sliced_check, prism_independence_check):
        with pytest.raises(MissingHyperplane) as info:
            check(pj)
        assert str(info.value) == f"H_2,{label - 1}: no hyperplane at labels [{label}]"
    with pytest.raises(MissingHyperplane):
        flat_H(2, label - 1, pj.joint_flats())
