import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padic_henon import gridcheck, regions
from padic_henon.gridcheck import (
    MAX_WITNESSES,
    _column_groups,
    _step_pieces,
    check_partition,
    check_transition_profiles,
    classifier_agreement,
    transition_sources,
)
from padic_henon.regions import (
    Regime,
    RegionLabel,
    eval_constraint,
    expected_preimage_regions,
    iter_region_labels,
    profile_in_region,
    regime_of_d,
    region_branches,
    region_rows,
    t_profile,
)


# (profile, d, cancel_depth, expected (a', b', e) groups of one backward step)
_STEP_CASES = {
    "deterministic": ((2, 0), 1, 0, [(0, 2, None)]),
    "cancellation": ((1, 0), 1, 3, [(0, 1, 1), (0, 0, 0), (0, -1, -1), (0, -2, -2)]),
    "torus_stays": ((0, 0), -1, 0, [(0, 0, None)]),
}


def _step_groups(pieces, d, cancel_depth):
    """One step as (pieces, e) groups: the deterministic pieces with e None,
    then the column expanded at every e from d down to d - cancel_depth."""
    det, column = _step_pieces(pieces, d)
    return ([(det, None)] if det else []) + _column_groups(column, (), d, d - cancel_depth)


@pytest.mark.parametrize("case", _STEP_CASES.values(), ids=_STEP_CASES.keys())
def test_step_profiles(case):
    (a, b), d, cancel_depth, expected = case
    got = []
    for pieces, e in _step_groups([(a, b, b, a, 0, 0, 1)], d, cancel_depth):
        ((sa, lo, hi, a0, a1, b0, b1),) = pieces
        assert (sa, lo, hi) == (a, b, b)
        got.append((a0 + a1 * b, b0 + b1 * b, e))
    assert got == expected


def test_step_pieces_keep_source_order_across_the_column():
    # A piece whose profiles (a1*t, 0) cross a = d splits below, on and above
    # the column; the deterministic group keeps increasing t for either slope.
    d = 0
    for a1 in (1, -1):
        (det, e_det), (col0, e0), (col1, e1) = _step_groups([(7, -3, 3, 0, a1, 0, 0)], d, 1)
        assert (e_det, e0, e1) == (None, 0, -1)
        outcomes = [(t, (p0 + p1 * t, q0 + q1 * t)) for _, lo, hi, p0, p1, q0, q1 in det for t in range(lo, hi + 1)]
        assert outcomes == [(t, (0, max(a1 * t, d))) for t in (-3, -2, -1, 1, 2, 3)]
        assert col0 == [(7, 0, 0, 0, 0, 0, 0)] and col1 == [(7, 0, 0, 0, 0, -1, 0)]


_PARTITION_CASES = [(d, 120) for d in (-3, -2, -1, 0, 1, 2, 3)] + [(0, 30)]


@pytest.mark.parametrize(
    "d, W", _PARTITION_CASES, ids=[str(d) if W == 120 else f"{d}-{W}" for d, W in _PARTITION_CASES]
)
def test_partition_exact_medium_window(d, W):
    report = check_partition(d, W)
    assert report.cells == (2 * W + 1) ** 2
    assert report.exact, (report.uncovered[:3], report.overlaps[:3])


def _break_a1_and_a2(monkeypatch):
    # A1 shrunk to a <= d - 1 leaves the column a = d, b >= 0 uncovered; A2
    # widened to b <= d + 1 overlaps the flat band A5 on b = -1 at d = -2.
    monkeypatch.setitem(regions._SMALL_TABLE, ("A", 1), [[(1, 0, 1, -1, "<="), (0, 1, 0, 0, ">=")]])
    monkeypatch.setitem(regions._SMALL_TABLE, ("A", 2), [[(1, 0, 0, 0, ">="), (0, 1, 1, 1, "<=")]])


def test_partition_reports_holes_and_overlaps(monkeypatch):
    _break_a1_and_a2(monkeypatch)
    report = check_partition(-2, 5)
    assert not report.exact
    assert report.uncovered == [{"a": -2, "b": b, "labels": []} for b in range(6)]
    assert report.overlaps == [{"a": a, "b": -1, "labels": ["A2", "A5"]} for a in range(6)]
    # The agreement walk needs an exact tiling and says so before it classifies.
    with pytest.raises(AssertionError, match=r"does not tile the window at d=-2: uncovered \[\{'a': -2, 'b': 0"):
        classifier_agreement(-2, 5)


def test_partition_lists_at_most_ten_witnesses(monkeypatch):
    # At window 12 the same edit leaves 13 holes and 13 overlaps; the report
    # lists the first 10 of each, in scan order, and is still not exact.
    _break_a1_and_a2(monkeypatch)
    report = check_partition(-2, 12)
    assert MAX_WITNESSES == 10 and not report.exact
    assert report.uncovered == [{"a": -2, "b": b, "labels": []} for b in range(10)]
    assert report.overlaps == [{"a": a, "b": -1, "labels": ["A2", "A5"]} for a in range(10)]


@pytest.mark.parametrize("d", [-1, 0, -4])
def test_partition_needs_room_for_one_witness(monkeypatch, d):
    # With the region that holds (0, 0) emptied the window has a hole there,
    # and the report lists it: a report with no witness would read exact.
    # At d < 0 that region is SMALL Z, and (0, 0) is its one cell.
    label = regions.classify((0, 0), d)
    monkeypatch.setitem(regions._TABLES[label.regime], (label.name, label.index), [])
    report = check_partition(d, 4)
    hole = {"a": 0, "b": 0, "labels": []}
    assert not report.exact and hole in report.uncovered
    if d < 0:
        assert label.name == "Z" and report.uncovered == [hole]


# The six d of the window-1000 benchmark, d = -2 and d = 5.
@pytest.mark.parametrize("d", [-3, -2, -1, 0, 1, 2, 3, 5])
def test_classifier_agrees_with_table(d):
    rng = random.Random(31)
    assert classifier_agreement(d, 80, sample=500, rng=rng) > 0


def test_agreement_compares_labels_by_value(monkeypatch):
    """The identity test is only a shortcut: an equal label that is another
    object still agrees, and a different label still raises."""
    classify = gridcheck.classify
    copies = []

    def equal_copy(profile, d):
        copies.append(dataclasses.replace(classify(profile, d)))
        return copies[-1]

    monkeypatch.setattr(gridcheck, "classify", equal_copy)
    assert classifier_agreement(-2, 5) == 121
    assert len(copies) == 121
    assert not any(c is regions._label(c.regime, c.name, c.index) for c in copies)

    def wrong_at_one_cell(profile, d):
        label = classify(profile, d)
        return RegionLabel(label.regime, "A", 4) if profile == (1, 1) else label

    monkeypatch.setattr(gridcheck, "classify", wrong_at_one_cell)
    with pytest.raises(AssertionError, match=r"disagrees with region table at \(1, 1\), d=-2: A4 vs B2"):
        classifier_agreement(-2, 5)


def test_agreement_sample_needs_an_rng():
    # Without an rng the samples were dropped silently: 121 cells, 0 samples.
    with pytest.raises(ValueError, match="needs an rng"):
        classifier_agreement(-3, 5, sample=500)
    with pytest.raises(ValueError, match="sample must be >= 0"):
        classifier_agreement(-3, 5, sample=-1, rng=random.Random(0))
    assert classifier_agreement(-3, 5) == 121
    assert classifier_agreement(-3, 5, sample=7, rng=random.Random(0)) == 128


# Each window entry point, called with a window, and what it must report at
# window 0: the one cell (0, 0).  A negative window used to pass with phantom
# cells: 1 cell and exact, 1 agreeing cell, ok transition checks with no profile.
_WINDOW_ENTRY_POINTS = {
    "check_partition": (lambda w: check_partition(-3, w), lambda r: r.cells == 1 and r.exact),
    "classifier_agreement": (lambda w: classifier_agreement(-3, w), lambda r: r == 1),
    "check_transition_profiles": (
        lambda w: check_transition_profiles(RegionLabel(Regime.SMALL, "Z"), -3, w),
        lambda r: r.profiles_checked == r.outcomes_checked == 1 and r.ok,
    ),
}


@pytest.mark.parametrize("call, at_zero", _WINDOW_ENTRY_POINTS.values(), ids=_WINDOW_ENTRY_POINTS.keys())
def test_negative_window_rejected(call, at_zero):
    for window in (-1, -2):
        # check_transition_profiles defaults cancel_depth to the window, and
        # the message names the window, the parameter the caller passed.
        with pytest.raises(ValueError, match=rf"^window must be >= 0, got {window}$"):
            call(window)
    assert at_zero(call(0))


def test_profile_in_region_on_arbitrary_cells():
    h = RegionLabel(Regime.LARGE, "H", None)
    assert [profile_in_region(h, a, b, 2) for a, b in ((1, 1), (5, -1), (-2, 3))] == [False, True, False]
    seen = {label for d in (-3, 0, 2) for label in iter_region_labels(d, 15, include_t=True)}
    golden = {RegionLabel(Regime.SMALL, n, i) for n, i in (("B", 1), ("B", 2), ("P", 4), ("P", 5))}
    multi = {RegionLabel(Regime.SMALL, "P", 6), RegionLabel(Regime.UNIT, "C", 0), RegionLabel(Regime.LARGE, "C", 0)}
    assert golden <= seen and multi <= seen
    assert all(any(con[0] == "golden" for con in region_branches(lbl)[0]) for lbl in golden)
    assert all(len(region_branches(lbl)) > 1 for lbl in multi)
    # A cell that only a later branch holds is inside: a failed first branch
    # moves on to the next one instead of deciding.
    for label, d, cell in ((RegionLabel(Regime.SMALL, "P", 6), -3, (-3, -1)),
                           (RegionLabel(Regime.UNIT, "C", 0), 0, (-4, 0)),
                           (RegionLabel(Regime.LARGE, "C", 0), 2, (2, -3))):
        held = [all(eval_constraint(con, *cell, d) for con in branch) for branch in region_branches(label)]
        assert held[-1] and not any(held[:-1]) and profile_in_region(label, *cell, d), str(label)


def test_all_transitions_hold_except_known_corner():
    expected_bad = {(2, "T1")}
    seen_bad = set()
    for d in (-3, -1, 0, 1, 2, 3):
        for source in transition_sources(regime_of_d(d), d, 60):
            if not check_transition_profiles(source, d, 60).ok:
                seen_bad.add((d, str(source)))
    assert seen_bad == expected_bad


@pytest.mark.parametrize("d", [-2, -1, 0, 1, 2, 3])
def test_labels_come_from_the_regime_of_d(d):
    """d alone decides the regime, and the enumeration ends at every d."""
    labels = list(iter_region_labels(d, 10, include_t=True))
    assert labels and {label.regime for label in labels} == {regime_of_d(d)}


@pytest.mark.parametrize("regime,d", [(Regime.LARGE, -1), (Regime.LARGE, 0), (Regime.SMALL, 2)])
def test_transition_sources_reject_a_regime_that_d_does_not_have(regime, d):
    with pytest.raises(ValueError, match=f"d={d} is not in regime {regime.value}"):
        next(transition_sources(regime, d, 10))


@pytest.mark.parametrize("source,d", [
    (RegionLabel(Regime.SMALL, "A", 1), 2),
    (RegionLabel(Regime.LARGE, "G", None), -1),
])
def test_transition_check_rejects_a_source_from_another_regime(source, d):
    with pytest.raises(ValueError, match=f"d={d} is not in regime {source.regime.value}"):
        check_transition_profiles(source, d, 10)


def test_transition_check_rejects_a_target_from_another_regime():
    # A target of another regime is a malformed claim: it raises rather than
    # failing every outcome as a counterexample.
    with pytest.raises(ValueError, match="^d=-2 is not in regime large$"):
        check_transition_profiles(RegionLabel(Regime.SMALL, "A", 1), -2, 10,
                                  targets=[RegionLabel(Regime.LARGE, "G", None)])


def test_overlay_descent_counterexample_structure():
    # k = 2, n = 1: the overlay sphere of T1 sits on |x| = |c|, so the
    # difference x - c can cancel; every enumerated cancellation leaves T0.
    t1 = RegionLabel(Regime.LARGE, "T", 1)
    check = check_transition_profiles(t1, 2, 30)
    assert not check.ok
    assert all(ce.source_profile == (2, 1) for ce in check.counterexamples)
    assert all(ce.cancellation_exponent < 2 for ce in check.counterexamples)
    # Clean descent for every deeper sphere and for k >= 3.
    for n in (2, 3, 4):
        assert check_transition_profiles(RegionLabel(Regime.LARGE, "T", n), 2, 30).ok
    for n in (1, 2, 3):
        assert check_transition_profiles(RegionLabel(Regime.LARGE, "T", n), 3, 30).ok


def test_two_step_band_collapse_boundary():
    # Depth-2 collapse of the flat band is vacuous at d = -1 (the band is
    # empty), holds at d = -2 and fails for d <= -3, where one loop through
    # the adjacent band can land back in it.
    a5 = RegionLabel(Regime.SMALL, "A", 5)
    a2 = RegionLabel(Regime.SMALL, "A", 2)
    empty = check_transition_profiles(a5, -1, 30, depth=2)
    assert empty.ok and empty.profiles_checked == 0
    assert check_transition_profiles(a5, -2, 30, depth=2).ok
    d = -3
    bad = check_transition_profiles(a5, d, 30, depth=2)
    assert not bad.ok
    assert (0, -1) in {ce.source_profile for ce in bad.counterexamples}
    for ce in bad.counterexamples:
        assert profile_in_region(a5, *ce.outcome_profile, d)
        assert not profile_in_region(a2, *ce.outcome_profile, d)


def test_failed_outcomes_counts_past_the_witness_cap():
    # Two-step flat band at d = -20: neither step meets a = d, so there is
    # one frontier group and its witnesses stop at 25, while every outcome
    # (a - b, 2b - a) with 2b - a > d lands back in the band and fails.
    d, W = -20, 100
    a5 = RegionLabel(Regime.SMALL, "A", 5)
    hand = {(a, b) for a in range(0, W + 1) for b in range(d + 1, 0) if 2 * b - a > d}
    check = check_transition_profiles(a5, d, W, depth=2)
    assert check.failed_outcomes == len(hand) == 90
    assert len(check.counterexamples) == 25
    assert {ce.source_profile for ce in check.counterexamples} <= hand
    assert not check.ok
    assert check_transition_profiles(a5, -2, W, depth=2).failed_outcomes == 0


@pytest.mark.parametrize("W", [30, 61])
@pytest.mark.parametrize("d", [-3, -1, 0, 1, 2, 3])
def test_source_cells_enumerate_region_mask(d, W):
    scan = [(a, b) for a in range(-W, W + 1) for b in range(-W, W + 1)]
    overlapping = []
    for label in iter_region_labels(d, W):
        # Reference: the table's own evaluator over the whole window, in scan
        # order, each cell once however many branches hold there.
        cells = [(a, b) for a, lo, hi in region_rows(label, d, W) for b in range(lo, hi + 1)]
        assert cells == [(a, b) for a, b in scan if profile_in_region(label, a, b, d)]
        # With no target every outcome fails, so a transition check counts
        # these cells and lists the first 25 off the column a = d in order.
        check = check_transition_profiles(label, d, W, cancel_depth=0, targets=())
        assert check.profiles_checked == check.outcomes_checked == check.failed_outcomes == len(cells)
        off_column = [c for c in cells if c[0] != d][:25]
        assert [ce.source_profile for ce in check.counterexamples[: len(off_column)]] == off_column
        # A branch holds only on cells of the region, so counting there
        # covers the whole window.
        per_branch = sum(all(eval_constraint(con, a, b, d) for con in branch)
                         for branch in region_branches(label) for a, b in cells)
        if per_branch > len(cells):
            overlapping.append(str(label))
    # C0 at d = 0 is the one label whose branches share a cell.
    assert overlapping == (["C0"] if d == 0 else [])


def test_negative_cancel_depth_rejected():
    # A negative depth used to enumerate no e at all, so the column passed
    # unchecked: 19 cells, 0 outcomes and ok.  Depth 0 checks every cell.
    p6 = RegionLabel(Regime.SMALL, "P", 6)
    for depth in (-1, -3):
        with pytest.raises(ValueError, match="cancel_depth must be >= 0"):
            check_transition_profiles(p6, -3, 20, cancel_depth=depth, targets=[])
    check = check_transition_profiles(p6, -3, 20, cancel_depth=0, targets=[])
    assert check.profiles_checked == check.outcomes_checked == check.failed_outcomes == 19


@pytest.mark.parametrize("depth", [0, -1])
def test_depth_below_one_rejected(depth):
    # Every check takes at least one backward step; a depth of 0 would
    # otherwise judge the depth-1 outcomes and report depth 0.
    a5 = RegionLabel(Regime.SMALL, "A", 5)
    with pytest.raises(ValueError, match=rf"^depth must be >= 1, got {depth}$"):
        check_transition_profiles(a5, -3, 20, depth=depth, targets=[])


def test_source_cells_empty_region_and_t_cell():
    a5 = RegionLabel(Regime.SMALL, "A", 5)
    assert region_rows(a5, -1, 30) == ()  # the flat band d < b < 0 is empty at d = -1
    empty = check_transition_profiles(a5, -1, 30, targets=())
    assert empty.profiles_checked == empty.outcomes_checked == 0 and empty.ok
    # A T sphere is its single cell, even outside the window.
    for n in (1, 9):
        check = check_transition_profiles(RegionLabel(Regime.LARGE, "T", n), 2, 30, cancel_depth=0, targets=())
        assert check.profiles_checked == check.failed_outcomes == 1
        assert [ce.source_profile for ce in check.counterexamples] == [t_profile(n, 2)]
    assert max(map(abs, t_profile(9, 2))) > 30


# --- the cell-by-cell oracle ------------------------------------------------


def _cells(label, d, W):
    if label.name == "T":
        return [t_profile(label.index, d)]
    return [(a, b) for a in range(-W, W + 1) for b in range(-W, W + 1) if profile_in_region(label, a, b, d)]


def _cell_oracle(cells, d, depth, cancel_depth, targets):
    """check_transition_profiles written cell by cell on ints, as
    (profiles, outcomes, failed, witnesses) with the same frontier groups."""
    groups = [([(cell, cell) for cell in cells], None)]
    for _ in range(depth):
        stepped = []
        for members, e0 in groups:
            det = [(src, (b, max(a, d) - b)) for src, (a, b) in members if a != d]
            column = [(src, b) for src, (a, b) in members if a == d]
            if det:
                stepped.append((det, e0))
            if column:
                for e in range(d, d - cancel_depth - 1, -1):
                    stepped.append(([(src, (b, e - b)) for src, b in column], e if e0 is None else e0))
        groups = stepped
    outcomes, failed, witnesses = 0, 0, []
    for members, e in groups:
        bad = [(src, out) for src, out in members if not any(profile_in_region(t, *out, d) for t in targets)]
        outcomes += len(members)
        failed += len(bad)
        witnesses += [(src, out, e) for src, out in bad[:25]]
    return len(cells), outcomes, failed, witnesses


def _summary(check):
    return (check.profiles_checked, check.outcomes_checked, check.failed_outcomes,
            [(ce.source_profile, ce.outcome_profile, ce.cancellation_exponent) for ce in check.counterexamples])


@pytest.mark.parametrize("W", [0, 1, 7, 20])
@pytest.mark.parametrize("d", range(-4, 5))
def test_transition_checks_match_cell_oracle(d, W):
    sources = list(transition_sources(regime_of_d(d), d, W))
    for label in sources:
        cells = _cells(label, d, W)
        targets = expected_preimage_regions(label)
        for cancel_depth in sorted({0, 3, W}):
            got = check_transition_profiles(label, d, W, cancel_depth=cancel_depth)
            assert _summary(got) == _cell_oracle(cells, d, 1, cancel_depth, targets), (str(label), cancel_depth)
    assert sources and (W < 2 or d < 2 or any(label.name == "T" for label in sources))


@pytest.mark.parametrize("d", range(-4, 5))
def test_wrong_targets_match_cell_oracle(d):
    # Each label against two other labels as its claimed targets, so most
    # outcomes fail: the witness order and the 25-per-group cap are compared.
    W = 12
    labels = list(iter_region_labels(d, W, include_t=True))
    capped = 0
    for i, label in enumerate(labels):
        cells = _cells(label, d, W)
        targets = [labels[(i + 1) % len(labels)], labels[(i + 2) % len(labels)]]
        for depth in (1, 2):
            got = check_transition_profiles(label, d, W, depth=depth, targets=targets)
            want = _cell_oracle(cells, d, depth, W, targets)
            assert _summary(got) == want, (str(label), depth)
            capped += want[2] > len(want[3])
    assert capped


def test_two_step_collapse_repaired_form():
    # The two-step image always lies in the union {deep band, flat band} and
    # the y-exponent strictly decreases, so the deep band is reached after
    # finitely many loops: the escape conclusion is intact.
    d = -3
    a2 = RegionLabel(Regime.SMALL, "A", 2)
    a5 = RegionLabel(Regime.SMALL, "A", 5)
    for a in range(0, 20):
        for b in range(d + 1, 0):
            img = (a - b, 2 * b - a)
            assert profile_in_region(a2, *img, d) or profile_in_region(a5, *img, d)
            assert img[1] < b


def test_depth_two_counts_cancellation_free():
    # The flat band never triggers cancellation on its two-step image
    # (a >= 0 > d on the first step, then d < a' < 0 on the second).
    a5 = RegionLabel(Regime.SMALL, "A", 5)
    check = check_transition_profiles(a5, -2, 50, depth=2)
    assert check.outcomes_checked == check.profiles_checked


def _settles_and_fails(source, d, W, labels):
    """Whether one column piece of the source at depth 1 has both e that one
    target branch settles on the whole piece and e where an outcome fails."""
    if source.name == "T":
        a, b = t_profile(source.index, d)
        rows = ((a, b, b),)
    else:
        rows = region_rows(source, d, W)
    _, column = _step_pieces([(a, lo, hi, a, 0, 0, 1) for a, lo, hi in rows], d)
    branches = [branch for label in labels for branch in region_branches(label)]
    for piece in column:
        _, lo, hi, a0, a1, b0, b1 = piece
        expanded = _column_groups([piece], branches, d, d - W)
        failing = [e for e in range(d - W, d + 1) for t in range(lo, hi + 1)
                   if not any(profile_in_region(label, a0 + a1 * t, e + b0 + b1 * t, d) for label in labels)]
        if failing and len(expanded) < W + 1:
            return True
    return False


def test_wrong_targets_on_repeated_images_match_the_cell_oracle(monkeypatch):
    # SMALL A1 has many rows a < d that share one image, and P6 is the
    # column a = d, judged with e free.  Targets from other labels, UNIT ones
    # included, leave outcomes failing in part of a piece.  A1 alone, or with
    # P3, settles P6's column at some e and fails it at others, as T0 does
    # for the overlay T1 at d = 2.  Each group's witnesses, their order and
    # the 25-per-group cap are compared with the cell oracle.  Only the UNIT
    # constraints cut A1's repeated images in part, so they stand in here as
    # bare constraint sets: the regime check of `union_branches`, which
    # rejects them as a claim, is bypassed.
    monkeypatch.setattr(gridcheck, "union_branches", lambda labels, d: [
        branch for label in sorted(labels, key=str) for branch in region_branches(label)])
    W = 40
    U, S, L = Regime.UNIT, Regime.SMALL, Regime.LARGE
    targets = [[(U, "H")], [(U, "G")], [(U, "M", 1), (U, "F")], [(U, "C", 0), (S, "B", 2)],
               [(S, "P", 1), (S, "P", 3)], [(S, "A", 1)], [(S, "A", 1), (S, "P", 3)]]
    cases = [(-3, RegionLabel(S, "A", 1), targets), (-3, RegionLabel(S, "P", 6), targets),
             (2, RegionLabel(L, "T", 1), [[(L, "T", 0)]])]
    partial = capped = mixed = 0
    for d, source, target_keys in cases:
        cells = _cells(source, d, W)
        for keys in target_keys:
            labels = [RegionLabel(*key) for key in keys]
            for depth in (1, 2):
                got = check_transition_profiles(source, d, W, depth=depth, targets=labels)
                want = _cell_oracle(cells, d, depth, W, labels)
                assert _summary(got) == want, (str(source), keys, depth)
                partial += 0 < want[2] < want[1]
                capped += want[2] > len(want[3])
            mixed += _settles_and_fails(source, d, W, labels)
    assert partial >= 8 and capped >= 8 and mixed >= 3


def _count_cuts(monkeypatch):
    """The branch_interval calls of gridcheck from now on, as a growing list."""
    calls = []

    def counting(*args):
        calls.append(args)
        return regions.branch_interval(*args)

    monkeypatch.setattr(gridcheck, "branch_interval", counting)
    return calls


def test_transition_work_does_not_depend_on_target_order(monkeypatch):
    # The targets are tried in one fixed order, so the same set passed in any
    # order (a frozenset's follows PYTHONHASHSEED) costs the same number of
    # cuts and gives the same check, counterexamples and their order included.
    calls = _count_cuts(monkeypatch)
    S = Regime.SMALL
    p6 = RegionLabel(S, "P", 6)
    right = sorted(expected_preimage_regions(p6, depth=1), key=str)
    wrong = [RegionLabel(S, "R"), RegionLabel(S, "P", 1), RegionLabel(S, "B", 2)]
    for source, targets in ((p6, right), (p6, wrong), (RegionLabel(S, "Z"), wrong)):
        assert len(targets) > 1
        results = []
        for order in (targets, targets[::-1], targets[1:] + targets[:1]):
            calls.clear()
            check = check_transition_profiles(source, -3, 30, targets=order)
            results.append((len(calls), check))
        assert results[0] == results[1] == results[2]
    assert results[0][1].counterexamples


@pytest.mark.parametrize("key, d", [((Regime.SMALL, "A", 1), -3), ((Regime.SMALL, "P", 3), -3),
                                    ((Regime.LARGE, "G"), 3)], ids=["A1", "P3", "G"])
def test_settled_columns_cost_the_same_at_any_window(monkeypatch, key, d):
    # Each source has a column on a = d that its targets settle at every e,
    # and rows a < d that all step to (b, d - b): the cuts do not grow with
    # W or with cancel_depth = W (3, 2 and 3 cuts; one per e and row before).
    calls = _count_cuts(monkeypatch)
    cuts = []
    for W in (30, 1000):
        calls.clear()
        check = check_transition_profiles(RegionLabel(*key), d, W, cancel_depth=W)
        assert check.ok and check.outcomes_checked > W
        cuts.append(len(calls))
    assert cuts[0] == cuts[1] <= 3


def test_window_1000_transitions_cut_less_than_one_group_per_e(monkeypatch):
    # The depth-1 checks of the window-1000 benchmark made 103,898 cuts when
    # the column was one group per e and every branch cut a whole piece; they
    # make 74,792 with the column judged with e free and runs subtracted.
    calls = _count_cuts(monkeypatch)
    for d in (-3, -1, 0, 1, 2, 3):
        for source in transition_sources(regime_of_d(d), d, 1000, include_t=False):
            check_transition_profiles(source, d, 1000, cancel_depth=1000)
    assert len(calls) == 74_792


def _branch_pool():
    """Every branch of the three regime tables, golden ones and family members
    included, and the two golden signs alone."""
    labels = [label for d in (-3, 0, 3) for label in iter_region_labels(d, 200, include_t=True)]
    assert {"A9", "B2", "M9", "T5"} <= {str(label) for label in labels}
    return [branch for label in labels for branch in region_branches(label)] + [
        [regions.GOLDEN_BELOW], [regions.GOLDEN_ABOVE]]


_BRANCHES = _branch_pool()


@settings(max_examples=400, deadline=None)
@given(
    branches=st.lists(st.sampled_from(_BRANCHES), max_size=3), d=st.integers(-5, 5),
    a0=st.integers(-30, 30), a1=st.integers(-3, 3), b0=st.integers(-30, 30), b1=st.integers(-3, 3),
    lo=st.integers(-12, 12), width=st.integers(0, 15), depth=st.integers(0, 40),
)
# SMALL A1 at d = -3 on the column image (t, e - t): b >= 0 holds from
# e = -10 at t = -10, but on all of -10..-4 only from e = -4.  Mirrored,
# on (-t, e + t) for t in 4..10, the cut at t = hi alone would settle from
# e = -10.
@example(branches=[[(1, 0, 1, 0, "<="), (0, 1, 0, 0, ">=")]], d=-3, a0=0, a1=1, b0=0, b1=-1,
         lo=-10, width=6, depth=17)
@example(branches=[[(1, 0, 1, 0, "<="), (0, 1, 0, 0, ">=")]], d=-3, a0=0, a1=-1, b0=0, b1=1,
         lo=4, width=6, depth=17)
def test_column_groups_expand_the_e_that_no_branch_settles(branches, d, a0, a1, b0, b1, lo, width, depth):
    # An e is expanded exactly when no single branch holds on every cell of
    # the piece there, e falling; with no branches every e is expanded.
    hi, elo = lo + width, d - depth
    column = [(7, lo, hi, a0, a1, b0, b1)]

    def settles(branch, e):
        return all(eval_constraint(con, a0 + a1 * t, e + b0 + b1 * t, d) for t in range(lo, hi + 1) for con in branch)

    def groups(es):
        return [([(7, lo, hi, a0, a1, e + b0, b1)], e) for e in es]

    unsettled = [e for e in range(d, elo - 1, -1) if not any(settles(branch, e) for branch in branches)]
    assert _column_groups(column, branches, d, elo) == groups(unsettled)
    assert _column_groups(column, (), d, elo) == groups(range(d, elo - 1, -1))
