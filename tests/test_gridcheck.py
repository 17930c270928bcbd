import random

import numpy as np
import pytest

from padic_henon import regions
from padic_henon.gridcheck import (
    _source_cells,
    _step_profiles,
    check_all_transitions,
    check_partition,
    check_transition_profiles,
    classifier_agreement,
    label_grid,
    region_mask,
)
from padic_henon.fib import golden_below, golden_cmp
from padic_henon.regions import (
    Regime,
    RegionLabel,
    classify,
    eval_constraint,
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


@pytest.mark.parametrize("case", _STEP_CASES.values(), ids=_STEP_CASES.keys())
def test_step_profiles(case):
    (a, b), d, cancel_depth, expected = case
    A, B = np.array([a]), np.array([b])
    groups = _step_profiles(A, B, A, B, None, d, cancel_depth)
    assert [(int(A2[0]), int(B2[0]), e) for A2, B2, e, _, _ in groups] == expected


_PARTITION_CASES = [(d, 120) for d in (-3, -2, -1, 0, 1, 2, 3)] + [(0, 30)]


@pytest.mark.parametrize(
    "d, W", _PARTITION_CASES, ids=[str(d) if W == 120 else f"{d}-{W}" for d, W in _PARTITION_CASES]
)
def test_partition_exact_medium_window(d, W):
    report = check_partition(d, W)
    assert report.cells == (2 * W + 1) ** 2
    assert report.exact, (report.uncovered[:3], report.overlaps[:3])


def test_partition_reports_holes_and_overlaps(monkeypatch):
    # A1 shrunk to a <= d - 1 leaves the column a = d, b >= 0 uncovered; A2
    # widened to b <= d + 1 overlaps the flat band A5 on b = -1 at d = -2.
    monkeypatch.setitem(regions._SMALL_TABLE, ("A", 1), [[(1, 0, 1, -1, "<="), (0, 1, 0, 0, ">=")]])
    monkeypatch.setitem(regions._SMALL_TABLE, ("A", 2), [[(1, 0, 0, 0, ">="), (0, 1, 1, 1, "<=")]])
    report = check_partition(-2, 5)
    assert not report.exact
    assert report.uncovered == [{"a": -2, "b": b, "labels": []} for b in range(6)]
    assert report.overlaps == [{"a": a, "b": -1, "labels": ["A2", "A5"]} for a in range(6)]
    capped = check_partition(-2, 5, max_witnesses=3)
    assert capped.uncovered == report.uncovered[:3] and capped.overlaps == report.overlaps[:3]


@pytest.mark.parametrize("d", [-2, 0, 2])
def test_classifier_agrees_with_table(d):
    rng = random.Random(31)
    assert classifier_agreement(d, 80, sample=500, rng=rng) > 0


def test_region_mask_matches_scalar_membership():
    d, W = 2, 20
    for label in (
        RegionLabel(Regime.LARGE, "M", 3),
        RegionLabel(Regime.LARGE, "B", 2),
        RegionLabel(Regime.LARGE, "C", 0),
    ):
        mask = region_mask(label, W, d)
        for a in range(-W, W + 1):
            for b in range(-W, W + 1):
                assert mask[a + W, b + W] == profile_in_region(label, a, b, d)


def test_label_grid_matches_classify():
    d, W = -2, 40
    labels, grid = label_grid(d, W)
    rng = random.Random(7)
    for _ in range(400):
        a, b = rng.randrange(-W, W + 1), rng.randrange(-W, W + 1)
        assert labels[grid[a + W, b + W]] == classify((a, b), d)


def test_profile_in_region_on_arbitrary_arrays():
    A = np.array([1, 5, -2], dtype=np.int64)
    B = np.array([1, -1, 3], dtype=np.int64)
    mask = profile_in_region(RegionLabel(Regime.LARGE, "H", None), A, B, 2)
    assert mask.tolist() == [False, True, False]
    # The array mask of every label equals the scalar verdicts cell by cell.
    W = 15
    A, B = np.meshgrid(np.arange(-W, W + 1), np.arange(-W, W + 1), indexing="ij")
    seen = set()
    for d in (-3, 0, 2):
        for label in iter_region_labels(regime_of_d(d), d, W, include_t=True):
            seen.add(label)
            mask = profile_in_region(label, A, B, d)
            assert mask.dtype == bool and mask.shape == A.shape
            scalar = [[profile_in_region(label, a, b, d) for b in range(-W, W + 1)] for a in range(-W, W + 1)]
            assert mask.tolist() == scalar, (str(label), d)
    golden = {RegionLabel(Regime.SMALL, n, i) for n, i in (("B", 1), ("B", 2), ("P", 4), ("P", 5))}
    multi = {RegionLabel(Regime.SMALL, "P", 6), RegionLabel(Regime.UNIT, "C", 0), RegionLabel(Regime.LARGE, "C", 0)}
    assert golden <= seen and multi <= seen
    assert all(any(con[0] == "golden" for con in region_branches(lbl)[0]) for lbl in golden)
    assert all(len(region_branches(lbl)) > 1 for lbl in multi)


def test_golden_below_on_int64_meshgrid():
    W = 300
    A, B = np.meshgrid(np.arange(-W, W + 1), np.arange(-W, W + 1), indexing="ij")
    below, above = golden_below(A, B), golden_below(-A, -B)
    assert A.dtype == np.int64 and below.dtype == above.dtype == bool
    sign = np.array([[golden_cmp(b, a) for b in range(-W, W + 1)] for a in range(-W, W + 1)])
    assert (below == (sign < 0)).all() and (above == (sign > 0)).all()
    assert below.any() and above.any()


def test_all_transitions_hold_except_known_corner():
    expected_bad = {(2, "T1")}
    seen_bad = set()
    for d in (-3, -1, 0, 1, 2, 3):
        for check in check_all_transitions(d, 60):
            if not check.ok:
                seen_bad.add((d, str(check.source)))
    assert seen_bad == expected_bad


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
    coords = np.arange(-W, W + 1)
    AA, BB = np.meshgrid(coords, coords, indexing="ij")
    overlapping = []
    for label in iter_region_labels(regime_of_d(d), d, W):
        A, B = _source_cells(label, d, W)
        ii, jj = np.nonzero(region_mask(label, W, d))
        assert A.dtype == B.dtype == np.int64
        assert A.tolist() == (ii - W).tolist() and B.tolist() == (jj - W).tolist()
        # Reference: the table's own evaluator over the whole window, in scan
        # order, each cell once however many branches hold there.
        inside = profile_in_region(label, AA, BB, d)
        assert A.tolist() == AA[inside].tolist() and B.tolist() == BB[inside].tolist()
        per_branch = 0
        for branch in region_branches(label):
            held = np.ones(AA.shape, dtype=bool)
            for con in branch:
                held &= eval_constraint(con, AA, BB, d)
            per_branch += int(np.count_nonzero(held))
        if per_branch > A.size:
            overlapping.append(str(label))
    # C0 at d = 0 is the one label whose branches share a cell.
    assert overlapping == (["C0"] if d == 0 else [])


def test_source_cells_empty_region_and_t_cell():
    a5 = RegionLabel(Regime.SMALL, "A", 5)
    assert region_rows(a5, -1, 30) == ()  # the flat band d < b < 0 is empty at d = -1
    A, B = _source_cells(a5, -1, 30)
    assert A.dtype == B.dtype == np.int64 and A.size == B.size == 0
    assert not region_mask(a5, 30, -1).any()
    # A T sphere is its single cell, even outside the window.
    for n in (1, 9):
        A, B = _source_cells(RegionLabel(Regime.LARGE, "T", n), 2, 30)
        assert list(zip(A.tolist(), B.tolist())) == [t_profile(n, 2)]
    assert max(map(abs, t_profile(9, 2))) > 30


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
