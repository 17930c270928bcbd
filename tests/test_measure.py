from fractions import Fraction

import pytest

from padic_henon.fib import fib
from padic_henon.measure import (
    ball_measure,
    measure_report,
    profile_measure,
    region_window_measure,
    sphere_measure,
    tn_ball_product,
    tn_measure,
    tn_rows,
)
from padic_henon.regions import Regime, RegionLabel, iter_region_labels, region_profiles


def test_ball_measures():
    assert ball_measure(0, 5) == 1
    assert ball_measure(3, 5) == 125
    assert ball_measure(-2, 5) == Fraction(1, 25)


def test_sphere_measures():
    assert sphere_measure(0, 5) == Fraction(4, 5)
    assert sphere_measure(1, 3) == 2


def test_sphere_telescoping_to_unit_ball():
    # sum over a <= 0 of the sphere measures telescopes to mu of the unit ball.
    p = 7
    partial = sum(sphere_measure(a, p) for a in range(0, -60, -1))
    tail = ball_measure(-60, p)
    assert partial + tail == 1


def test_ball_is_sum_of_spheres():
    p = 3
    for a in (-3, 0, 4):
        total = sum(sphere_measure(e, p) for e in range(a, a - 40, -1))
        assert total + ball_measure(a - 40, p) == ball_measure(a, p)


def test_tn_measure_first_values():
    assert tn_measure(0, 2, 3) == 4
    assert tn_measure(1, 2, 3) == 12
    assert tn_measure(n=0, k=2, p=3) == 3**2 * Fraction(4, 9)


def test_tn_requires_k_at_least_two():
    with pytest.raises(ValueError):
        tn_measure(0, 1, 3)
    with pytest.raises(ValueError):
        tn_ball_product(2, 1, 3)


def test_tn_closed_form():
    for n in range(9):
        assert tn_measure(n, 2, 3) == Fraction(3) ** fib(n + 2) * Fraction(4, 9)
        assert tn_ball_product(n, 2, 3) == Fraction(3) ** fib(n + 2)
        assert tn_measure(n, 2, 3) / tn_ball_product(n, 2, 3) == Fraction(4, 9)


def test_tn_partial_sums_hand_computed():
    rows = tn_rows(5, 2, 3)
    sums = [r["partial_sum"] for r in rows]
    assert sums == [4, 16, 124, 3040, 711628, 4649757496]


def test_tn_partial_sums_diverge_monotonically():
    rows = tn_rows(10, 2, 3)
    sums = [r["partial_sum"] for r in rows]
    assert all(b > a for a, b in zip(sums, sums[1:]))
    assert sums[8] > 10**6


def test_region_window_measure_torus():
    for p in (3, 5):
        z = RegionLabel(Regime.SMALL, "Z", None)
        assert region_window_measure(z, -1, p, 6) == (1 - Fraction(1, p)) ** 2


def test_region_window_measure_empty_inner_box():
    j0 = RegionLabel(Regime.LARGE, "J", 0)
    assert region_window_measure(j0, 1, 3, 10) == 0


def test_region_window_measure_rejects_a_label_from_another_regime():
    with pytest.raises(ValueError, match="d=-1 is not in regime large"):
        region_window_measure(RegionLabel(Regime.LARGE, "G", None), -1, 3, 10)


def test_region_window_measure_geometric_block():
    # The low corner region at d = 1 is the block {a <= 0} x {b <= -1}:
    # a finite window sums two truncated geometric series.
    p, W = 3, 5
    f = RegionLabel(Regime.LARGE, "F", None)
    got = region_window_measure(f, 1, p, W)
    col_a = sum(sphere_measure(a, p) for a in range(-W, 1))
    col_b = sum(sphere_measure(b, p) for b in range(-W, 0))
    assert got == col_a * col_b


@pytest.mark.parametrize("d", [-3, -1, 0, 1, 2, 3])
def test_region_window_measure_rows_equal_cell_sum(d):
    # The row sum telescopes each row's spheres; the reference adds one
    # profile rectangle per cell.  This meets P6's two-interval row, the
    # golden cuts of B1/B2 and P4/P5, and the T cells.
    for W in (0, 1, 6, 12):
        for label in iter_region_labels(d, W, include_t=True):
            cells = region_profiles(label, d, W)
            for p in (3, 5):
                expected = sum((profile_measure(a, b, p) for a, b in cells), Fraction(0))
                assert region_window_measure(label, d, p, W) == expected, (str(label), d, W, p)


def test_region_window_measure_monotone_in_window():
    label = RegionLabel(Regime.UNIT, "M", 2)
    vals = [region_window_measure(label, 0, 3, W) for W in (2, 4, 6, 8)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_measure_report_schema():
    rep = measure_report(RegionLabel(Regime.SMALL, "Z", None), -1, 3, 4)
    assert rep["exact"] == "4/9"
    assert rep["label"]["name"] == "Z"
    assert "decimal_hint" not in rep  # exact values only
