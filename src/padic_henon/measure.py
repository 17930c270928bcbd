"""Exact Haar measures on Q_p and Q_p^2, normalized so the unit ball has measure 1.

A closed ball of radius p^a has measure p^a; the norm sphere {|x| = p^a} has
measure p^a (1 - 1/p).  Plane measures of profile rectangles are products of
sphere measures.  All values are exact rationals.
"""

from __future__ import annotations

from fractions import Fraction

from .padics import _decimal
from .regions import RegionLabel, region_rows, t_profile

__all__ = [
    "ball_measure",
    "sphere_measure",
    "profile_measure",
    "tn_measure",
    "tn_ball_product",
    "tn_rows",
    "region_window_measure",
    "fraction_text",
    "measure_report",
]


def ball_measure(a: int, p: int) -> Fraction:
    """mu of the closed ball of radius p^a: exactly p^a."""
    return Fraction(p) ** a


def sphere_measure(a: int, p: int) -> Fraction:
    """mu of the norm sphere {|x| = p^a}: p^a (1 - 1/p)."""
    return Fraction(p) ** a * (1 - Fraction(1, p))


def profile_measure(a: int, b: int, p: int) -> Fraction:
    """mu_2 of the profile rectangle {|x| = p^a} x {|y| = p^b}."""
    return sphere_measure(a, p) * sphere_measure(b, p)


def tn_measure(n: int, k: int, p: int) -> Fraction:
    """Exact plane measure of the n-th overlay sphere pair, for |c| = p^k with k >= 2.

    The set is {|x| = p^((k-1)F(n+1))} x {|y| = p^((k-1)F(n))}, a product of
    norm spheres, so its measure is p^((k-1)F(n+2)) (1 - 1/p)^2.
    """
    a, b = t_profile(n, k)
    return profile_measure(a, b, p)


def tn_ball_product(n: int, k: int, p: int) -> Fraction:
    """The coarser closed-ball product p^((k-1)F(n+2)); an upper bound for tn_measure.

    Exceeds the exact sphere-product measure by the factor (1 - 1/p)^(-2); both
    diverge in sum, so either quantity certifies infinite total measure.
    """
    a, b = t_profile(n, k)
    return ball_measure(a, p) * ball_measure(b, p)


def tn_rows(n_max: int, k: int, p: int) -> list:
    """Per-n report rows: exact measure, ball product, their ratio, running sum."""
    rows = []
    total = Fraction(0)
    ratio = (1 - Fraction(1, p)) ** 2
    for n in range(n_max + 1):
        exact = tn_measure(n, k, p)
        total += exact
        rows.append(
            {
                "n": n,
                "exact": exact,
                "ball_product": tn_ball_product(n, k, p),
                "sphere_to_ball_ratio": ratio,
                "partial_sum": total,
            }
        )
    return rows


def region_window_measure(label: RegionLabel, d: int, p: int, window: int) -> Fraction:
    """Exact mu_2 of the region's profiles restricted to |a|, |b| <= window.

    Summed by row: the spheres b = lo..hi of one row make the shell between
    the balls of radius p^(lo-1) and p^hi.
    """
    total = Fraction(0)
    for a, lo, hi in region_rows(label, d, window):
        total += sphere_measure(a, p) * (ball_measure(hi, p) - ball_measure(lo - 1, p))
    return total


def fraction_text(f: Fraction) -> str:
    """f as "numerator/denominator" at any length, the denominator written even when 1."""
    return f"{_decimal(f.numerator)}/{_decimal(f.denominator)}"


def measure_report(label: RegionLabel, d: int, p: int, window: int) -> dict:
    value = region_window_measure(label, d, p, window)
    return {
        "label": label.to_json(),
        "d": d,
        "p": p,
        "window": window,
        "exact": fraction_text(value),
    }
