import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padic_henon import regions
from padic_henon.fib import fib, golden_below, golden_cmp
from padic_henon.regions import (
    EmptyRegionError,
    Regime,
    RegionLabel,
    branch_interval,
    branches_hold,
    classify,
    eval_constraint,
    expected_preimage_regions,
    iter_region_labels,
    profile_in_region,
    regime_of_d,
    region_branches,
    region_profiles,
    region_rows,
    region_sampler,
    sample_in_region,
    t_profile,
)

S, U, L = Regime.SMALL, Regime.UNIT, Regime.LARGE


def lbl(regime, name, index=None):
    return RegionLabel(regime, name, index)


# --- pinned classifications ---------------------------------------------------


@pytest.mark.parametrize(
    "d,profile,name,index",
    [
        (-1, (0, 0), "Z", None),
        (-1, (-1, -1), "R", None),
        (-2, (-2, -3), "P", 6),
        (-2, (-3, -2), "P", 1),
        (-1, (-2, 1), "A", 1),
        (-1, (1, -2), "A", 2),
        (-1, (2, 0), "A", 3),
        (-1, (0, 3), "A", 4),
        (-3, (0, -1), "A", 5),
        (-3, (-1, 2), "A", 6),
        (-1, (5, 2), "B", 1),  # beta*2 < 5
        (-1, (2, 5), "B", 2),
        (-1, (3, 2), "B", 2),  # beta*2 > 3
        (2, (1, 1), "J", 0),
        (1, (1, 0), "C", 0),
        (1, (0, 1), "C", 0),
        (1, (0, 0), "C", 0),
        (2, (-1, 3), "G", None),
        (2, (3, -1), "H", None),
        (2, (-1, -1), "F", None),
        (0, (3, 2), "M", 3),  # 2a <= 3b with b < a
        (0, (4, 2), "M", 2),  # 2b <= a
        (0, (2, 3), "M", 1),
        (0, (0, 0), "C", 0),
        (0, (-4, 0), "C", 0),
        (1, (2, 1), "C", 1),
        (1, (2, 2), "M", 2),
        (1, (3, 1), "M", 1),
    ],
)
def test_classify_pinned(d, profile, name, index):
    got = classify(profile, d)
    assert (got.name, got.index) == (name, index)


def test_zero_coordinates():
    assert classify((None, 0), -1) == lbl(S, "A", 1)  # x = 0: a = -infinity
    assert classify((None, -3), -1) == lbl(S, "P", 1)
    assert classify((3, None), -1).name == "OutsideQ"
    assert classify((None, None), 2).name == "OutsideQ"
    assert classify((None, 2), 1) == lbl(L, "G", None)


def test_classify_point_uses_norms():
    from padic_henon.padics import PadicRational, Point

    pt = Point(PadicRational(1, 9, 3), PadicRational(3, 1, 3))  # profile (2, -1)
    assert pt.profile() == (2, -1)
    assert classify(pt.profile(), 1) == lbl(L, "H", None)


# --- the table's golden test against the classifier's ------------------------


def test_golden_below_matches_golden_cmp_on_ints():
    for a in range(-300, 301):
        for b in range(-300, 301):
            sign = golden_cmp(b, a)
            assert golden_below(a, b) is (sign < 0), (a, b)
            assert golden_below(-a, -b) is (sign > 0), (a, b)


def test_golden_below_matches_golden_cmp_on_fibonacci_pairs():
    # F(n+1)/F(n) straddles beta, so these pairs sit as close to the golden
    # line as integers get; from n = 91 on, a exceeds int64.
    assert fib(199) > 2**63
    for n in range(200):
        for k in (-1, 0, 1):
            a, b = fib(n + 1) + k, fib(n)
            sign = golden_cmp(b, a)
            assert golden_below(a, b) is (sign < 0), (n, k)
            assert golden_below(-a, -b) is (sign > 0), (n, k)


# --- the Fibonacci form phi_k of the indexed families -------------------------


def test_phi_is_carried_down_an_index_by_the_forward_profile_map():
    """phi_k(a, b) = (-1)^(k+1) * (F(k-1)*a - F(k)*b), and the forward profile
    map Phi(a, b) = (a + b, a) gives phi_k o Phi = phi_(k-1)."""
    rng = random.Random(2203)
    points = [(rng.randint(-(10**30), 10**30), rng.randint(-(10**30), 10**30)) for _ in range(40)]
    for k in range(91):
        sign = 1 if k % 2 else -1
        for op, cd in (("<", 1), ("==", 0), (">", 3)):
            assert regions._phi(k, op, cd) == (sign * fib(k - 1), -sign * fib(k), cd, 0, op)
        ca, cb, *_ = regions._phi(k, "==")
        ca_down, cb_down, *_ = regions._phi(k - 1, "==")
        for a, b in points:
            assert ca * (a + b) + cb * a == ca_down * a + cb_down * b, (k, a, b)


# --- exhaustive agreement between classifier and declarative table ------------


@pytest.mark.parametrize("d", [-3, -2, -1, 0, 1, 2, 3])
def test_classifier_label_satisfies_own_inequalities(d):
    for a in range(-25, 26):
        for b in range(-25, 26):
            label = classify((a, b), d)
            assert profile_in_region(label, a, b, d), (a, b, d, str(label))


@pytest.mark.parametrize("d", [-2, 0, 2])
def test_exactly_one_region_per_profile(d):
    labels = list(iter_region_labels(d, 25))
    for a in range(-25, 26):
        for b in range(-25, 26):
            hits = [str(l) for l in labels if profile_in_region(l, a, b, d)]
            assert len(hits) == 1, (a, b, d, hits)


def _deep_band_profiles(d):
    """Profiles deep in the Fibonacci band search: seeded random ones with
    a > d, b > 0 up to 10^12, and the neighbours of the band corners
    (s*F(k+1), s*F(k)), k <= 60, with s = d (1 on the UNIT golden line)."""
    rng = random.Random(7100 + d)
    out = []
    for _ in range(300):
        top = 10 ** rng.randint(1, 12)
        out.append((rng.randint(d + 1, max(top, d + 1)), rng.randint(1, top)))
    s = max(d, 1)
    for k in range(61):
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                out.append((s * fib(k + 1) + da, s * fib(k) + db))
    return out


@pytest.mark.parametrize("d", [0, 1, 2, 3, 7])
def test_deep_band_search_labels_exactly_one_region(d):
    for a, b in _deep_band_profiles(d):
        got = classify((a, b), d)
        assert profile_in_region(got, a, b, d), (a, b, d, str(got))
        labels = iter_region_labels(d, max(abs(a), abs(b)))
        hits = [l for l in labels if profile_in_region(l, a, b, d)]
        assert hits == [got], (a, b, d, [str(l) for l in hits])
        again = classify((a, b), d)
        fresh = RegionLabel(got.regime, got.name, got.index)
        assert again == got == fresh and hash(again) == hash(got) == hash(fresh)


def _band_corner_cells():
    """(a, b, d): the cells within 2 of each band corner (d*F(k), d*F(k-1)),
    k <= 300, for LARGE d, and of (F(k+1), F(k)) on the UNIT golden line.
    Each LARGE d takes every third k, from an offset that turns with d, so
    every k <= 300 has its corner checked at two of the six d."""
    for j, d in enumerate((1, 2, 3, 5, 8, 13)):
        corners = [(d * fib(k), d * fib(k - 1)) for k in range(j % 3, 301, 3)]
        yield from ((a + da, b + db, d) for a, b in corners for da in range(-2, 3) for db in range(-2, 3))
    corners = [(fib(k + 1), fib(k)) for k in range(301)]
    yield from ((a + da, b + db, 0) for a, b in corners for da in range(-2, 3) for db in range(-2, 3))


def test_deep_rung_labels_hold_and_are_shared():
    # Far past any small index: the LARGE search starts at the first rung
    # that can hold the cell, and family labels are built for any index.
    # Exactly one label holds among every fixed label of the regime and each
    # family member within 2 of the classifier's index.
    candidates = {}  # (regime, index) -> the labels to count
    deepest = 0
    for a, b, d in _band_corner_cells():
        got = classify((a, b), d)
        assert got is regions._label(got.regime, got.name, got.index), (a, b, d, str(got))
        key = (got.regime, got.index or 0)
        if key not in candidates:
            regime, index = key
            candidates[key] = [lbl(regime, *fixed) for fixed in regions._TABLES[regime]] + [
                lbl(regime, name, i) for name, first in regions._FAMILIES[regime].items()
                if name != "T" for i in range(max(first, index - 2), index + 3)]
        hits = [label for label in candidates[key] if profile_in_region(label, a, b, d)]
        assert hits == [got], (a, b, d, str(got), [str(label) for label in hits])
        deepest = max(deepest, got.index or 0)
    assert deepest >= 290


_REGIME_D = st.one_of(st.integers(-(10**6), -1), st.just(0), st.integers(1, 10**6))
_BIG = st.integers(-(10**40), 10**40)


@settings(max_examples=500, deadline=None)
@given(d=_REGIME_D, a=_BIG, b=_BIG)
def test_classify_label_holds_on_huge_profiles(d, a, b):
    got = classify((a, b), d)
    assert profile_in_region(got, a, b, d), str(got)


# --- Fibonacci shells decompose exactly into their components -----------------


def _j_shell_member(j, a, b, d):
    """Membership in the j-th bounded shell straight from its three-inequality form."""
    if j == 0:
        return a < d and 0 < b < d
    if j == 1:
        return a > d and b < d and b < a < d + b
    if j == 2:
        return b > d and a < d + b and a < 2 * b < d + a
    if j % 2:  # j = 2n+1, n >= 1
        n = (j - 1) // 2
        return (
            a * fib(2 * n - 2) > d + b * fib(2 * n - 1)
            and b * fib(2 * n) < d + a * fib(2 * n - 1)
            and b * fib(2 * n + 1) < a * fib(2 * n) < d + b * fib(2 * n + 1)
        )
    n = (j - 2) // 2  # j = 2n+2, n >= 1
    return (
        b * fib(2 * n) > d + a * fib(2 * n - 1)
        and a * fib(2 * n) < d + b * fib(2 * n + 1)
        and a * fib(2 * n + 1) < b * fib(2 * n + 2) < d + a * fib(2 * n + 1)
    )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_shell_decomposition(d):
    # Shell 2n+1 splits exactly into B(2n) u B(2n+1); shell 2n+2 into
    # A(2n+1) u A(2n+2); the components are disjoint.
    W = 40
    for j in range(1, 8):
        if j == 1:
            comps = [lbl(L, "B", 1)]
        elif j % 2:
            comps = [lbl(L, "B", j - 1), lbl(L, "B", j)]
        elif j == 2:
            comps = [lbl(L, "A", 1), lbl(L, "A", 2)]
        else:
            comps = [lbl(L, "A", j - 1), lbl(L, "A", j)]
        for a in range(-W, W + 1):
            for b in range(-W, W + 1):
                member = _j_shell_member(j, a, b, d)
                hits = [c for c in comps if profile_in_region(c, a, b, d)]
                assert member == (len(hits) == 1), (j, a, b, d)
                assert len(hits) <= 1


# --- transition table -----------------------------------------------------------


def test_small_transition_entries():
    assert expected_preimage_regions(lbl(S, "A", 1)) == {lbl(S, "A", 2)}
    assert expected_preimage_regions(lbl(S, "A", 4)) == {lbl(S, "A", 2), lbl(S, "A", 5)}
    assert expected_preimage_regions(lbl(S, "B", 2)) == {
        lbl(S, "B", 1), lbl(S, "A", 2), lbl(S, "A", 3), lbl(S, "A", 5)
    }
    assert expected_preimage_regions(lbl(S, "Z")) == {lbl(S, "Z")}
    assert expected_preimage_regions(lbl(S, "A", 5), depth=2) == {lbl(S, "A", 2)}


def test_large_transition_entries():
    assert expected_preimage_regions(lbl(L, "G")) == {lbl(L, "H")}
    assert expected_preimage_regions(lbl(L, "J", 0)) == {lbl(L, "J", 0)}
    assert expected_preimage_regions(lbl(L, "M", 1)) == {lbl(L, "G")}
    # The even first rung reaches H as well as M1 (per the one-step derivation).
    assert expected_preimage_regions(lbl(L, "M", 2)) == {lbl(L, "H"), lbl(L, "M", 1)}
    assert expected_preimage_regions(lbl(L, "M", 4)) == {
        lbl(L, "H"), lbl(L, "M", 1), lbl(L, "M", 3)
    }
    assert expected_preimage_regions(lbl(L, "M", 5)) == {lbl(L, "M", 4)}
    # Shell descent through the B/A decomposition.
    assert expected_preimage_regions(lbl(L, "B", 1)) == {lbl(L, "J", 0)}
    assert expected_preimage_regions(lbl(L, "B", 2)) == {lbl(L, "A", 1), lbl(L, "A", 2)}
    assert expected_preimage_regions(lbl(L, "B", 3)) == {lbl(L, "A", 1), lbl(L, "A", 2)}
    assert expected_preimage_regions(lbl(L, "A", 1)) == {lbl(L, "B", 1)}
    assert expected_preimage_regions(lbl(L, "A", 4)) == {lbl(L, "B", 2), lbl(L, "B", 3)}
    assert expected_preimage_regions(lbl(L, "T", 3)) == {lbl(L, "T", 2)}


def test_unit_transition_entries():
    assert expected_preimage_regions(lbl(U, "M", 1)) == {lbl(U, "H")}
    assert expected_preimage_regions(lbl(U, "M", 2)) == {lbl(U, "M", 1)}
    assert expected_preimage_regions(lbl(U, "M", 6)) == {lbl(U, "M", 5)}
    assert expected_preimage_regions(lbl(U, "F")) == {lbl(U, "G")}


def test_large_even_m_bands_reach_h_and_every_odd_band_below():
    for n in range(6):
        expected = {lbl(L, "H")} | {lbl(L, "M", 2 * k + 1) for k in range(n + 1)}
        assert expected_preimage_regions(lbl(L, "M", 2 * n + 2)) == expected


def test_large_shell_descent():
    # B_i and A_i make up the Fibonacci shells J_1 = B_1, J_{2m+1} = B_{2m} u
    # B_{2m+1} and J_{2m} = A_{2m-1} u A_{2m}; f^-1 maps J_j into J_{j-1}.
    def shell(name, i):
        return i + (i % 2 == 0) if name == "B" else i + (i % 2)

    def parts(j):
        if j == 0:
            return {lbl(L, "J", 0)}
        family = "B" if j % 2 else "A"
        return {lbl(L, family, k) for k in (j - 1, j) if k >= 1}

    for name in ("B", "A"):
        for i in range(1, 9):
            assert lbl(L, name, i) in parts(shell(name, i))
            assert expected_preimage_regions(lbl(L, name, i)) == parts(shell(name, i) - 1)


def test_iter_region_labels_sequence_pinned():
    W = 12
    small = "Z R A1 A2 A3 A4 A5 A6 B1 B2 P1 P2 P3 P4 P5 P6"
    unit = "C0 F G H M1 M2 M3 M4 M5 M6"
    # d = 3: an indexed member i is listed while 3 F(i - 2) <= 12, so up to
    # i = 5; the overlay T_n while 2 F(n + 1) <= 12, so up to n = 3.
    large = ("F G H J0 C0 C1 C2 C3 C4 C5 D2 D3 D4 D5 B1 B2 B3 B4 B5 A1 A2 A3 A4 A5 "
             "M1 M2 M3 M4 M5 T0 T1 T2 T3")
    for d, names, include_t in ((-2, small, False), (0, unit, False), (3, large, True)):
        labels = list(iter_region_labels(d, W, include_t=include_t))
        assert [str(label) for label in labels] == names.split()
        assert all(label.regime is regime_of_d(d) for label in labels)


def test_large_c_family_starts_at_index_1():
    # C0 is the fixed boundary label of the LARGE table; below it the family
    # names no region (C-1 used to give two branches that no profile meets).
    assert len(region_branches(lbl(L, "C", 0))) == 3 and region_branches(lbl(L, "C", 1))
    for i in (-1, -2):
        with pytest.raises(KeyError, match="C family starts at index 1"):
            region_branches(lbl(L, "C", i))


@pytest.mark.parametrize("regime", [U, L])
def test_every_family_starts_at_its_first_index_in_the_table(regime):
    """``region_branches`` checks every family's first index against
    ``_FAMILIES``, with one message; below it only a fixed label (LARGE C0)
    still names a region."""
    for name, first in regions._FAMILIES[regime].items():
        assert region_branches(lbl(regime, name, first))
        below = lbl(regime, name, first - 1)
        if (name, first - 1) in regions._TABLES[regime]:
            assert region_branches(below) is regions._TABLES[regime][(name, first - 1)]
            below = lbl(regime, name, first - 2)
        with pytest.raises(KeyError) as info:
            region_branches(below)
        assert info.value.args == (f"{name} family starts at index {first}",)


@pytest.mark.parametrize("d", [1, 0, -1])
def test_overlay_is_empty_below_d_two(d):
    """The overlay's d >= 2 is a constraint of its own branch, so the table
    and the rows agree with ``t_profile`` that no T_i exists below d = 2."""
    rng = random.Random(19)
    for i in range(9):
        t = lbl(L, "T", i)
        assert not any(profile_in_region(t, a, b, d) for a in range(-10, 11) for b in range(-10, 11))
        # At d <= 0 the regime check of the rows speaks first.
        if d == 1:
            assert region_rows(t, d, 10) == ()
        else:
            with pytest.raises(ValueError, match=f"d={d} is not in regime large"):
                region_rows(t, d, 10)
        with pytest.raises(EmptyRegionError if d == 1 else ValueError):
            sample_in_region(t, d, 3, 10, 4, rng)


def test_no_claim_for_boundary_regions():
    with pytest.raises(KeyError):
        expected_preimage_regions(lbl(S, "R"))
    with pytest.raises(KeyError):
        expected_preimage_regions(lbl(L, "C", 0))
    with pytest.raises(KeyError):
        expected_preimage_regions(lbl(L, "D", 2))
    with pytest.raises(KeyError):
        expected_preimage_regions(lbl(L, "T", 0))
    # Depth 2 exists only for the SMALL band A5.
    with pytest.raises(KeyError):
        expected_preimage_regions(lbl(L, "B", 2), depth=2)
    # Labels that name no region have no claim either.
    for label in (lbl(U, "M", 0), lbl(U, "M", -1), lbl(L, "B", 0), lbl(L, "A", 0),
                  lbl(L, "M", 0), lbl(L, "M"), lbl(L, "C", -1), lbl(L, "C", -2)):
        with pytest.raises(KeyError):
            region_branches(label)
        with pytest.raises(KeyError):
            expected_preimage_regions(label)


# --- samplers --------------------------------------------------------------------


def test_sample_in_region_self_check():
    rng = random.Random(17)
    d = 2
    labels = [l for l in iter_region_labels(d, 10) if region_profiles(l, d, 10)]
    draws = 0
    while draws < 1200:
        for label in labels:
            pt = sample_in_region(label, d, 3, 10, 5, rng)
            assert classify(pt.profile(), d) == label
            draws += 1


def test_sampler_rejects_a_label_from_another_regime():
    """The one regime check is in ``region_rows``; the sampler reaches it
    before any draw."""
    with pytest.raises(ValueError, match="^d=2 is not in regime small$"):
        region_rows(lbl(S, "A", 1), 2, 10)
    rng = random.Random(29)
    state = rng.getstate()
    with pytest.raises(ValueError, match="^d=2 is not in regime small$"):
        sample_in_region(lbl(S, "A", 1), 2, 3, 10, 4, rng)
    assert rng.getstate() == state


def test_sample_every_label_all_regimes():
    rng = random.Random(23)
    for d in (-2, 0, 2):
        for label in iter_region_labels(d, 8):
            try:
                pt = sample_in_region(label, d, 5, 8, 4, rng)
            except EmptyRegionError:
                continue
            assert classify(pt.profile(), d) == label


def test_sample_torus_is_unit_profile():
    rng = random.Random(1)
    pt = sample_in_region(lbl(S, "Z"), -1, 3, 5, 4, rng)
    assert pt.profile() == (0, 0)


def test_sample_inner_box_profiles():
    rng = random.Random(1)
    for _ in range(20):
        pt = sample_in_region(lbl(L, "J", 0), 2, 3, 2, 4, rng)
        a, b = pt.profile()
        assert a < 2 and 0 < b < 2


def test_inner_box_empty_when_d_is_one():
    rng = random.Random(1)
    with pytest.raises(EmptyRegionError):
        sample_in_region(lbl(L, "J", 0), 1, 3, 8, 4, rng)


def test_overlay_profile_values():
    assert t_profile(0, 2) == (1, 1)
    assert t_profile(1, 3) == (4, 2)
    with pytest.raises(EmptyRegionError):
        t_profile(1, 1)


def test_overlay_sampling():
    rng = random.Random(9)
    pt = sample_in_region(lbl(L, "T", 2), 3, 3, 40, 4, rng)
    assert pt.profile() == t_profile(2, 3)


def _take(sampler, n):
    return [next(sampler) for _ in range(n)]


@pytest.mark.parametrize("d", [-3, 0, 2])
def test_region_sampler_equals_successive_samples(d):
    """n points of one sampler are the points of n ``sample_in_region`` calls
    on an rng with the same seed, and leave it in the same state: the
    sampler draws nothing ahead of the point it yields."""
    labels = list(iter_region_labels(d, 8, include_t=True))
    assert any(label.name == "T" for label in labels) == (d == 2)
    sampled = 0
    for k, label in enumerate(labels):
        if not region_profiles(label, d, 8):
            with pytest.raises(EmptyRegionError):
                next(region_sampler(label, d, 5, 8, 4, random.Random(k)))
            continue
        for n in (1, 2, 13):
            one, many = random.Random(k), random.Random(k)
            got = _take(region_sampler(label, d, 5, 8, 4, one), n)
            want = [sample_in_region(label, d, 5, 8, 4, many) for _ in range(n)]
            assert [pt.to_json() for pt in got] == [pt.to_json() for pt in want], str(label)
            assert one.getstate() == many.getstate(), str(label)
        sampled += 1
    assert sampled >= 6


def _randrange_point(rng, cells, p, digit_count):
    """One point as `region_sampler` drew it through randrange, as (x, y) pairs:
    the oracle of the getrandbits draws, which must read the same stream."""

    def unit():
        bound = p**digit_count
        u = rng.randrange(1, bound)
        while u % p == 0:
            u = rng.randrange(1, bound)
        return u

    a, b = cells[rng.randrange(len(cells))]
    x, y = unit(), unit()
    return [(x * p**-a, 1) if a <= 0 else (x, p**a), (y * p**-b, 1) if b <= 0 else (y, p**b)]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("seed", [0, 1, 2, 3101])
def test_region_sampler_reads_the_stream_as_randrange_does(p, seed):
    """The sampler draws from getrandbits the cells and units that randrange
    drew, and leaves the rng in the same state after each point: every point
    and every pinned total of a seeded check is unchanged."""
    label, d = lbl(L, "M", 3), 2
    cells = region_profiles(label, d, 12)
    assert 1 < len(cells) and len(cells).bit_count() > 1  # so some cell draws are rejected
    for digit_count in range(1, 9):
        rng, ref = random.Random(seed), random.Random(seed)
        sampler = region_sampler(label, d, p, 12, digit_count, rng)
        for _ in range(40):
            pt = next(sampler)
            want = _randrange_point(ref, cells, p, digit_count)
            assert [(pt.x.numerator, pt.x.denominator), (pt.y.numerator, pt.y.denominator)] == want
            assert rng.getstate() == ref.getstate()


def test_region_sampler_classifies_each_cell_once(monkeypatch):
    """The first point of each drawn cell is re-classified, and no later one;
    a classifier that mislabels one cell stops the sampler at that cell's
    first point, after other cells were drawn."""
    label, d = lbl(L, "M", 3), 2
    calls, bad = [], None

    def mislabel(profile, d):
        calls.append(profile)
        return lbl(L, "F") if profile == bad else classify(profile, d)

    monkeypatch.setattr(regions, "classify", mislabel)
    seen = [pt.profile() for pt in _take(region_sampler(label, d, 3, 12, 4, random.Random(5)), 60)]
    assert 2 < len(set(seen)) < len(seen) and calls == list(dict.fromkeys(seen))
    # The first draw of a cell that is not the first cell drawn.
    at = next(i for i, cell in enumerate(seen) if cell not in seen[:i] and i > 0)
    bad, calls = seen[at], []
    sampler = region_sampler(label, d, 3, 12, 4, random.Random(5))
    assert [pt.profile() for pt in _take(sampler, at)] == seen[:at]
    assert calls == list(dict.fromkeys(seen[:at]))
    with pytest.raises(AssertionError, match="wanted M3, got F"):
        next(sampler)
    # The same mislabelled cell raises through the one-point form too.
    rng = random.Random(5)
    for _ in range(at):
        sample_in_region(label, d, 3, 12, 4, rng)
    with pytest.raises(AssertionError):
        sample_in_region(label, d, 3, 12, 4, rng)


@settings(max_examples=300, deadline=None)
@given(d=st.integers(-6, 6), a=st.integers(-40, 40), b=st.integers(-40, 40), data=st.data())
def test_branches_hold_equals_any_target(d, a, b, data):
    """One evaluator: the targets' concatenated branches hold exactly where
    some target holds, and where some branch has every constraint hold."""
    labels = list(iter_region_labels(d, 40, include_t=True))
    targets = data.draw(st.lists(st.sampled_from(labels), max_size=4))
    branches = [branch for t in targets for branch in region_branches(t)]
    held = branches_hold(branches, a, b, d)
    assert held == any(profile_in_region(t, a, b, d) for t in targets)
    assert held == any(all(eval_constraint(con, a, b, d) for con in branch) for branch in branches)


# --- row-interval enumeration ------------------------------------------------


@pytest.mark.parametrize("d", [-5, -3, -1, 0, 1, 2, 3, 4, 7])
def test_region_profiles_equal_cell_scan(d):
    """The row-interval enumeration lists exactly the cells where the table's
    own evaluator holds, in scan order (a, then b), with no duplicates."""
    seen = set()
    windows = (0, 1, 2, 12, 37, 60)
    # One scan of the largest window, in scan order; a smaller window's scan
    # is its subsequence of cells with |a|, |b| <= W.
    top = windows[-1]
    scan = [(a, b) for a in range(-top, top + 1) for b in range(-top, top + 1)]
    inside = {}
    for W in windows:
        for label in iter_region_labels(d, W, include_t=True):
            got = region_profiles.__wrapped__(label, d, W)
            assert len(set(got)) == len(got)
            # Rows are sorted, each interval is nonempty, and two intervals
            # of one row have a gap, so neither could be extended.
            rows = region_rows(label, d, W)
            assert list(rows) == sorted(rows) and all(lo <= hi for _, lo, hi in rows)
            assert all(a0 < a1 or lo1 >= hi0 + 2 for (a0, _, hi0), (a1, lo1, _) in zip(rows, rows[1:]))
            assert tuple((a, b) for a, lo, hi in rows for b in range(lo, hi + 1)) == got
            if label.name == "T":
                prof = t_profile(label.index, d)
                expected = (prof,) if max(map(abs, prof)) <= W else ()
            else:
                if label not in inside:
                    inside[label] = [(a, b) for a, b in scan if profile_in_region(label, a, b, d)]
                expected = tuple((a, b) for a, b in inside[label] if abs(a) <= W and abs(b) <= W)
            assert got == expected, (str(label), d, W)
            seen.add(label)
    # Coverage: unit C0's two branches overlap at (0, 0); large C_i and D_i
    # rows are == constraints with |cb| > 1, so many rows have no integer b;
    # B1/B2 and P4/P5 cut rows at the golden line.
    if d == 0:
        assert len(region_branches(lbl(U, "C", 0))) == 2 and lbl(U, "C", 0) in seen
        # Its branches a = 0, b <= 0 and a <= 0, b = 0 merge in row 0.
        assert [r for r in region_rows(lbl(U, "C", 0), 0, 12) if r[0] == 0] == [(0, -12, 0)]
    if d == 7:
        assert {lbl(L, "C", 3), lbl(L, "D", 4), lbl(L, "T", 0)} <= seen
        assert 0 < len(region_profiles(lbl(L, "C", 3), d, 60)) < 121
    if d == -3:
        assert {lbl(S, "B", 1), lbl(S, "B", 2), lbl(S, "P", 4), lbl(S, "P", 5)} <= seen
        # P6 is the column a = d without the cell b = d: two intervals, gap 2.
        assert region_rows(lbl(S, "P", 6), d, 12) == ((d, -12, d - 1), (d, d + 1, -1))
    # Pure-b constraints that admit no integer b empty these before any row
    # is scanned: d < b < 0 at d = -1, and 0 < b < 1 at d = 1.
    if d == -1:
        for label in (lbl(S, "A", 5), lbl(S, "P", 3)):
            assert label in seen and region_rows(label, d, 60) == ()
    if d == 1:
        assert lbl(L, "J", 0) in seen and region_rows(lbl(L, "J", 0), d, 60) == ()


def test_region_profiles_keeps_cold_start_hooks():
    # The benchmark clears this one memo before each pass to model a fresh
    # process, and the tests call the unmemoized function; the rows beneath
    # it must stay unmemoized, or a cleared pass would still start warm.
    assert callable(region_profiles.cache_clear) and callable(region_profiles.__wrapped__)
    assert not hasattr(region_rows, "cache_info")


def test_region_rows_merge_nested_and_touching_branches(monkeypatch):
    # The bundled table has no nested branch intervals, so build one: in row
    # 0 the second branch lies inside the first, and the third touches it.
    monkeypatch.setitem(regions._SMALL_TABLE, ("Z", None), [
        [(1, 0, 0, 0, "=="), (0, 1, 0, 3, "<=")],
        [(1, 0, 0, 0, "=="), (0, 1, 0, -1, ">="), (0, 1, 0, 1, "<=")],
        [(1, 0, 0, 0, "=="), (0, 1, 0, 4, "==")],
        [(1, 0, 0, 2, "=="), (0, 1, 0, 1, ">")],
    ])
    assert region_rows(lbl(S, "Z"), -1, 6) == ((0, -6, 4), (2, 2, 6))


def test_branch_interval_matches_pointwise_constraints():
    """On random affine segments t -> (a0 + a1*t, b0 + b1*t) the cutter gives
    exactly the t where every constraint of the branch holds, by ``eval_constraint``."""
    rng = random.Random(4103)
    cases = []
    for d in range(-4, 6):
        for label in iter_region_labels(d, 40, include_t=True):
            cells = [(a, b) for a, lo, hi in region_rows(label, d, 40) for b in range(lo, hi + 1)]
            cases += [(d, branch, cells) for branch in region_branches(label)]
    golden = [[regions.GOLDEN_BELOW], [regions.GOLDEN_ABOVE], [regions.GOLDEN_ABOVE, regions.GOLDEN_BELOW]]
    cases += [(d, branch, []) for d in (-2, 0, 3) for branch in golden]
    segments, nonempty, empty_inputs, slopes = 0, 0, 0, set()
    while segments < 3000:
        for d, branch, cells in cases:
            a1, b1 = rng.randint(-3, 3), rng.randint(-3, 3)
            lo = rng.randint(-30, 30)
            hi = lo + rng.randint(-3, 40)
            # Half the segments pass through a cell of the region, so that
            # the == branches are met too.
            if cells and hi >= lo and rng.random() < 0.5:
                (a, b), t = rng.choice(cells), rng.randint(lo, hi)
                a0, b0 = a - a1 * t, b - b1 * t
            else:
                a0, b0 = rng.randint(-60, 60), rng.randint(-60, 60)
            held = [t for t in range(lo, hi + 1)
                    if all(eval_constraint(con, a0 + a1 * t, b0 + b1 * t, d) for con in branch)]
            got = branch_interval(branch, d, a0, a1, b0, b1, lo, hi)
            if held:
                assert got == (held[0], held[-1]), (branch, d, a0, a1, b0, b1, lo, hi)
                assert len(held) == held[-1] - held[0] + 1
                nonempty += 1
            else:
                assert got[0] > got[1], (branch, d, a0, a1, b0, b1, lo, hi, got)
            segments += 1
            empty_inputs += lo > hi
            slopes.add(((a1 > 0) - (a1 < 0), (b1 > 0) - (b1 < 0)))
    assert nonempty > segments // 4 and empty_inputs and len(slopes) == 9
    # An interval emptied by the linear constraints stays empty however the
    # golden test reads at its ends: here b > 0 empties -5..-1 on row a = 100.
    lo, hi = branch_interval([(0, 1, 0, 0, ">"), regions.GOLDEN_BELOW], 0, 100, 0, 0, 1, -5, -1)
    assert lo > hi


def _holds(branch, d, a0, a1, b0, b1, t):
    return all(eval_constraint(con, a0 + a1 * t, b0 + b1 * t, d) for con in branch)


def _check_single(con, d, a0, a1, b0, b1, lo, hi):
    """branch_interval of the one constraint `con`, checked pointwise: a
    constraint holds on an interval of t, so an interval result is exact when
    it holds at both ends and fails just outside them, and an empty result is
    exact when it fails at lo, at hi and (for ==) at its one crossing."""
    l, h = branch_interval([con], d, a0, a1, b0, b1, lo, hi)
    if l <= h:
        assert lo <= l and h <= hi
        assert _holds([con], d, a0, a1, b0, b1, l) and _holds([con], d, a0, a1, b0, b1, h)
        assert l == lo or not _holds([con], d, a0, a1, b0, b1, l - 1)
        assert h == hi or not _holds([con], d, a0, a1, b0, b1, h + 1)
        return l, h
    assert not _holds([con], d, a0, a1, b0, b1, lo) and not _holds([con], d, a0, a1, b0, b1, hi)
    if con[0] != "golden" and con[4] == "==":
        ca, cb, cd, c1, _ = con
        coef = ca * a1 + cb * b1
        if coef:
            t = (cd * d + c1 - ca * a0 - cb * b0) // coef
            assert not (lo <= t <= hi and _holds([con], d, a0, a1, b0, b1, t))
    return None


def test_branch_interval_on_long_segments():
    """Segments up to 10^5 long, slopes up to 50, coefficients up to F(25),
    every op and both golden signs: each constraint's interval is exact at its
    ends, and a branch's interval is the intersection of its constraints'."""
    rng = random.Random(1515)
    ops = ("<", "<=", "==", ">=", ">")
    big = [0, 1, 2, 3] + [fib(k) for k in range(4, 26)]
    table = [branch for d in (-3, 5) for label in iter_region_labels(d, 10**6)
             if label.name != "T" for branch in region_branches(label)]
    seen, nonempty = set(), 0
    for _ in range(4000):
        d = rng.randint(-5, 5)
        a1, b1 = rng.randint(-50, 50), rng.randint(-50, 50)
        lo = rng.randint(-10**5, 10**5)
        hi = lo + rng.choice([0, 1, rng.randint(0, 10**5), 10**5])
        # The segment passes near the golden line at t0, so golden cuts fall inside.
        t0, k = rng.randint(lo, hi), rng.randint(2, 24)
        b_at = rng.randint(-10**6, 10**6)
        a_at = b_at * fib(k + 1) // fib(k) + rng.randint(-2, 2)
        a0, b0 = a_at - a1 * t0, b_at - b1 * t0
        if rng.random() < 0.3:
            branch = list(rng.choice(table))
        else:
            branch = []
            for _ in range(rng.randint(1, 3)):
                ca, cb = rng.choice(big) * rng.choice((-1, 1)), rng.choice(big) * rng.choice((-1, 1))
                cd = rng.choice(big[:8]) * rng.choice((-1, 1))
                # c1 puts the boundary through (or next to) the cell at t0.
                c1 = ca * a_at + cb * b_at - cd * d + rng.choice([0, 0, -1, 1, rng.randint(-10**6, 10**6)])
                branch.append((ca, cb, cd, c1, rng.choice(ops)))
            if rng.random() < 0.5:
                branch.insert(rng.randint(0, len(branch)), rng.choice([regions.GOLDEN_BELOW, regions.GOLDEN_ABOVE]))
        singles = [_check_single(con, d, a0, a1, b0, b1, lo, hi) for con in branch]
        got = branch_interval(branch, d, a0, a1, b0, b1, lo, hi)
        if None in singles or max(l for l, _ in singles) > min(h for _, h in singles):
            assert got[0] > got[1], (branch, d, a0, a1, b0, b1, lo, hi, got)
        else:
            assert got == (max(l for l, _ in singles), min(h for _, h in singles))
            nonempty += 1
        seen.update(con[1] if con[0] == "golden" else con[4] for con in branch)
    assert seen == {*ops, -1, 1} and 1000 < nonempty < 3000


# --- golden bounds in closed form ---------------------------------------------


@settings(max_examples=500, deadline=None)
@given(a=_BIG)
@example(a=0)
@example(a=1)
@example(a=-1)
def test_golden_row_bound_is_the_last_b_below_the_line(a):
    b = regions._golden_row(a)
    assert golden_below(a, b) and not golden_below(a, b + 1)
    # The estimate is already exact off the line's one integer point (0, 0).
    assert regions._golden_crossing(a, 0, 0, 1) == (b if a else 0)


def _golden_scan(sign, a0, a1, b0, b1, lo, hi):
    sa, sb = (a0, b0) if sign < 0 else (-a0, -b0)
    da, db = (a1, b1) if sign < 0 else (-a1, -b1)
    held = [t for t in range(lo, hi + 1) if golden_below(sa + da * t, sb + db * t)]
    assert not held or len(held) == held[-1] - held[0] + 1
    return held


def _fibonacci_segments(rng):
    """Segments with slope +-(F(k+1), F(k)), k <= 200, that pass at t0 within a
    few cells of a multiple of (F(j+1), F(j)), j near k, so the golden line is
    crossed inside lo..hi or just outside; some pass through (0, 0) at an
    integer t, where the estimated crossing is one past the cut."""
    for _ in range(1500):
        k = rng.randint(0, 200)
        j = max(0, k + rng.randint(-4, 4))
        s1, s2, m = rng.choice((-1, 1)), rng.choice((-1, 1)), rng.randint(1, 3)
        a1, b1 = s1 * fib(k + 1), s1 * fib(k)
        t0 = rng.randint(-10**6, 10**6)
        a_at = s2 * m * fib(j + 1) + rng.choice((0, 0, rng.randint(-2, 2)))
        b_at = s2 * m * fib(j) + rng.choice((0, 0, rng.randint(-2, 2)))
        lo = t0 - rng.randint(0, 40)
        yield a_at - a1 * t0, a1, b_at - b1 * t0, b1, lo, lo + rng.randint(0, 80)


def test_golden_cut_on_fibonacci_slopes_matches_a_scan():
    rng = random.Random(1717)
    inner = origin = 0
    for a0, a1, b0, b1, lo, hi in _fibonacci_segments(rng):
        for sign in (-1, 1):
            held = _golden_scan(sign, a0, a1, b0, b1, lo, hi)
            got = regions._golden_cut(sign, a0, a1, b0, b1, lo, hi)
            assert (got == (held[0], held[-1])) if held else got[0] > got[1], (sign, a0, a1, b0, b1, lo, hi)
            inner += 0 < len(held) < hi - lo + 1
        # The estimate is the floor of the crossing: a0 + a1*t - beta*(b0 + b1*t)
        # is zero at t, or changes sign from t to t + 1 (by ``golden_cmp``).
        t = regions._golden_crossing(a0, a1, b0, b1)
        at_t, past_t = (golden_cmp(b0 + b1 * u, a0 + a1 * u) for u in (t, t + 1))
        assert past_t and at_t != past_t
        # Through (0, 0) at an integer z of lo..hi, the test fails at the
        # estimate z itself and the cut ends at z - 1.
        z = -a0 // a1 if a1 else lo
        origin += lo <= z <= hi and a0 + a1 * z == 0 and b0 + b1 * z == 0
    assert inner > 500 and origin > 20


@pytest.mark.parametrize("d", [-3, -1, 0, 1, 2, 3])
def test_region_rows_are_maximal_at_window_1000(d):
    """Every row interval holds at both ends and stops where the region or
    the window stops; O(rows) evaluations per label."""
    W = 1000
    rows_seen = 0
    for label in iter_region_labels(d, W, include_t=True):
        for a, lo, hi in region_rows(label, d, W):
            assert -W <= lo <= hi <= W and abs(a) <= W
            assert profile_in_region(label, a, lo, d) and profile_in_region(label, a, hi, d), (str(label), a)
            assert lo == -W or not profile_in_region(label, a, lo - 1, d), (str(label), a, lo)
            assert hi == W or not profile_in_region(label, a, hi + 1, d), (str(label), a, hi)
            rows_seen += 1
    assert rows_seen > 2000
