"""Acceptance suite: one test (or parametrized family) per acceptance criterion,
each at its stated tolerance.  Run with `pytest tests/test_acceptance.py -v`
for one pass/fail line per criterion.

Three criteria, as stated, are false at the parameters they name.  Their
tests pin the true behaviour exactly, with expected values derived by hand
inside the test, and pass; a red test here is a regression:

* criterion 2 (second half): at p = 3 the backward orbit of (1, 1) under
  c = 1/3 leaves the domain at step 6 (x_{-4} = (p-2)/p equals c exactly
  iff p = 3, so y_{-5} = 0), so no 50-step bound exists.  The bound holds at
  p = 5.
* criterion 7, two-step flat-band collapse at d = -3: one loop through the
  adjacent band lands back in the flat band when 2b - a > d, which has the
  single solution (0, -1) -> (1, -2) in the window.
* criterion 7, overlay descent at d = 2: the first overlay sphere sits on
  |x| = |c|, so the difference x - c may cancel, and every cancellation
  exponent e < d leaves T_0.
"""

import random
import time
from fractions import Fraction

import pytest

from padic_henon.dynamics import (
    PrecisionExhaustedError,
    backward_orbit,
    backward_profile_orbit,
    exact_fixed_points,
    fixed_points,
    forward,
)
from padic_henon.fib import cassini, cassini2, fib
from padic_henon.gridcheck import (
    check_partition,
    check_transition_profiles,
    classifier_agreement,
    transition_sources,
)
from padic_henon.measure import tn_ball_product, tn_measure, tn_rows
from padic_henon.padics import PadicRational, Point, _residue, digit_view, sqrt
from padic_henon.regions import Regime, RegionLabel, classify, regime_of_d
from padic_henon.verifier import LemmaSpec, run_spec

REGIME_DS = (-3, -1, 0, 1, 2, 3)
# Further d at which the LARGE shells have cells in the window, each with the
# depth-1 sources (all LARGE) that still have none there.
SHELL_DS = {
    4: ["B12", "B13", "B14", "A13", "A14", "M14"],
    6: ["B12", "B13", "A11", "A12", "A13", "M13"],
    14: ["B10", "B11", "A10", "A11", "M11"],
    24: ["B9", "B10", "A9", "A10", "M10"],
}
WINDOW = 1000


def pr(num, den, p):
    return PadicRational(num, den, p)


def lbl(regime, name, index=None):
    return RegionLabel(regime, name, index)


# --- criterion 1: worked-orbit reproduction, |c| < 1 --------------------------


def test_criterion_01_small_regime_worked_orbit():
    p = 5
    params = pr(p, 1, p)
    start = Point(pr(p + 2 * p**3, 1, p), pr(2 * p, 1, p))
    t0 = time.perf_counter()
    rec = backward_orbit(start, params, 22, escape_exponent=None)
    elapsed = time.perf_counter() - t0
    expected = [(-1, -2), (-2, 1)]
    for n in range(1, 11):
        expected.append((2**n - 1, -(2**n)))
        expected.append((-(2**n), 2 ** (n + 1) - 1))
    got = rec.profiles[1:23]
    assert got == expected[:22], f"first mismatch at {next(i for i,(g,e) in enumerate(zip(got, expected)) if g != e)}"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"criterion 1 PASS: 22 exact steps, pattern n<=10, {elapsed * 1000:.0f} ms")


# --- criterion 2: worked-orbit reproduction, |c| > 1 ---------------------------


def test_criterion_02_boundary_orbit_profiles():
    p = 3
    params = pr(1, p, p)
    start = Point(pr(1 + p**3, p, p), pr(1, 1, p))  # x = 1/3 + 9
    rec = backward_orbit(start, params, 12, escape_exponent=None)
    frozen = [(0, -2), (-2, 3), (3, -2), (-2, 5), (5, -4), (-4, 9), (9, -8), (-8, 17)]
    got = rec.profiles[1:]
    assert got[:8] == frozen
    # Independent oracle: the profile recurrence (a, b) -> (b, max(a, d) - b)
    # is exact from step 1 on, since the x-exponent never equals d again.
    a, b = 0, -2
    for step, profile in enumerate(got[1:], start=2):
        a, b = b, max(a, 1) - b
        assert profile == (a, b), f"recurrence mismatch at step {step}"
    print("criterion 2 PASS (escape half): 12 steps match the frozen pattern")


def _norm_exponent(q: Fraction, p: int):
    """log_p |q|_p of a rational, None for q = 0."""
    if q == 0:
        return None
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return -v


def test_criterion_02_bounded_orbit_50_steps():
    # As stated: p = 3, c = 1/3, start (1, 1), max norm exponent <= 1 for 50
    # steps.  No such orbit exists at p = 3: f^-1(x, y) = (y, (x - c)/y) gives
    # (1,1) -> (1,2/3) -> (2/3,1) -> (1,1/3) -> (1/3,2) -> (2,0), because
    # x_{-4} = (p-2)/p equals c = 1/p exactly iff p = 3.  So y_{-5} = 0 and the
    # inverse is undefined at step 6.  The stated bound holds at p = 5.
    p = 3
    c = Fraction(1, p)
    params = pr(1, p, p)
    start = Point(pr(1, 1, p), pr(1, 1, p))

    hand = [(Fraction(1), Fraction(1))]
    while hand[-1][1] != 0 and len(hand) <= 50:
        x, y = hand[-1]
        hand.append((y, (x - c) / y))
    assert len(hand) == 6 and hand[4][0] == c and hand[5][1] == 0
    hand_profiles = [(_norm_exponent(x, p), _norm_exponent(y, p)) for x, y in hand]
    assert max(v for prof in hand_profiles for v in prof if v is not None) <= 1

    exact = backward_orbit(start, params, 50, escape_exponent=None)
    assert (exact.verdict.kind, exact.verdict.step) == ("undefined_inverse", len(hand)), (
        f"criterion 2 (bounded half): at p=3 the orbit of (1,1) must exit the domain "
        f"at step {len(hand)} (x_{{-4}} = c, y_{{-5}} = 0), got {exact.verdict}"
    )
    assert [(pt.x.as_fraction(), pt.y.as_fraction()) for pt in exact.steps] == hand
    assert exact.profiles == hand_profiles
    # The certified engine refuses to certify the total cancellation x_{-4} - c = 0.
    with pytest.raises(PrecisionExhaustedError):
        backward_profile_orbit(start, params, 50, precision=400, escape_exponent=None)

    # The stated 50-step bound, at p = 5.
    p = 5
    rec = backward_profile_orbit(
        Point(pr(1, 1, p), pr(1, 1, p)), pr(1, p, p), 50, precision=400,
        escape_exponent=None,
    )
    assert (rec.verdict.kind, rec.verdict.step) == ("completed", 50)
    assert rec.verdict.norm_exponent <= 1
    print(
        "criterion 2 PASS (bounded half): p=3 exits the domain at step 6; "
        "p=5 stays at norm exponent <= 1 for 50 steps"
    )


def test_supplementary_bounded_orbit_at_p5():
    # The generic form of the bounded worked orbit, certified for 50 steps.
    p = 5
    params = pr(1, p, p)
    start = Point(pr(1, 1, p), pr(1, 1, p))
    rec = backward_profile_orbit(start, params, 50, precision=400, escape_exponent=None)
    assert rec.verdict.kind == "completed"
    assert rec.verdict.norm_exponent <= 1


def test_supplementary_bounded_orbit_exits_domain_at_p3():
    # Exact arithmetic pins the degeneration: x_{-4} = c, hence y_{-5} = 0.
    p = 3
    params = pr(1, p, p)
    rec = backward_orbit(
        Point(pr(1, 1, p), pr(1, 1, p)), params, 50, escape_exponent=None
    )
    assert rec.verdict.kind == "undefined_inverse"
    assert rec.verdict.step == 6
    assert rec.steps[4].x == pr(1, 3, p)  # equals c
    assert rec.steps[5].y == pr(0, 1, p)


def test_supplementary_bounded_orbit_escapes_at_p7():
    # In the domain, norm-bounded for 20 steps, then a deep cancellation drops
    # the orbit into the escaping corner region: boundedness is prime-specific.
    p = 7
    params = pr(1, p, p)
    rec = backward_profile_orbit(
        Point(pr(1, 1, p), pr(1, 1, p)), params, 60, precision=400, escape_exponent=100
    )
    assert rec.verdict.kind == "escaped"
    assert all(max(x for x in prof) <= 1 for prof in rec.profiles[:21])
    exact = backward_orbit(
        Point(pr(1, 1, p), pr(1, 1, p)), params, 25, escape_exponent=None,
        bit_budget=10**7,
    )
    assert exact.profiles[:22] == rec.profiles[:22]


# --- criterion 3: worked-orbit reproduction, |c| = 1 ----------------------------


def test_criterion_03_unit_regime_worked_orbit():
    p = 3
    params = pr(1, 1, p)
    start = Point(pr(-1, 1, p), pr(-p, 1, p))
    rec = backward_orbit(start, params, 8, escape_exponent=None)
    expected = [(-1, 1)]
    for n in range(1, 5):
        expected.append((2 ** (n - 1), -(2 ** (n - 1))))
        expected.append((-(2 ** (n - 1)), 2**n))
    assert rec.profiles[1:9] == expected[:8]
    print("criterion 3 PASS (escape half): 8 steps match the doubling pattern")


def test_criterion_03_exact_period_three():
    p = 3
    params = pr(1, 1, p)
    rho = Point(pr(-1, 1, p), pr(-1, 1, p))
    rec = backward_orbit(rho, params, 300, escape_exponent=None)
    assert rec.verdict.kind == "completed"
    assert all(rec.steps[i] == rho for i in range(0, 301, 3))
    assert rec.steps[1] == Point(pr(-1, 1, p), pr(2, 1, p))
    print("criterion 3 PASS (cycle half): exact period 3 over 300 steps")


# --- criterion 4: fixed points ---------------------------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_criterion_04_fixed_points(p):
    params = pr(p - p * p, 1, p)
    exact = exact_fixed_points(params)
    assert {pt.x.as_fraction() for pt in exact} == {Fraction(p), Fraction(1 - p)}
    for pt in exact:
        assert forward(pt, params) == pt
    # Hensel square root agrees digitwise with the exact rational root.
    disc = 1 - 4 * params
    vq, r, _, k = sqrt(disc, 20)
    _, root, _, _ = _residue(pr(1 - 2 * p, 1, p), k)  # an integer: its denominator is 1
    assert (vq, k) == (0, 20) and root in (r, -r % p**k)
    roots = fixed_points(params, 20)
    wanted = (pr(p, 1, p), pr(1 - p, 1, p))
    assert len(roots) == 2
    for alpha, beta in roots:
        assert alpha == beta
        # The printed digits equal the exact root's, to the root's own digit count.
        view = digit_view(alpha, p)
        assert sum(view == digit_view(_residue(w, alpha[3]), p) for w in wanted) == 1
        assert alpha[3] >= 19

    quarter = pr(1, 4, p)
    single = exact_fixed_points(quarter)
    assert len(single) == 1 and single[0].x.as_fraction() == Fraction(1, 2)

    # 1 - 4c a unit non-residue: no fixed points at all.
    nonresidue = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    none_params = pr(1 - nonresidue, 4, p)
    assert exact_fixed_points(none_params) == []
    assert fixed_points(none_params, 20) == []
    print(f"criterion 4 PASS at p={p}: pair, single and empty cases, 20 digits")


# --- criterion 5: Fibonacci identities -------------------------------------------


def test_criterion_05_cassini_identities():
    for n in range(1, 201):
        assert cassini(n) == (-1) ** n
        assert cassini2(n) == (-1) ** n
    print("criterion 5 PASS: both identities exact for 1 <= n <= 200")


# --- criterion 6: partition totality ----------------------------------------------


def test_criterion_06_partition_totality():
    t0 = time.perf_counter()
    rng = random.Random(20240811)
    for d in REGIME_DS + tuple(SHELL_DS):
        report = check_partition(d, WINDOW)
        assert report.exact, (
            f"d={d}: uncovered={report.uncovered[:3]} overlaps={report.overlaps[:3]}"
        )
        # Independent scalar re-check: exhaustive on a core window plus random
        # cells of the full window, each label re-validated against its own
        # defining inequalities.
        classifier_agreement(d, 150, sample=500, rng=rng)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(
        f"criterion 6 PASS: {len(REGIME_DS) + len(SHELL_DS)} values of d x "
        f"{(2 * WINDOW + 1) ** 2} profiles, "
        f"exactly one region each, {elapsed:.1f}s"
    )


# --- criterion 7: exhaustive transition lemmas -------------------------------------


@pytest.mark.parametrize("d", REGIME_DS + tuple(SHELL_DS))
def test_criterion_07_window_transitions(d):
    regime = regime_of_d(d)
    bad, empty = [], []
    count = 0
    for source in transition_sources(regime, d, WINDOW, include_t=False):
        check = check_transition_profiles(source, d, WINDOW, depth=1, cancel_depth=WINDOW)
        count += 1
        if not check.ok:
            bad.append((str(source), check.counterexamples[:2]))
        if not check.profiles_checked:
            empty.append(str(source))
    assert not bad, f"d={d}: counterexamples in {bad}"
    if d in SHELL_DS:
        assert empty == SHELL_DS[d], f"d={d}: sources with no cell {empty}"
    print(f"criterion 7 PASS at d={d}: {count} one-step claims exhaustive on the window")


@pytest.mark.parametrize("d", [-3, -1])
def test_criterion_07_two_step_band_collapse(d):
    # Claim as stated: f^-2(A5) in A2, two backward steps take the flat band
    # {a >= 0, d < b < 0} into the deep band {a >= 0, b <= d}.  Neither step
    # cancels (a >= 0 > d, then d < b < 0), so (a, b) -> (b, a - b) ->
    # (a - b, 2b - a), which is back in the flat band exactly when 2b - a > d.
    # At d = -3 that is the single profile (0, -1) -> (1, -2); at d = -1 the
    # flat band holds no integer profile.
    a5 = lbl(Regime.SMALL, "A", 5)
    a2 = lbl(Regime.SMALL, "A", 2)
    band = [(a, b) for a in range(0, WINDOW + 1) for b in range(d + 1, 0)]
    hand = {((a, b), (a - b, 2 * b - a)) for a, b in band if 2 * b - a > d}
    assert len(hand) < 25  # below the per-group cap: the report lists every failure

    check = check_transition_profiles(a5, d, WINDOW, depth=2, cancel_depth=WINDOW)
    assert check.profiles_checked == check.outcomes_checked == len(band)
    got = [(ce.source_profile, ce.outcome_profile) for ce in check.counterexamples]
    assert len(got) == len(set(got)) and set(got) == hand, (
        f"criterion 7 FAIL at d={d}: two-step flat-band counterexamples {got[:5]}, "
        f"expected exactly the profiles with 2b - a > d: {sorted(hand)} (the band is "
        "empty at d=-1 and the collapse holds at d=-2; see "
        "test_gridcheck.py::test_two_step_band_collapse_boundary)"
    )
    assert all(ce.cancellation_exponent is None for ce in check.counterexamples)
    assert all(
        ce.outcome_profile[1] < ce.source_profile[1] for ce in check.counterexamples
    )
    # Repaired claim: the image stays in the union of the two bands.
    repaired = check_transition_profiles(
        a5, d, WINDOW, depth=2, cancel_depth=WINDOW, targets={a2, a5}
    )
    assert repaired.ok and repaired.profiles_checked == len(band)
    print(
        f"criterion 7 PASS at d={d}: {len(band)} flat-band profiles, "
        f"{len(hand)} land back in the band, all in A2 u A5"
    )


@pytest.mark.parametrize("d", [2, 3])
def test_criterion_07_overlay_descent(d):
    # Claim: f^-1(T_n) in T_{n-1}, where T_n is the single profile
    # ((d-1)F(n+1), (d-1)F(n)) with F(0) = F(1) = 1.  Off the column a = d
    # the step (a, b) -> (b, a - b) gives T_{n-1} by the Fibonacci recurrence.
    # On it, |x - c| = p^e for any e <= d and the image (b, e - b) is T_{n-1}
    # only for e = (d-1)F(n+1) = d.  (d-1)F(n+1) = d needs d - 1 | d, so this
    # sphere exists only for d = 2 (n = 1, T_1 = (2, 1)).
    F = [1, 1]
    while (d - 1) * F[-1] <= WINDOW:
        F.append(F[-1] + F[-2])
    cancelling = 0
    n = 1
    while (d - 1) * F[n + 1] <= WINDOW:
        src = ((d - 1) * F[n + 1], (d - 1) * F[n])
        prev = ((d - 1) * F[n], (d - 1) * F[n - 1])
        check = check_transition_profiles(
            lbl(Regime.LARGE, "T", n), d, WINDOW, depth=1, cancel_depth=WINDOW
        )
        got = [
            (ce.source_profile, ce.outcome_profile, ce.cancellation_exponent)
            for ce in check.counterexamples
        ]
        if src[0] == d:
            cancelling += 1
            b = src[1]
            assert (b, d - b) == prev
            hand = {(src, (b, e - b), e) for e in range(d - WINDOW, d)}
            outcomes = WINDOW + 1
        else:
            hand = set()
            outcomes = 1
        assert (check.profiles_checked, check.outcomes_checked) == (1, outcomes)
        assert len(got) == len(set(got)) and set(got) == hand, (
            f"criterion 7 FAIL at d={d}: overlay sphere T_{n} = {src}: expected "
            f"{len(hand)} counterexamples (the cancellations e < d on a = d), "
            f"got {len(got)}, e.g. {got[:2]}"
        )
        n += 1
    assert cancelling == (1 if d == 2 else 0)
    print(
        f"criterion 7 PASS at d={d}: overlay descent for {n - 1} spheres, "
        f"{cancelling * WINDOW} cancellation outcomes leave T_0"
    )


# --- criterion 8: sampled transition lemmas -----------------------------------------


def _sampled_specs():
    specs = []
    small = (
        [("Z", None)] + [("A", i) for i in range(1, 7)] + [("B", 1), ("B", 2)]
        + [("P", i) for i in (1, 2, 3, 4, 6)]
    )
    for name, idx in small:
        specs.append(("small", "9/1", name, idx, 1))
    specs.append(("small", "27/1", "P", 5, 1))
    specs.append(("small", "9/1", "A", 5, 2))  # depth-2 claim where it holds
    for name, idx in [("F", None), ("G", None), ("H", None)] + [("M", i) for i in range(1, 7)]:
        specs.append(("unit", "2/1", name, idx, 1))
    large = (
        [("F", None), ("G", None), ("H", None), ("J", 0)]
        + [("M", i) for i in range(1, 7)]
        + [("B", i) for i in range(1, 6)]
        + [("A", i) for i in range(1, 6)]
    )
    for name, idx in large:
        specs.append(("large", "1/9", name, idx, 1))
    for n in range(1, 5):
        specs.append(("large", "1/27", "T", n, 1))
    return specs


def test_criterion_08_sampled_transitions():
    total = 0
    for regime_name, c, name, idx, depth in _sampled_specs():
        regime = Regime(regime_name)
        spec = LemmaSpec(
            identifier=f"sampled-{regime_name}-{name}{idx if idx is not None else ''}",
            kind="transition",
            p=3,
            c=c,
            source=lbl(regime, name, idx),
            depth=depth,
            samples=1000,
            window=30 if name == "T" else 12,
            seed=20240811,
        )
        report = run_spec(spec)
        assert report.ok, (spec.identifier, report.failures[:2])
        assert report.passes + report.skipped == 1000
        total += report.passes
    # Negative control: a deliberately falsified target set must fail loudly.
    control = LemmaSpec(
        identifier="control", kind="transition", p=3, c="1/9",
        source=lbl(Regime.LARGE, "J", 0), samples=200, window=10, seed=1,
        expected=frozenset({lbl(Regime.LARGE, "F", None)}),
    )
    control_report = run_spec(control)
    assert len(control_report.failures) >= 1
    print(f"criterion 8 PASS: {total} exact-point transitions, negative control detects")


# --- criterion 9: escape certification ------------------------------------------------


def _escape_campaigns():
    f12 = fib(12)
    campaigns = []
    for d, c in ((1, "1/3"), (2, "1/9")):
        for name, idx in [("F", None), ("G", None), ("H", None)] + [
            ("M", i) for i in range(1, 5)
        ]:
            campaigns.append((c, lbl(Regime.LARGE, name, idx), 8 * max(1, d) * f12))
    for name, idx in [("M", i) for i in range(1, 5)]:
        campaigns.append(("2/1", lbl(Regime.UNIT, name, idx), 8 * f12))
    for name, idx in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 6),
                      ("B", 1), ("B", 2), ("P", 1), ("P", 6)]:
        campaigns.append(("3/1", lbl(Regime.SMALL, name, idx), 8 * f12))
    return campaigns


def test_criterion_09_escape_certification():
    t0 = time.perf_counter()
    total = laws = 0
    for c, source, threshold in _escape_campaigns():
        spec = LemmaSpec(
            identifier=f"escape-{source}", kind="escape", p=3, c=c, source=source,
            samples=500, window=8, seed=20240811, steps=60, escape_exponent=threshold,
        )
        report = run_spec(spec)
        assert report.ok, (spec.identifier, report.failures[:1])
        assert report.passes + report.skipped == 500
        total += report.passes
        laws += any("growth law" in note for note in report.notes)
    # G at both values of c doubles, and A1 follows the two-band schedule.
    assert laws == 3
    print(
        f"criterion 9 PASS: {total} orbits crossed 8*max(1,d)*F12 within 60 steps "
        f"({time.perf_counter() - t0:.1f}s)"
    )


# --- criterion 10: overlay measures -----------------------------------------------------


def test_criterion_10_overlay_measures():
    k, p = 2, 3
    rows = tn_rows(8, k, p)
    ratio = (1 - Fraction(1, p)) ** 2
    for n, row in enumerate(rows):
        assert row["exact"] == Fraction(3) ** fib(n + 2) * Fraction(4, 9)
        assert row["exact"] == tn_measure(n, k, p)
        assert row["ball_product"] == tn_ball_product(n, k, p) == Fraction(3) ** fib(n + 2)
        assert row["sphere_to_ball_ratio"] == ratio == Fraction(4, 9)
    sums = [r["partial_sum"] for r in rows]
    assert all(b > a for a, b in zip(sums, sums[1:]))
    assert sums[8] > 10**6
    print("criterion 10 PASS: exact sphere measures, ball products and divergent sums")


# --- criterion 11: grid outputs -----------------------------------------------------------


def test_criterion_11_grid_outputs():
    W = 40
    # |c| = p: no inner-box cells at all.
    for a in range(-W, W + 1):
        for b in range(-W, W + 1):
            assert classify((a, b), 1).name != "J"
    # |c| = 1: the band max(a, b) = 0 is exactly the boundary region.
    for a in range(-W, W + 1):
        for b in range(-W, W + 1):
            is_c0 = classify((a, b), 0) == lbl(Regime.UNIT, "C", 0)
            assert is_c0 == (max(a, b) == 0)
    # |c| = 1/p: the two sandwich cells.
    assert classify((0, 0), -1) == lbl(Regime.SMALL, "Z", None)
    assert classify((-1, -1), -1) == lbl(Regime.SMALL, "R", None)
    print("criterion 11 PASS: grid pins for d = 1, 0, -1")
