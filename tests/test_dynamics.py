import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padic_henon import dynamics, padics
from padic_henon.dynamics import (
    BitBudgetError,
    PrecisionExhaustedError,
    UndefinedInverseError,
    Verdict,
    backward_orbit,
    backward_profile_orbit,
    default_escape_exponent,
    exact_fixed_points,
    fixed_points,
    forward,
    forward_orbit,
    inverse,
    three_cycle,
)
from padic_henon.gridcheck import _column_groups, _step_pieces
from padic_henon.padics import PadicRational, Point, _residue, digit_view, padic_valuation
from padic_henon.regions import Regime, RegionLabel, regime_of_d, sample_in_region
from padic_henon.verifier import builtin_campaign, campaign_summary, run_campaign


def pr(num, den=1, p=5):
    return PadicRational(num, den, p)


# --- the map parameter c -----------------------------------------------------------


def test_regime_from_c():
    assert regime_of_d(pr(5).norm_exponent) is Regime.SMALL
    assert regime_of_d(pr(2).norm_exponent) is Regime.UNIT
    assert regime_of_d(pr(1, 5).norm_exponent) is Regime.LARGE


def test_degenerate_c_zero():
    prm = pr(0)
    assert prm.is_zero
    assert prm.norm_exponent is None


# --- forward / inverse ----------------------------------------------------------


def test_forward_of_cycle_point():
    prm = pr(7)
    img = forward(Point(pr(-1), pr(-1)), prm)
    assert img == Point(pr(8), pr(-1))  # (1 + c, -1)


def test_forward_fixed_point():
    p = 5
    prm = pr(p - p * p)
    pt = Point(pr(p), pr(p))
    assert forward(pt, prm) == pt


def test_forward_of_origin():
    prm = pr(3)
    assert forward(Point(pr(0), pr(0)), prm) == Point(pr(3), pr(0))


def test_inverse_worked_steps():
    p = 5
    prm = pr(p)
    step1 = inverse(Point(pr(p + 2 * p**3), pr(2 * p)), prm)
    assert step1 == Point(pr(2 * p), pr(p * p))
    step2 = inverse(step1, prm)
    assert step2 == Point(pr(p * p), pr(1, p))


def test_inverse_unit_regime_example():
    p = 5
    prm = pr(1, 1, p)
    img = inverse(Point(pr(-1), pr(-p)), prm)
    assert img == Point(pr(-p), pr(2, p))


def test_inverse_requires_nonzero_y():
    with pytest.raises(UndefinedInverseError):
        inverse(Point(pr(1), pr(0)), pr(1))


def test_roundtrips():
    rng = random.Random(4)
    prm = pr(9, 2, 3)
    for _ in range(100):
        x = PadicRational(Fraction(rng.randrange(-50, 51), rng.randrange(1, 30)), 1, 3)
        y = PadicRational(Fraction(rng.randrange(-50, 51), rng.randrange(1, 30)), 1, 3)
        pt = Point(x, y)
        if not y.is_zero:
            assert forward(inverse(pt, prm), prm) == pt
        if not x.is_zero:
            assert inverse(forward(pt, prm), prm) == pt


def test_bit_budget_guard():
    prm = pr(1, 3, 3)
    big = PadicRational(2**2000 + 1, 1, 3)
    with pytest.raises(BitBudgetError):
        forward(Point(big, big), prm, bit_budget=1000)


# --- orbits ----------------------------------------------------------------------


def test_backward_orbit_links_coordinates():
    prm = pr(5)
    rec = backward_orbit(Point(pr(255), pr(10)), prm, 8, escape_exponent=None)
    for prev, curr in zip(rec.steps, rec.steps[1:]):
        assert curr.x == prev.y


def test_norm_recurrence_matches_abstract_inverse():
    # Along a backward orbit the profile recurrence is exact for a != d, and
    # on the cancellation column a = d the next profile is one of the
    # enumerated outcomes (b, e - b), e <= d.
    prm = pr(5)
    rec = backward_orbit(Point(pr(255), pr(10)), prm, 10, escape_exponent=None)
    d = prm.norm_exponent
    cancellations = 0
    for prev, curr in zip(rec.profiles, rec.profiles[1:]):
        a, b = prev
        det, column = _step_pieces([(a, b, b, a, 0, 0, 1)], d)
        groups = [det] + [pieces for pieces, _ in _column_groups(column, (), d, d - 10)]
        outcomes = [(a0 + a1 * b, b0 + b1 * b) for pieces in groups for _, _, _, a0, a1, b0, b1 in pieces]
        if prev[0] == d:
            cancellations += 1
            assert curr in outcomes
        else:
            assert outcomes == [curr]
    assert cancellations == 2  # 255 - 5 = 2 * 5^3 cancels to e = -3, then 10 - 5 to e = -1


def test_escape_verdict():
    prm = pr(5)
    rec = backward_orbit(Point(pr(255), pr(10)), prm, 40, escape_exponent=30)
    assert rec.verdict.kind == "escaped"
    assert rec.verdict.norm_exponent > 30


def test_undefined_inverse_verdict_at_step_one():
    prm = pr(5)
    rec = backward_orbit(Point(pr(7), pr(0)), prm, 5)
    assert rec.verdict.kind == "undefined_inverse"
    assert rec.verdict.step == 1
    assert len(rec.steps) == 1  # only the start was recorded


def test_budget_verdict():
    prm = pr(1, 5, 5)
    one = pr(1)
    rec = backward_orbit(Point(one, one), prm, 50, escape_exponent=None, bit_budget=5000)
    assert rec.verdict.kind == "budget_exceeded"


def test_completed_verdict_and_max():
    prm = pr(1, 1, 3)
    rho = Point(pr(-1, 1, 3), pr(-1, 1, 3))
    rec = backward_orbit(rho, prm, 30, escape_exponent=8)
    assert rec.verdict.kind == "completed"
    assert rec.verdict.norm_exponent == 0


def test_orbit_serialization_schema():
    prm = pr(5)
    rec = backward_orbit(Point(pr(255), pr(10)), prm, 4, escape_exponent=None)
    obj = rec.to_json()
    assert obj["direction"] == "backward"
    assert {"n", "x", "y", "a", "b", "region"} <= set(obj["steps"][0])
    assert obj["verdict"]["kind"] == "completed"


def test_forward_orbit_period_three():
    prm = pr(4, 1, 3)
    rho = Point(pr(-1, 1, 3), pr(-1, 1, 3))
    rec = forward_orbit(rho, prm, 9, escape_exponent=None)
    assert rec.steps[3] == rho and rec.steps[6] == rho and rec.steps[9] == rho


def test_default_escape_exponent():
    assert default_escape_exponent(pr(5)) == 8
    assert default_escape_exponent(pr(2)) == 8
    assert default_escape_exponent(pr(1, 25, 5)) == 8 * 2 * 233


# --- certified fixed-precision engine ---------------------------------------------


def _random_start(rng, prm: PadicRational) -> Point:
    """A rational start.  Half of them are forward images f^j(q), j < 5, of a
    point q with x within p^e of c: the backward orbit reaches q after j steps,
    by then on reduced residues, and its next step cancels about e digits."""
    p = prm.prime

    def rational():
        num = rng.randrange(-400, 401) * p ** rng.randrange(0, 4)
        return PadicRational(num, rng.randrange(1, 200) * p ** rng.randrange(0, 4), p)

    pt = Point(rational(), rational())
    if rng.randrange(2):
        near_c = prm + rng.randrange(1, 50) * p ** rng.randrange(1, 200)
        pt = Point(near_c, pt.y)
        for _ in range(rng.randrange(5)):
            pt = forward(pt, prm)
    return pt


def test_profile_orbit_matches_exact_engine():
    # On every orbit the exact engine completes, the certified engine (default
    # cap) gives the same profiles, hence the same region labels, at every
    # horizon: a horizon that ends on a deep cancellation leaves no later step
    # to expose an uncertified valuation.  At least 10 of them cancel more
    # than 16 digits, so 16 digits would not certify them.
    rng = random.Random(8)
    compared = deep = 0
    for c_num, c_den, p in ((5, 1, 5), (1, 3, 3), (2, 1, 3), (1, 9, 3), (1, 81, 3)):
        prm = PadicRational(c_num, c_den, p)
        for _ in range(40):
            pt = _random_start(rng, prm)
            if pt.x.is_zero or pt.y.is_zero:
                continue
            exact = backward_orbit(pt, prm, 12, escape_exponent=None, bit_budget=10**7)
            if exact.verdict.kind != "completed":
                continue
            for n in range(1, 13):
                cert = backward_profile_orbit(pt, prm, n, escape_exponent=None)
                assert cert.profiles == exact.profiles[: n + 1]
            assert cert.verdict == exact.verdict
            compared += 1
            try:
                backward_profile_orbit(pt, prm, 12, precision=16, escape_exponent=None)
            except PrecisionExhaustedError:
                deep += 1
    assert compared >= 150 and deep >= 10, (compared, deep)


def test_profile_orbit_certifies_a_deep_cancellation_at_the_cap():
    # x - c = 3^20 at valuation -1: the first step cancels 21 digits.
    prm = pr(1, 3, 3)
    pt = Point(pr(1, 3, 3) + pr(3**20, 1, 3), pr(1, 1, 3))
    with pytest.raises(PrecisionExhaustedError):
        backward_profile_orbit(pt, prm, 10, precision=16, escape_exponent=None)
    rec = backward_profile_orbit(pt, prm, 10, escape_exponent=None)
    exact = backward_orbit(pt, prm, 10, escape_exponent=None)
    assert rec.profiles == exact.profiles
    assert rec.profiles[:3] == [(1, 0), (0, -20), (-20, 21)]
    assert rec.verdict == Verdict("completed", 10, exact.verdict.norm_exponent)
    assert rec.precision == 256
    obj = rec.to_json()
    assert (obj["engine"], obj["precision"]) == ("certified", 256)
    assert [(s["a"], s["b"]) for s in obj["steps"]] == rec.profiles


def test_profile_orbit_escape_threshold():
    prm = pr(1, 3, 3)
    pt = Point(pr(1 + 27, 3, 3), pr(1, 1, 3))
    rec = backward_profile_orbit(pt, prm, 60, escape_exponent=100)
    assert rec.verdict.kind == "escaped"


def test_profile_orbit_refuses_uncertifiable_cancellation():
    # x = c exactly: the subtraction cancels below any finite window.
    prm = pr(1, 3, 3)
    pt = Point(pr(1, 3, 3), pr(1, 1, 3))
    with pytest.raises(PrecisionExhaustedError):
        backward_profile_orbit(pt, prm, 5, precision=50)


@pytest.mark.parametrize("precision", [0, -3])
def test_profile_orbit_needs_one_digit(precision):
    # Below one digit no residue exists: a run there must not report profiles.
    pt = Point(pr(3), pr(7))
    for c in (0, 5):
        with pytest.raises(ValueError, match="precision must be >= 1"):
            backward_profile_orbit(pt, pr(c), 5, precision=precision)
    with pytest.raises(ValueError, match="precision must be >= 1"):
        _residue(pr(3), precision)


def test_profile_orbit_undefined_inverse():
    prm = pr(1, 3, 3)
    pt = Point(pr(5, 1, 3), pr(0, 1, 3))
    rec = backward_profile_orbit(pt, prm, 5)
    assert rec.verdict.kind == "undefined_inverse"


def test_profile_orbit_degenerate_c_at_zero_x():
    # c = 0 and x = 0: the next y is exactly 0, then the inverse is undefined.
    prm = pr(0)
    pt = Point(pr(0), pr(5))
    rec = backward_profile_orbit(pt, prm, 5)
    exact = backward_orbit(pt, prm, 5)
    assert rec.profiles == exact.profiles == [(None, -1), (-1, None)]
    assert rec.verdict == exact.verdict == Verdict("undefined_inverse", 2)


def _eager_orbit(pt, prm, max_steps, precision, escape_exponent, step=padics._inverse_y):
    """The reference for the certified engine: a residue step (x - c)/y by
    `step` after every profile, off the column a = d as on it, at `precision`
    digits."""
    p, c = prm.prime, padics._split(prm)

    def profiles():
        x, y = padics._residue(pt.x, precision), padics._residue(pt.y, precision)
        while True:
            yield None if x is None else -x[0], None if y is None else -y[0]
            if y is None:
                raise UndefinedInverseError("inverse undefined: y = 0")
            x, y = y, step(x, y, c, p)

    return dynamics._trace(dynamics.OrbitRecord("backward", precision=precision),
                           profiles(), max_steps, escape_exponent)


def _outcome(run, *args):
    """run(*args)'s profiles, precision and verdict, or the message of the
    PrecisionExhaustedError it raised."""
    try:
        rec = run(*args)
    except PrecisionExhaustedError as exc:
        return str(exc)
    return rec.profiles, rec.precision, rec.verdict


def _start(prm: PadicRational, shape: str, y: PadicRational, e: int, j: int) -> Point:
    """A start of the given shape, for y != 0: "on column", x = c + p^(e - d),
    so |x| = |c| and the first step cancels e digits; "x = 0"; "y = 0"; "hits c",
    f^j(c, y), whose orbit reaches x = c exactly after j steps, a cancellation
    that no window certifies; or "any", the point (y, y + 1)."""
    p, d = prm.prime, prm.norm_exponent or 0
    zero = PadicRational(0, 1, p)
    if shape == "on column":
        return Point(prm + PadicRational(p ** max(e - d, 0), p ** max(d - e, 0), p), y)
    if shape == "x = 0":
        return Point(zero, y)
    if shape == "y = 0":
        return Point(y, zero)
    if shape == "hits c":
        pt = Point(prm, y)
        for _ in range(j):
            pt = forward(pt, prm)
        return pt
    return Point(y, y + 1)


_SHAPES = ["on column", "x = 0", "y = 0", "hits c", "any"]


def test_profile_orbit_equals_the_eager_reference():
    # The engine steps residues only on a = d and follows max(a, d) - b off
    # it.  Every record (profiles, precision, verdict) or exhaustion message
    # equals the reference's, which steps residues after every profile, at
    # p = 3, 5, 7 in all three regimes and at c = 0, and at caps 16, 64 and
    # 256.  At c = 0 the start x = 0 exits at y = 0 after one step.
    seen = set()
    for p in (3, 5, 7):
        for num, den in ((p, 1), (2, 1), (1, p), (1, p**3), (0, 1)):
            prm = pr(num, den, p)
            threshold = default_escape_exponent(prm)
            for shape in _SHAPES:
                for e, j in ((3, 0), (20, 1), (70, 2), (300, 3)):
                    pt = _start(prm, shape, pr(2 + e, p ** (j + 1), p), e, j)
                    for cap in (16, 64, 256):
                        for escape in (None, threshold):
                            args = pt, prm, 40, cap, escape
                            ref = _outcome(_eager_orbit, *args)
                            assert _outcome(backward_profile_orbit, *args) == ref
                            seen.add(("exhausted", cap) if isinstance(ref, str)
                                     else (ref[2].kind, ref[1]))
    assert {kind for kind, _ in seen} == {"completed", "escaped", "undefined_inverse",
                                          "exhausted"}
    assert {("exhausted", 16), ("exhausted", 64), ("exhausted", 256)} <= seen
    assert {precision for _, precision in seen} == {16, 64, 256}


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([3, 5, 7]), d=st.none() | st.integers(-4, 4), u=st.integers(1, 200),
       shape=st.sampled_from(_SHAPES),
       y_num=st.integers(-10**6, 10**6).filter(bool), vy=st.integers(-6, 6),
       e=st.integers(1, 300), j=st.integers(0, 4), steps=st.integers(1, 60),
       cap=st.sampled_from([16, 64, 256]), escape=st.booleans())
def test_profile_orbit_equals_the_eager_reference_on_random_orbits(p, d, u, shape, y_num, vy,
                                                                    e, j, steps, cap, escape):
    assume(u % p)
    prm = pr(0, 1, p) if d is None else pr(u * p ** max(-d, 0), p ** max(d, 0), p)
    y = pr(y_num * p ** max(vy, 0), p ** max(-vy, 0), p)
    args = (_start(prm, shape, y, e, j), prm, steps, cap,
            default_escape_exponent(prm) if escape else None)
    assert _outcome(backward_profile_orbit, *args) == _outcome(_eager_orbit, *args)


def test_profile_orbit_steps_residues_only_on_the_column(monkeypatch):
    # The bundled all-lemmas campaign makes 60,094 residue steps when every
    # step takes one; on a = d alone it makes 2,547, replays included.
    calls = []

    def counting(*args):
        calls.append(args)
        return padics._inverse_y(*args)

    monkeypatch.setattr(dynamics, "_inverse_y", counting)
    assert campaign_summary(run_campaign(builtin_campaign("all-lemmas")))["ok"]
    assert len(calls) == 2_547


def test_profile_orbit_builds_residues_only_at_the_column(monkeypatch):
    # c = 1/5 at p = 5, d = 1.  From (1, 1) the profile runs (0, 0), (0, 1),
    # (1, 0): the third state is on a = d.  From (1, 5) it runs (0, -1),
    # (-1, 2), (2, -1), (-1, 3), ... and never has a = 1.
    calls = []

    def counting(x, k):
        calls.append(k)
        return padics._residue(x, k)

    monkeypatch.setattr(dynamics, "_residue", counting)
    prm, one = pr(1, 5, 5), pr(1, 1, 5)
    off = backward_profile_orbit(Point(one, pr(5, 1, 5)), prm, 12, precision=40)
    assert all(a != 1 for a, _ in off.profiles) and calls == []
    on = backward_profile_orbit(Point(one, one), prm, 12, precision=40)
    assert on.profiles[2][0] == 1 and calls == [40, 40]
    assert on.profiles == backward_orbit(Point(one, one), prm, 12).profiles


def test_capped_subtraction_gives_the_uncapped_orbits_at_large_d():
    """LARGE d = 2 (c = 1/9 at p = 3), threshold 3728: each step's x - c keeps
    only the digits of y, yet every record of the eager reference equals the
    one from a loop whose subtraction keeps all of its digits, exhaustion
    included, and the engine's record equals both."""
    prm = pr(1, 9, 3)
    assert prm.norm_exponent == 2 and default_escape_exponent(prm) == 3728
    rng = random.Random(20240811)
    starts = [sample_in_region(RegionLabel(Regime.LARGE, name, index), 2, 3, 8, 6, rng)
              for name, index in (("F", None), ("G", None), ("H", None), ("M", 1), ("M", 2),
                                  ("M", 3), ("M", 4)) for _ in range(12)]
    starts += [Point(pr(1, 9, 3) + pr(3**e, 1, 3), pr(1, 3**j, 3)) for e in (3, 20, 40)
               for j in (1, 2, 5)]
    clamped = []

    def counting(x, y, c, p):
        if x is not None and x[0] != c[0] and x[0] - min(x[0], c[0]) + x[3] > y[3]:
            clamped.append(x[0] - c[0])
        return padics._inverse_y(x, y, c, p)

    def uncapped(x, y, c, p):
        """(x - c)/y with x - c at every digit it keeps, then divided."""
        if x is None:
            return padics._inverse_y(x, y, c, p)
        (vx, nx, mx, kx), (vc, c_num, c_den) = x, c
        lo = min(vx, vc)
        n = vx - lo + kx
        mod = p**n
        s = (nx * c_den * pow(p, vx - lo, mod) - c_num * mx * pow(p, vc - lo, mod)) % mod
        if s == 0:
            raise PrecisionExhaustedError(
                f"cancellation below p^{n} at valuation {lo}; raise the precision")
        w = padic_valuation(s, p)
        k = min(n - w, y[3])
        mod = p**k
        return lo + w - y[0], s // p**w * y[2] % mod, mx * c_den * y[1] % mod, k

    kinds, precisions = set(), set()
    for pt in starts:
        for cap in (16, 64, 256):
            args = pt, prm, 60, cap, 3728
            capped = _outcome(_eager_orbit, *args, counting)
            assert capped == _outcome(_eager_orbit, *args, uncapped)
            assert capped == _outcome(backward_profile_orbit, *args)
            if isinstance(capped, str):
                kinds.add("exhausted")
            else:
                kinds.add(capped[2].kind)
                precisions.add(capped[1])
    assert kinds == {"escaped", "exhausted"} and precisions == {16, 64, 256}
    assert len(clamped) > 1000 and max(abs(e) for e in clamped) > 1000


# --- fixed points ------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_exact_fixed_points_constructed(p):
    prm = PadicRational(p - p * p, 1, p)
    pts = exact_fixed_points(prm)
    values = {pt.x.as_fraction() for pt in pts}
    assert values == {Fraction(p), Fraction(1 - p)}
    for pt in pts:
        assert forward(pt, prm) == pt


def test_single_fixed_point_at_quarter():
    prm = PadicRational(1, 4, 5)
    pts = exact_fixed_points(prm)
    assert len(pts) == 1 and pts[0].x.as_fraction() == Fraction(1, 2)
    trunc = fixed_points(prm, 12)
    assert len(trunc) == 1
    assert digit_view(trunc[0][0], 5) == digit_view(_residue(PadicRational(1, 2, 5), 12), 5)


def _roots_mod(f, p, k):
    """Every root of the integer polynomial f modulo p^k, by brute force: each
    root modulo p^j is tried with all p digits in place j."""
    roots = [r for r in range(p) if f(r) % p == 0]
    for j in range(1, k):
        roots = [r + t * p**j for r in roots for t in range(p) if f(r + t * p**j) % p ** (j + 1) == 0]
    return roots


@pytest.mark.parametrize("p", [17, 41, 97])
def test_square_roots_and_fixed_points_at_p_one_mod_eight(p):
    # At p = 1 (mod 8), 2 is a residue, so Tonelli-Shanks searches for a
    # non-residue, and the order of its t can be 4 or more, which runs the inner
    # squaring loop.  Every unit u is tried: a residue has the brute-force
    # root of u modulo p^k with leading digit at most (p - 1)/2, and its
    # c = (1 - u)/4 the fixed points ((1 - q)/2, (1 + q)/2) that solve
    # a^2 - a + c = 0 modulo p^k; a non-residue has neither.
    k = 6
    mod = p**k
    for u in range(1, p):
        roots = _roots_mod(lambda t: t * t - u, p, k)
        c = PadicRational(1 - u, 4, p)
        if not roots:
            with pytest.raises(padics.NonSquareError, match="non-residue"):
                padics.sqrt(pr(u, 1, p), k)
            assert fixed_points(c, k) == []
            continue
        q = min(roots, key=lambda r: r % p)
        assert padics.sqrt(pr(u, 1, p), k) == (0, q, 1, k)
        if u == 1:  # c = 0: 1 - q cancels at every precision
            continue
        pts = fixed_points(c, k)
        assert all(x == y for x, y in pts) and [(x[0], x[3]) for x, _ in pts] == [(0, k), (0, k)]
        got = [n * pow(m, -1, mod) % mod for (_, n, m, _), _ in pts]
        assert got == [(1 - q) * pow(2, -1, mod) % mod, (1 + q) * pow(2, -1, mod) % mod]
        assert sorted(got) == sorted(_roots_mod(lambda a: 4 * a * a - 4 * a + 1 - u, p, k))


def test_no_fixed_points_for_nonresidue():
    # 1 - 4c = 2, a non-residue mod 5.
    prm = PadicRational(-1, 4, 5)
    assert exact_fixed_points(prm) == []
    assert fixed_points(prm, 10) == []


def test_no_fixed_points_for_odd_valuation():
    # 1 - 4c = 5.
    prm = PadicRational(-1, 1, 5)
    assert exact_fixed_points(prm) == []
    assert fixed_points(prm, 10) == []


def test_hensel_fixed_points_match_exact():
    p = 5
    prm = PadicRational(p - p * p, 1, p)
    trunc = fixed_points(prm, 20)
    assert len(trunc) == 2
    wanted = {tuple(digit_view(_residue(PadicRational(x, 1, p), 18), p)["digits"]) for x in (p, 1 - p)}
    got = {tuple(digit_view(t[0], p)["digits"][:18]) for t in trunc}
    assert wanted == got


def _residual_valuation(alpha, c):
    """v_p(a^2 - a + c) at the rational a that the printed digits of the residue
    alpha spell out; None if 0."""
    p = c.prime
    view = digit_view(alpha, p)
    assert (view["val"], len(view["digits"])) == (alpha[0], alpha[3])
    a = sum(dig * Fraction(p) ** (view["val"] + i) for i, dig in enumerate(view["digits"]))
    return PadicRational(a * a - a + c.as_fraction(), 1, p).valuation


def test_irrational_fixed_points_satisfy_equation():
    # 1 - 4c = 6, a residue mod 5 but not a rational square.
    prm = PadicRational(-5, 4, 5)
    assert exact_fixed_points(prm) is None
    pts = fixed_points(prm, 24)
    assert len(pts) == 2
    for alpha, _ in pts:
        # The digits are certified to p^(val + precision), and 2a - 1 = -+q is a
        # unit, so a^2 - a + c vanishes there too.
        res = _residual_valuation(alpha, prm)
        assert res is None or res >= alpha[0] + alpha[3]


# (p, c, v_q, cancellation depth of (1 - q)/2 and of (1 + q)/2).  The roots
# multiply to c, so their valuations add up to v_p(c).
_ROOT_CASES = [
    (5, Fraction(-6, 25), -1, (0, 0)),
    (7, Fraction(-2, 49), -1, (0, 0)),
    (3, Fraction(2, 9), -1, (0, 0)),
    (5, Fraction(-6), 1, (0, 0)),
    (3, Fraction(-2), 1, (0, 0)),
    (7, Fraction(-12), 1, (0, 0)),
    (3, Fraction(-20), 2, (0, 0)),
    (5, Fraction(-2), 0, (0, 0)),
    (7, Fraction(-2), 0, (0, 0)),
    (5, Fraction(-5, 4), 0, (1, 0)),
    (3, Fraction(-6), 0, (1, 0)),
    (7, Fraction(-14), 0, (1, 0)),
    (5, Fraction(-50), 0, (2, 0)),
]


@pytest.mark.parametrize("p,c,vq,depths", _ROOT_CASES)
def test_fixed_point_precision_is_k_minus_cancellation(p, c, vq, depths):
    # 1 -+ q is known to k + max(v_q, 0) digits above p^min(v_q, 0); a
    # cancellation of depth w leaves exactly w fewer certified digits.
    k = 12
    prm = PadicRational(c, 1, p)
    pts = fixed_points(prm, k)
    assert len(pts) == 2
    lo = min(vq, 0)
    for (alpha, beta), w in zip(pts, depths):
        assert alpha == beta
        assert alpha[0] == lo + w
        assert alpha[3] == k + max(vq, 0) - w
        res = _residual_valuation(alpha, prm)
        assert res is None or res >= alpha[0] + alpha[3] + vq
    assert sum(alpha[0] for alpha, _ in pts) == prm.valuation


# --- the 3-cycle ---------------------------------------------------------------------


def test_three_cycle_exact_for_random_c():
    rng = random.Random(12)
    for _ in range(100):
        p = rng.choice([3, 5, 7])
        c = PadicRational(
            Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4)), 1, p
        )
        rho, f1, f2 = three_cycle(c)
        assert forward(rho, c) == f1
        assert forward(f1, c) == f2
        assert forward(f2, c) == rho


def test_three_cycle_c_zero():
    prm = pr(0, 1, 3)
    rho, f1, f2 = three_cycle(prm)
    assert f1 == Point(pr(1, 1, 3), pr(-1, 1, 3))
    assert f2 == Point(pr(-1, 1, 3), pr(1, 1, 3))


def test_three_cycle_c_minus_one():
    prm = pr(-1, 1, 3)
    rho, f1, f2 = three_cycle(prm)
    assert f1 == Point(pr(0, 1, 3), pr(-1, 1, 3))
    assert forward(f2, prm) == rho


def test_dynamics_all_names_resolve():
    import padic_henon.dynamics as dynamics

    for name in dynamics.__all__:
        assert hasattr(dynamics, name), name
    namespace = {}
    exec("from padic_henon.dynamics import *", namespace)
    for name in ("backward_profile_orbit", "OrbitRecord", "PrecisionExhaustedError"):
        assert namespace[name] is getattr(dynamics, name)
