import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padic_henon.padics import (
    NonSquareError,
    PadicRational,
    Point,
    PrecisionExhaustedError,
    _digits,
    _inverse_y,
    _residue,
    _split,
    is_square,
    padic_valuation,
    sample_with_norm,
    sqrt,
    digit_view,
    validate_odd_prime,
)


def pr(num, den=1, p=5):
    return PadicRational(num, den, p)


# --- construction and validation -------------------------------------------


def test_make_rational_reduces():
    x = PadicRational(10, 4, 5)
    assert (x.numerator, x.denominator) == (5, 2)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        PadicRational(1, 0, 5)


# 318665857834031151167461 = 399165290221 * 798330580441 and
# 3317044064679887385961981 = 1287836182261 * 2575672364521 are strong
# pseudoprimes to the bases 2 to 37 (Sorenson and Webster 2017), the second
# also to 41; 2^89 - 1 is prime, but above the bound of the exact test.
@pytest.mark.parametrize("p", [2, 4, 9, 15, 1, -3, 21, 318665857834031151167461,
                               3317044064679887385961981, 2**89 - 1])
def test_non_odd_prime_rejected(p):
    with pytest.raises(ValueError):
        PadicRational(1, 1, p)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101, 104729, 2**61 - 1])
def test_odd_primes_accepted(p):
    assert validate_odd_prime(p) == p


def test_a_float_prime_is_rejected_after_the_integer_was_validated():
    # 3.0 == 3 and hash(3.0) == hash(3): the type is checked before the cache.
    validate_odd_prime(3)
    with pytest.raises(ValueError, match="prime must be an integer, got 3.0"):
        validate_odd_prime(3.0)


def test_negative_denominator_normalized():
    x = PadicRational(3, -6, 5)
    assert (x.numerator, x.denominator) == (-1, 2)


# --- valuations and norms ---------------------------------------------------


def test_padic_valuation_chunked_matches_naive():
    rng = random.Random(1)
    for _ in range(200):
        p = rng.choice([3, 5, 7])
        v = rng.randrange(0, 40)
        u = rng.randrange(1, 10**6)
        while u % p == 0:
            u += 1
        assert padic_valuation(u * p**v, p) == v


def test_unit_norm():
    assert pr(1, 1).norm_exponent == 0


def test_p_norm():
    assert pr(5, 1).norm_exponent == -1


def test_one_over_p_norm():
    assert pr(1, 5).norm_exponent == 1


def test_norm_of_zero_is_marker():
    assert pr(0, 1).norm_exponent is None
    assert pr(0).valuation is None


def test_norm_exponent_mixed_example():
    # x = p + 2p^3 at p = 5 has |x| = p^-1.
    p = 5
    assert pr(p + 2 * p**3).norm_exponent == -1


def test_norm_exponent_fraction_example():
    # (p - 1)/p^3 has norm p^3.
    p = 5
    assert pr(p - 1, p**3).norm_exponent == 3


# --- field arithmetic and the ultrametric -----------------------------------


def test_subtraction_cancels_to_higher_valuation():
    p = 5
    x = pr(p + 2 * p**3) - pr(p)
    assert x == pr(2 * p**3)
    assert x.norm_exponent == -3


def test_additive_identity():
    x = pr(37, 12)
    assert x + pr(0) == x


def test_division_norm_example():
    p = 5
    x = (pr(1) - pr(1, p)) / pr(p**2)
    assert x.norm_exponent == 3


def test_prime_mismatch_rejected():
    with pytest.raises(ValueError):
        pr(1, 1, 5) + pr(1, 1, 7)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        pr(1) / pr(0)


rationals = st.builds(
    lambda n, d: Fraction(n, d),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)


@settings(max_examples=200, deadline=None)
@given(a=rationals, b=rationals, p=st.sampled_from([3, 5, 7]))
def test_norm_is_multiplicative(a, b, p):
    x, y = PadicRational(a, 1, p), PadicRational(b, 1, p)
    prod = x * y
    if x.is_zero or y.is_zero:
        assert prod.norm_exponent is None
    else:
        assert prod.norm_exponent == x.norm_exponent + y.norm_exponent


@settings(max_examples=200, deadline=None)
@given(a=rationals, b=rationals, p=st.sampled_from([3, 5, 7]))
def test_ultrametric_inequality(a, b, p):
    x, y = PadicRational(a, 1, p), PadicRational(b, 1, p)
    s = x + y
    exps = [e for e in (x.norm_exponent, y.norm_exponent) if e is not None]
    if s.is_zero or not exps:
        return
    assert s.norm_exponent <= max(exps)
    if x.norm_exponent != y.norm_exponent:
        assert s.norm_exponent == max(exps)


# --- squares and square roots ------------------------------------------------


def test_is_square_constructed_square():
    p = 5
    c = pr(p - p * p)
    disc = 1 - 4 * c  # equals (1 - 2p)^2
    assert disc == pr((1 - 2 * p) ** 2)
    assert is_square(disc)


def test_is_square_odd_valuation():
    assert not is_square(pr(5))


def test_is_square_random_squares():
    rng = random.Random(7)
    for _ in range(50):
        n = Fraction(rng.randrange(1, 10**4), rng.randrange(1, 10**4))
        assert is_square(PadicRational(n * n, 1, 7))


def test_square_root_of_a_unit_over_a_power_of_p():
    # x = (2/3)^2 / 5^2 at p = 5: valuation -2 and unit part 4/9.
    x = pr(4, 9 * 25)
    assert is_square(x) and not is_square(pr(3, 25))  # 3 is a non-residue mod 5
    v, r, m, k = sqrt(x, 6)
    assert (v, m, k) == (-1, 1, 6) and (9 * r * r - 4) % 5**6 == 0


def test_is_square_zero_degenerate():
    assert is_square(pr(0))


def _squares_to(q, x) -> bool:
    """q = (v_q, r, 1, k) is a root of x = p^v_x * num/den: 2 v_q = v_x and r^2 den = num mod p^k."""
    vq, r, m, k = q
    vx, num, den = _split(x)
    return 2 * vq == vx and m == 1 and (r * r * den - num) % x.prime**k == 0


def _is_root_up_to_sign(q, root) -> bool:
    """q equals the exact root, or its negation mod p^k equals it."""
    vq, r, _, k = q
    mod = root.prime**k
    v, n, m, _ = _residue(root, k)
    return v == vq and n * pow(m, -1, mod) % mod in (r, -r % mod)


def test_sqrt_of_exact_square_matches_digitwise():
    p = 5
    x = pr((1 - 2 * p) ** 2)
    q = sqrt(x, 10)
    assert _squares_to(q, x)
    # One of the two roots agrees digitwise with the exact rational root.
    assert _is_root_up_to_sign(q, pr(1 - 2 * p))


def test_sqrt_of_one():
    assert sqrt(pr(1), 8) == (0, 1, 1, 8)


def test_sqrt_of_four():
    assert _is_root_up_to_sign(sqrt(pr(4), 8), pr(2))


def test_sqrt_of_zero_is_none():
    assert sqrt(pr(0), 8) is None


def test_sqrt_of_square_with_valuation():
    x = pr(4 * 5**6, 9 * 5**2)
    q = sqrt(x, 10)
    assert q[0] == 2 and _squares_to(q, x)
    assert _is_root_up_to_sign(q, pr(2 * 5**2, 3))
    assert not _squares_to(q, pr(4 * 5**6 + 5**14, 9 * 5**2))  # x differs in its ninth digit


def test_sqrt_sign_convention():
    for val in (4, 9, 16, 36, 49):
        q = sqrt(pr(val, 1, 7), 6)
        assert 1 <= q[1] % 7 <= 3


def test_sqrt_obstruction_reasons():
    with pytest.raises(NonSquareError) as err:
        sqrt(pr(5), 8)
    assert err.value.reason == "odd-valuation"
    # 2 is a non-residue mod 5.
    with pytest.raises(NonSquareError) as err:
        sqrt(pr(2), 8)
    assert err.value.reason == "non-residue"


def test_sqrt_square_roundtrip_random():
    rng = random.Random(3)
    for p in (3, 5, 7):
        for _ in range(25):
            u = rng.randrange(1, p**6)
            x = PadicRational(u * u, 1, p)
            q = sqrt(x, 12)
            assert _squares_to(q, x)


# --- truncated expansions ----------------------------------------------------


def test_expand_digits_of_p():
    assert digit_view(_residue(pr(5), 4), 5) == {"p": 5, "val": 1, "digits": [1, 0, 0, 0]}


def test_truncation_zero_marker():
    assert _residue(pr(0), 6) is None
    assert digit_view(None, 5) == {"p": 5, "val": None, "digits": []}


@pytest.mark.parametrize("p", [2, 9, 5.0])
def test_digit_view_checks_its_prime(p):
    with pytest.raises(ValueError, match="prime"):
        digit_view(None, p)
    with pytest.raises(ValueError, match="prime"):
        digit_view((0, 1, 1, 3), p)


def test_truncation_rational_arithmetic():
    # Residue arithmetic with exact rationals, read back through the digit view.
    p = 5
    t = _residue(pr(7), 8)  # unit
    one = (0, 1, 1, 8)
    u = _inverse_y(t, one, (0, -3, 1), p)  # (7 + 3)/1
    assert u[3] == 7  # valuation rose by 1: one digit of accuracy spent
    assert digit_view(u, p) == digit_view(_residue(pr(10), 7), p)
    v = _inverse_y(t, (0, 2, 1, 8), None, p)  # (7 - 0)/2
    assert digit_view(v, p) == digit_view(_residue(pr(7, 2), 8), p)
    with pytest.raises(PrecisionExhaustedError):
        _inverse_y(_residue(pr(7 + 5**8), 8), one, (0, 7, 1), p)  # agrees with 7 on all 8 digits


def test_truncation_from_residue():
    p = 7
    x = pr(-45, 14 * 49, p)
    t = digit_view(_residue(x, 6), p)
    assert t["p"] == p and t["val"] == -3 and len(t["digits"]) == 6
    u = sum(dig * p**i for i, dig in enumerate(t["digits"]))
    assert (2 * u + 45) % p**6 == 0  # the digits spell the unit part -45/2 to six places
    assert digit_view(None, p) == {"p": p, "val": None, "digits": []}


def test_digits_match_the_direct_formula():
    # Split digit extraction against u // p^i % p, across the 64-digit switch
    # to divmod and at odd splits, with u drawn below p^k and at its ends.
    rng = random.Random(26)
    for p in (3, 5, 7, 101):
        for k in (1, 2, 63, 64, 65, 129, 200, 1001):
            for u in (0, 1, p**k - 1, rng.randrange(p**k), rng.randrange(p ** (k // 2) + 1)):
                assert _digits(u, p, k) == [u // p**i % p for i in range(k)], (p, k, u)


def test_truncation_serializes_its_digits():
    # 45/7 = 5 * 9/7, and 9/7 = 2 + 2*5 + 1*5^2 + 4*5^3 + 2*5^4 + 3*5^5 mod 5^6.
    assert digit_view(_residue(pr(45, 7), 6), 5) == {"p": 5, "val": 1, "digits": [2, 2, 1, 4, 2, 3]}


def test_rational_serialization_roundtrip():
    x = pr(-22, 7)
    assert PadicRational.from_json(x.to_json()) == x
    assert x.to_json() == {"num": "-22", "den": "7", "p": 5}


def test_rational_serialization_roundtrip_past_the_str_digit_limit():
    # Python prints at most 4,300 digits of an int at once by default; the
    # JSON form stays exact decimal strings at any size, without that setting.
    num = 10**9_999 + 12_345  # 10,000 digits
    for sign in (1, -1):
        x = pr(sign * num, 3**5, 7)
        obj = x.to_json()
        assert obj["num"] == ("-" if sign < 0 else "") + "1" + "0" * 9_994 + "12345"
        assert obj["den"] == "243" and PadicRational.from_json(obj) == x
    big = pr(3**40_000 + 1, 2**30_000, 5)
    assert PadicRational.from_json(big.to_json()) == big
    assert len(big.to_json()["den"]) == 9_031  # 30,000 log10 2 = 9,030.9


def test_str_and_repr_past_the_str_digit_limit():
    big = 10**5_000  # 5,001 digits, past the 4,300 that str(int) prints at once
    digits = "1" + "0" * 5_000
    x = PadicRational(big, 1, 3)
    assert str(x) == digits
    assert repr(x) == f"PadicRational({digits}, 1, prime=3)"
    assert str(Point(x, x)) == f"({digits}, {digits})"
    y = PadicRational(-big, 7, 3)
    assert str(y) == f"-{digits}/7" and repr(y) == f"PadicRational(-{digits}, 7, prime=3)"
    assert str(pr(-3, 4)) == "-3/4" and repr(pr(6)) == "PadicRational(6, 1, prime=5)"


# --- points ------------------------------------------------------------------


def test_point_prime_mismatch():
    with pytest.raises(ValueError):
        Point(pr(1, 1, 5), pr(1, 1, 7))


def test_point_profile():
    pt = Point(pr(25), pr(1, 5))
    assert pt.profile() == (-2, 1)


# --- the seeded sampler ------------------------------------------------------


@pytest.mark.parametrize("a", [0, -2, 3])
def test_sample_with_norm_exact(a):
    rng = random.Random(11)
    for _ in range(200):
        x = sample_with_norm(a, 6, rng, 5)
        assert x.norm_exponent == a


def test_sample_with_norm_no_drift_bulk():
    rng = random.Random(5)
    for _ in range(10_000):
        a = rng.randrange(-12, 13)
        assert sample_with_norm(a, 4, rng, 3).norm_exponent == a


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_sample_with_norm_matches_fraction_formula(p):
    """Same draws as randrange made before the units came from getrandbits,
    leaving the rng in the same state, and the same value as u * p^(-a)
    built with Fraction; the valuation cached at construction equals a fresh
    padic_valuation."""
    for digit_count in (*range(1, 9), 13):
        rng, ref = random.Random(1000 * p + digit_count), random.Random(1000 * p + digit_count)
        for a in range(-40, 41):
            x = sample_with_norm(a, digit_count, rng, p)
            bound = p**digit_count
            u = ref.randrange(1, bound)
            while u % p == 0:
                u = ref.randrange(1, bound)
            assert x.as_fraction() == Fraction(u) * Fraction(p) ** (-a)
            assert x._v == -a
            fresh = padic_valuation(x.numerator, p) - padic_valuation(x.denominator, p)
            assert x.valuation == fresh == -a
        assert rng.getstate() == ref.getstate()


def test_arithmetic_results_do_not_inherit_cached_valuations():
    p = 5
    rng = random.Random(17)
    for _ in range(100):
        x = sample_with_norm(rng.randint(-6, 6), 3, rng, p)
        y = sample_with_norm(rng.randint(-6, 6), 3, rng, p)
        # x + p^k - x cancels to valuation k, far from the operands' valuations.
        k = rng.randint(-12, 12)
        near = x + PadicRational(p**k, 1, p) if k >= 0 else x + PadicRational(1, p**-k, p)
        assert x.valuation is not None and y.valuation is not None and near.valuation is not None
        results = [x + y, x - y, x * y, x / y, -x, y - x, 2 * x, x + 1, 1 - x, 3 / x,
                   near - x, x - near, (near - x) * y, y / (near - x), -(near - x), x - x]
        for r in results:
            fresh = PadicRational(r.numerator, r.denominator, p)
            assert r.valuation == fresh.valuation
        assert (near - x).valuation == k


def test_sampler_deterministic():
    seq1 = [sample_with_norm(-1, 6, random.Random(99), 7) for _ in range(1)]
    rng1, rng2 = random.Random(42), random.Random(42)
    s1 = [sample_with_norm(2, 5, rng1, 7) for _ in range(20)]
    s2 = [sample_with_norm(2, 5, rng2, 7) for _ in range(20)]
    assert s1 == s2
    assert seq1 == [sample_with_norm(-1, 6, random.Random(99), 7)]


# --- the integer pair against a Fraction oracle -------------------------------

_ints = st.one_of(st.integers(-60, 60), st.integers(-(10**40), 10**40))
_nonzero = _ints.filter(bool)
_primes = st.sampled_from([3, 5, 7])
_ops = [operator.add, operator.sub, operator.mul, operator.truediv]


def _oracle_valuation(f: Fraction, p: int):
    """v_p(f) by repeated division; None for 0."""
    if f == 0:
        return None
    v, n, d = 0, f.numerator, f.denominator
    while n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    return v


def _ruled(op, x, y):
    """The valuation that the cache rule gives op(x, y) from the operands'
    caches, or None where they do not decide it: an int or Fraction operand,
    an empty cache, or equal valuations under + and -."""
    v = x._v if type(x) is PadicRational else None
    w = y._v if type(y) is PadicRational else None
    if v is None or w is None:
        return None
    if op is operator.mul:
        return v + w
    if op is operator.truediv:
        return v - w
    return None if v == w else min(v, w)


def _assert_is(r, f: Fraction, p: int, cached=None):
    """r is the PadicRational f at p: lowest terms, den > 0, and the valuation
    `cached` in its cache, as the cache rule sets it (None: empty)."""
    assert type(r) is PadicRational and r.prime == p
    assert type(r.numerator) is int and type(r.denominator) is int
    assert (r.numerator, r.denominator) == (f.numerator, f.denominator)
    assert r.as_fraction() == f and r._v == cached
    assert r.valuation == _oracle_valuation(f, p)


@settings(max_examples=600, deadline=None)
@given(p=_primes, xn=_ints, xd=_nonzero, yn=_ints, yd=_nonzero,
       kind=st.sampled_from(["padic", "int", "fraction"]), op=st.sampled_from(_ops))
def test_arithmetic_matches_the_fraction_oracle(p, xn, xd, yn, yd, kind, op):
    fx = Fraction(xn, xd)
    fy = Fraction(yn) if kind == "int" else Fraction(yn, yd)
    x = PadicRational(xn, xd, p)
    y = {"padic": PadicRational(yn, yd, p), "int": yn, "fraction": fy}[kind]
    x.valuation  # fill the operands' caches: a result keeps only what they decide
    if kind == "padic":
        y.valuation
    for left, right, fl, fr in ((x, y, fx, fy), (y, x, fy, fx)):
        if op is operator.truediv and fr == 0:
            with pytest.raises(ZeroDivisionError):
                op(left, right)
        else:
            _assert_is(op(left, right), op(fl, fr), p, _ruled(op, left, right))
    _assert_is(-x, -fx, p, x._v)
    assert x.as_fraction() == fx and x.valuation == _oracle_valuation(fx, p)


_terms = st.tuples(st.integers(-30, 30), st.integers(1, 30), st.integers(-4, 4), st.booleans())


@settings(max_examples=400, deadline=None)
@given(p=_primes, first=_terms, steps=st.lists(
    st.tuples(st.sampled_from([*_ops, operator.neg]), _terms, st.sampled_from(["padic", "int"]),
              st.booleans(), st.booleans()),
    min_size=1, max_size=8))
def test_cached_valuations_follow_the_rule_along_chains(p, first, steps):
    """Along a chain of results, each result's cache is set exactly where the
    rule decides it from its operands' caches, and then equals the Fraction
    oracle's valuation.  A term is n/m * p^e, its cache filled when its flag
    is set; terms share valuations often, so + and - cancel.  Each step puts
    the chain on the left or the right, and hands on its result with the
    cache the rule left or filled by `valuation`."""

    def term(n, m, e, fill):
        x = PadicRational(n * p**e, m, p) if e >= 0 else PadicRational(n, m * p**-e, p)
        if fill:
            x.valuation
        return x

    acc = term(*first)
    for op, t, kind, flip, fill in steps:
        if op is operator.neg:
            result = -acc
            assert result._v == acc._v
            acc = result
            continue
        y = term(*t) if kind == "padic" else t[0] * p ** max(t[2], 0)
        left, right = (y, acc) if flip else (acc, y)
        if op is operator.truediv and right == 0:
            continue
        result = op(left, right)
        want = op(Fraction(left.numerator, left.denominator), Fraction(right.numerator, right.denominator))
        assert result._v == _ruled(op, left, right)
        if result._v is not None:
            assert result._v == _oracle_valuation(want, p)
        acc = result
        if fill:
            assert acc.valuation == _oracle_valuation(want, p)


@settings(max_examples=300, deadline=None)
@given(p=_primes, n=_ints, d=_nonzero)
def test_construction_is_in_lowest_terms_with_positive_denominator(p, n, d):
    f = Fraction(n, d)
    for x in (PadicRational(n, d, p), PadicRational(-n, -d, p), PadicRational(f, 1, p),
              PadicRational(Fraction(n), Fraction(d), p), PadicRational(n * 6, d * 6, p)):
        _assert_is(x, f, p)
    assert PadicRational(n, d, p).bit_size() == f.numerator.bit_length() + f.denominator.bit_length()


@settings(max_examples=300, deadline=None)
@given(p=_primes, n=_ints, d=_nonzero)
def test_hash_agrees_with_equality_for_int_and_fraction(p, n, d):
    f = Fraction(n, d)
    x = PadicRational(n, d, p)
    assert x == f and f == x and hash(x) == hash(f)
    assert len({x, f}) == 1 and {x: 1}.get(f) == 1 and {f: 1}.get(x) == 1
    if f.denominator == 1:
        assert x == f.numerator and hash(x) == hash(f.numerator)
        assert len({x, f.numerator}) == 1 and {x: 1}.get(f.numerator) == 1
    same = PadicRational(n * 2, d * 2, p)
    assert x == same and hash(x) == hash(same)
    other = PadicRational(n, d, 11)
    assert x != other and x != f + 1


def test_hash_of_an_integer_value_is_the_int_hash():
    x = PadicRational(2, 1, 3)
    assert x == 2 and len({x, 2}) == 1 and {x: 1}.get(2) == 1
    assert hash(PadicRational(-1, 1, 5)) == hash(-1) == hash(Fraction(-1))


def _decimal_oracle(n: int) -> str:
    """str(n) with Python's digit limit lifted for this one call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


_big = st.builds(lambda k, r, s: s * (10**k + r), st.integers(0, 6_000),
                 st.integers(0, 10**6), st.sampled_from([1, -1]))


@settings(max_examples=60, deadline=None)
@given(p=_primes, n=_big, d=_big.filter(bool))
def test_json_str_and_repr_at_any_size(p, n, d):
    x = PadicRational(n, d, p)
    num, den = _decimal_oracle(x.numerator), _decimal_oracle(x.denominator)
    assert x.to_json() == {"num": num, "den": den, "p": p}
    back = PadicRational.from_json(x.to_json())
    assert back == x and (back.numerator, back.denominator) == (x.numerator, x.denominator)
    assert str(x) == (num if den == "1" else f"{num}/{den}")
    assert repr(x) == f"PadicRational({num}, {den}, prime={p})"


@pytest.mark.parametrize("zero", [0, Fraction(0), PadicRational(0, 1, 5)])
def test_division_by_every_kind_of_zero(zero):
    x = PadicRational(3, 4, 5)
    with pytest.raises(ZeroDivisionError):
        x / zero
    with pytest.raises(ZeroDivisionError):
        zero / PadicRational(0, 7, 5)
    with pytest.raises(ZeroDivisionError):
        PadicRational(1, zero, 5)


@pytest.mark.parametrize("op", _ops)
def test_prime_mismatch_rejected_by_every_operation(op):
    with pytest.raises(ValueError, match="prime mismatch"):
        op(PadicRational(1, 2, 5), PadicRational(1, 3, 7))
    assert PadicRational(1, 2, 5) != PadicRational(1, 2, 7)


# --- the certified step (x - c)/y ----------------------------------------------


def _unit(data, p: int, bound: int) -> int:
    """An integer prime to p, of either sign, below bound in size."""
    q = data.draw(st.integers(0, bound // p))
    r = data.draw(st.integers(1, p - 1))
    return data.draw(st.sampled_from([1, -1])) * (q * p + r)


def _reduced(r, k: int, p: int):
    """The residue r reduced to k digits."""
    v, n, m, _ = r
    return v, n % p**k, m % p**k, k


@settings(max_examples=500, deadline=None)
@given(p=_primes, vx=st.integers(-400, 400), vc=st.integers(-400, 400), kx=st.integers(1, 60),
       cap=st.integers(1, 120), data=st.data())
def test_step_capped_is_the_uncapped_result_reduced_to_the_cap(p, vx, vc, kx, cap, data):
    assume(vx != vc)
    mod = p**kx
    x = (vx, _unit(data, p, mod) % mod, _unit(data, p, mod) % mod, kx)
    c = (vc, _unit(data, p, 10**30), abs(_unit(data, p, 10**30)))
    # y with digits to spare never caps x - c: it keeps all of its kx + max(vx - vc, 0).
    wide = kx + max(vx - vc, 0) + 1
    y = (data.draw(st.integers(-50, 50)), _unit(data, p, p**wide) % p**wide, 1, wide)
    full = _inverse_y(x, y, c, p)
    capped = _inverse_y(x, _reduced(y, cap, p), c, p)
    k = min(full[3], cap)
    # The valuation is the lower of the two: the cap cannot move it.
    assert capped[0] == full[0] == min(vx, vc) - y[0] and full[3] == wide - 1
    assert capped[1] % p and capped[2] % p
    assert 0 <= capped[1] < p**k and 0 <= capped[2] < p**k
    assert capped == _reduced(full, k, p)


@settings(max_examples=500, deadline=None)
@given(p=_primes, v=st.integers(-400, 400), kx=st.integers(1, 60), cap=st.integers(1, 120),
       agree=st.integers(0, 70), data=st.data())
def test_step_cap_does_not_apply_when_the_digits_can_cancel(p, v, kx, cap, agree, data):
    mod = p**kx
    nx, mx = _unit(data, p, mod) % mod, _unit(data, p, mod) % mod
    c_den = abs(_unit(data, p, 10**30))
    # c agrees with x on its first `agree` digits: nx * c_den = c_num * mx mod p^agree.
    c_num = nx * c_den * pow(mx, -1, mod) % mod + p**agree * data.draw(st.integers(-(10**6), 10**6))
    assume(c_num % p)
    x, c = (v, nx, mx, kx), (v, c_num, c_den)
    y = (0, 1, 1, kx)  # x - c over 1, at all of its digits
    try:
        full = _inverse_y(x, y, c, p)
    except PrecisionExhaustedError as exc:
        with pytest.raises(PrecisionExhaustedError) as capped:
            _inverse_y(x, _reduced(y, cap, p), c, p)
        assert str(capped.value) == str(exc) and f"below p^{kx} " in str(exc)
        return
    # The valuation is certified on all kx digits, even where they outnumber the cap.
    assert _inverse_y(x, _reduced(y, cap, p), c, p) == _reduced(full, min(full[3], cap), p)
    assert agree < kx and full[0] >= v + agree and full[3] == kx - (full[0] - v)


def _with_valuation(data, p: int, v: int) -> PadicRational:
    """A rational of valuation v whose unit part has numerator and denominator
    of up to 40 digits."""
    num, den = _unit(data, p, 10**40), abs(_unit(data, p, 10**40))
    return PadicRational(num * p ** max(v, 0), den * p ** max(-v, 0), p)


@settings(max_examples=800, deadline=None)
@given(p=_primes, kx=st.integers(1, 12), ky=st.integers(1, 12), vx=st.integers(-8, 8),
       vy=st.integers(-8, 8), shape=st.sampled_from(["cancel", "edge", "any", "x = 0", "c = 0"]),
       data=st.data())
def test_step_is_the_residue_of_the_exact_quotient(p, kx, ky, vx, vy, shape, data):
    """On residues of exact X, Y and the exact C, the step is the residue of
    (X - C)/Y at the digits it keeps, or raises only when X - C vanishes on
    all kx digits of x."""
    X, Y = _with_valuation(data, p, vx), _with_valuation(data, p, vy)
    if shape == "cancel":  # v_c = v_x, and C agrees with X on its first j digits
        j = data.draw(st.integers(1, kx + 2))
        C = X + _with_valuation(data, p, vx + j)
    elif shape == "edge":  # the power p^|v_x - v_c| at n - 1, n or n + 1 of the window n
        above = data.draw(st.booleans())  # v_x > v_c: the window is capped at ky
        e = (ky if above else min(kx, ky)) + data.draw(st.sampled_from([-1, 0, 1]))
        assume(e > 0)
        C = _with_valuation(data, p, vx - e if above else vx + e)
    elif shape == "c = 0":
        C = PadicRational(0, 1, p)
    else:
        C = _with_valuation(data, p, data.draw(st.integers(-20, 20)))
    if shape == "x = 0":
        X = PadicRational(0, 1, p)
    x, y, c = _residue(X, kx), _residue(Y, ky), _split(C)
    try:
        r = _inverse_y(x, y, c, p)
    except PrecisionExhaustedError as exc:
        assert vx == C.valuation and (X - C).valuation >= vx + kx
        assert str(exc) == f"cancellation below p^{kx} at valuation {vx}; raise the precision"
        return
    Q = (X - C) / Y
    if Q.is_zero:
        assert X.is_zero and C.is_zero and r is None
        return
    assert r[0] == Q.valuation
    if X.is_zero:
        k = ky
    elif C.is_zero:
        k = min(kx, ky)
    else:  # x - c keeps kx digits above v_x, less the digits that cancel
        k = min(ky, vx + kx - (X - C).valuation)
    assert r[3] == k and 0 < r[1] < p**k and 0 < r[2] < p**k
    assert digit_view(r, p) == digit_view(_residue(Q, k), p)


@settings(max_examples=800, deadline=None)
@given(p=_primes, vx=st.integers(-400, 400), vc=st.integers(-400, 400), vy=st.integers(-400, 400),
       kx=st.integers(1, 60), ky=st.integers(1, 60),
       shape=st.sampled_from(["apart", "edge", "x = 0", "c = 0", "x = c = 0"]), data=st.data())
def test_step_off_the_column_follows_the_ultrametric_rule(p, vx, vc, vy, kx, ky, shape, data):
    """Off the column a = d (v_x != v_c, x = 0 or c = 0) no digit cancels: the
    step's profile is b' = max(a, d) - b, with a = -v_x, b = -v_y, d = -v_c and
    an exact 0 left out of the max, whatever digits x and y keep."""
    if shape == "edge":  # |v_x - v_c| one below, at or one above the digits kept
        vc = vx + data.draw(st.sampled_from([1, -1])) * max(
            1, min(kx, ky) + data.draw(st.sampled_from([-1, 0, 1])))
    assume(vx != vc)
    x = None if shape in ("x = 0", "x = c = 0") else (
        vx, _unit(data, p, p**kx) % p**kx, _unit(data, p, p**kx) % p**kx, kx)
    c = None if shape in ("c = 0", "x = c = 0") else (
        vc, _unit(data, p, 10**30), abs(_unit(data, p, 10**30)))
    y = (vy, _unit(data, p, p**ky) % p**ky, _unit(data, p, p**ky) % p**ky, ky)
    r = _inverse_y(x, y, c, p)
    a, b, d = -vx, -vy, -vc
    norms = [n for n, term in ((a, x), (d, c)) if term is not None]
    if not norms:
        assert r is None
        return
    assert -r[0] == max(norms) - b
