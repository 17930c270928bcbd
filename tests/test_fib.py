import math
import random

import pytest

from padic_henon.fib import cassini, cassini2, fib, golden_cmp


def test_base_values():
    assert fib(-2) == 1
    assert fib(-1) == 0
    assert fib(0) == 1
    assert fib(1) == 1
    assert fib(10) == 89


def test_recurrence_long():
    for n in range(2, 300):
        assert fib(n) == fib(n - 1) + fib(n - 2)


def test_index_below_range():
    with pytest.raises(ValueError):
        fib(-3)


def test_cassini_small():
    assert cassini(3) == -1  # 3*1 - 2^2
    assert cassini(2) == 1  # 2*1 - 1


def test_cassini_large_even():
    assert cassini(90) == 1


def test_cassini2_values():
    assert cassini2(1) == -1  # F2*F(-1) - F1*F0 = 0 - 1
    assert cassini2(4) == 1  # 8*2 - 5*3
    assert cassini2(51) == -1


def test_identities_sign_alternation():
    for n in range(1, 120):
        s = (-1) ** n
        assert cassini(n) == s
        assert cassini2(n) == s


def test_golden_cmp_matches_float_far_from_line():
    beta = (1 + math.sqrt(5)) / 2
    rng = random.Random(2)
    for _ in range(500):
        a = rng.randrange(-200, 201)
        b = rng.randrange(-200, 201)
        approx = beta * b - a
        if abs(approx) > 1e-6:
            assert golden_cmp(b, a) == (1 if approx > 0 else -1)


def test_golden_line_never_attained():
    for a in range(-60, 61):
        for b in range(-60, 61):
            if (a, b) != (0, 0):
                assert golden_cmp(b, a) != 0


def test_golden_cmp_consecutive_fibonacci():
    # F(n+1)/F(n) straddles beta with alternating sign: above for odd n
    # (2/1, 5/3, ...), below for even n (3/2, 8/5, ...).
    for n in range(1, 30):
        sign = golden_cmp(fib(n), fib(n + 1))  # beta*F(n) vs F(n+1)
        assert sign == (-1 if n % 2 else 1)


def test_bracketing_chain():
    # F(2n+1)/F(2n) < F(2n+3)/F(2n+2) < beta < F(2n+4)/F(2n+3) < F(2n+2)/F(2n+1),
    # the outer two by cross-multiplication and the two around beta by golden_cmp.
    for n in range(41):
        assert fib(2 * n + 1) * fib(2 * n + 2) < fib(2 * n + 3) * fib(2 * n)
        assert golden_cmp(fib(2 * n + 2), fib(2 * n + 3)) > 0  # beta F(2n+2) > F(2n+3)
        assert golden_cmp(fib(2 * n + 3), fib(2 * n + 4)) < 0  # beta F(2n+3) < F(2n+4)
        assert fib(2 * n + 4) * fib(2 * n + 1) < fib(2 * n + 2) * fib(2 * n + 3)


def test_fibonacci_brackets_decide_every_profile():
    # b/a sits strictly inside the level-n bracket pair when
    # a F(2n) < b F(2n+1) and b F(2n-1) < a F(2n-2); staying inside for every
    # n would force b/a = 1/beta, impossible for integers.  Each profile must
    # exit the nest at some finite level.
    for a in range(1, 80):
        for b in range(1, 80):
            exited = False
            for n in range(0, 25):
                inside = (
                    a * fib(2 * n) < b * fib(2 * n + 1)
                    and b * fib(2 * n - 1) < a * fib(2 * n - 2)
                )
                if not inside:
                    exited = True
                    break
            assert exited, (a, b)
