"""Fibonacci utilities: exact big-integer values, Cassini-type identities and
golden-ratio comparisons.

Indexing starts F(-2) = 1, F(-1) = 0, F(0) = F(1) = 1, F(n) = F(n-1) + F(n-2).
"""

from __future__ import annotations

__all__ = [
    "fib",
    "cassini",
    "cassini2",
    "golden_cmp",
    "golden_below",
]

_fib_memo = [1, 0, 1, 1]  # F(-2), F(-1), F(0), F(1)


def fib(n: int) -> int:
    """F(n) for n >= -2, memoized exact integers."""
    if n < -2:
        raise ValueError(f"Fibonacci index must be >= -2, got {n}")
    k = n + 2
    while len(_fib_memo) <= k:
        _fib_memo.append(_fib_memo[-1] + _fib_memo[-2])
    return _fib_memo[k]


def cassini(n: int) -> int:
    """F(n)F(n-2) - F(n-1)^2 for n >= 1; equals (-1)^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return fib(n) * fib(n - 2) - fib(n - 1) ** 2


def cassini2(n: int) -> int:
    """F(n+1)F(n-2) - F(n)F(n-1) for n >= 1; equals (-1)^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return fib(n + 1) * fib(n - 2) - fib(n) * fib(n - 1)


def golden_cmp(b: int, a: int) -> int:
    """Sign of beta*b - a where beta = (1+sqrt5)/2, computed exactly.

    beta*b - a has the sign of b*sqrt5 - (2a - b).  Since sqrt5 is irrational
    the result is 0 only for (a, b) = (0, 0); integer norm profiles never sit
    on the golden line.
    """
    r = 2 * a - b
    if b == 0:
        return (r < 0) - (r > 0)
    lhs2, rhs2 = 5 * b * b, r * r
    if b > 0:
        if r <= 0:
            return 1
        return (lhs2 > rhs2) - (lhs2 < rhs2)
    if r >= 0:
        return -1
    return (rhs2 > lhs2) - (rhs2 < lhs2)


def golden_below(a: int, b: int) -> bool:
    """beta*b < a, exactly, by its own algebra (independent of golden_cmp).

    beta*b < a  <=>  b*sqrt5 < r with r = 2a - b: for b >= 0 that needs r > 0
    and 5b^2 < r^2; for b < 0 it holds when r >= 0 or 5b^2 > r^2.
    """
    r = 2 * a - b
    if b >= 0:
        return r > 0 and 5 * b * b < r * r
    return r >= 0 or 5 * b * b > r * r
