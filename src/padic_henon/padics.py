"""Exact arithmetic in Q viewed inside Q_p, plus finite-precision p-adic expansions.

Everything dynamical in this package runs on exact rationals: the quadratic map
and its inverse preserve Q, so valuations and norms are computed with zero
rounding error.  Truncated digit expansions (`TruncatedPadic`) appear only
where irrationality forces them, i.e. square roots and the fixed points built
from them.

Norm convention: for x != 0 with p-adic valuation v = v_p(x), the norm is
|x|_p = p^(-v) and the *norm exponent* is a = -v, so |x|_p = p^a.  The norm
exponent of 0 is represented by ``None``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "PadicRational",
    "TruncatedPadic",
    "Point",
    "NonSquareError",
    "is_square",
    "sqrt",
    "sample_with_norm",
    "padic_valuation",
    "validate_odd_prime",
]


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_validated_primes: set[int] = set()


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 3.3e24, ample at desk scale)."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def validate_odd_prime(p: int) -> int:
    """Return p if it is an odd prime, else raise ValueError (p=2 is rejected)."""
    if p in _validated_primes:
        return p
    if not isinstance(p, int):
        raise ValueError(f"prime must be an integer, got {p!r}")
    if p < 3 or p % 2 == 0:
        raise ValueError(f"prime must be an odd prime >= 3, got {p}")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    _validated_primes.add(p)
    return p


def padic_valuation(n: int, p: int) -> int:
    """Exact exponent of p dividing the nonzero integer n (chunked, O(log v) bigint divisions)."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined (infinite)")
    n = abs(n)
    if n % p:
        return 0
    ladder = []
    q = p
    while n % q == 0:
        ladder.append(q)
        q *= q
    v = 0
    for i in range(len(ladder) - 1, -1, -1):
        q = ladder[i]
        if n % q == 0:
            n //= q
            v += 1 << i
    return v


class PadicRational:
    """An exact rational number tagged with an odd prime, viewed as an element of Q_p.

    Stored in lowest terms with positive denominator (delegated to
    ``fractions.Fraction``).  Arithmetic is exact field arithmetic; the prime
    tag only drives valuations, norms and digit expansions.

    The valuation is cached in ``_v``: ``valuation`` fills it on first use,
    and ``_with_valuation`` sets it when the value is built with a known
    valuation (as ``sample_with_norm`` does).  Every arithmetic result is a
    new object with an empty cache, so no result inherits a stale valuation.
    """

    __slots__ = ("prime", "_f", "_v")

    def __init__(self, num, den=1, prime=None):
        if prime is None:
            raise ValueError("prime is required")
        self.prime = validate_odd_prime(prime)
        self._v = None
        if isinstance(num, Fraction) and den == 1:
            self._f = num
        else:
            if den == 0:
                raise ZeroDivisionError("zero denominator")
            self._f = Fraction(num, den)

    @classmethod
    def _with_valuation(cls, f: Fraction, prime: int, v: int) -> "PadicRational":
        """The nonzero value f, with prime already validated and v = v_p(f) known."""
        x = cls.__new__(cls)
        x.prime, x._f, x._v = prime, f, v
        return x

    @classmethod
    def from_fraction(cls, f: Fraction, prime: int) -> "PadicRational":
        return cls(f, 1, prime)

    # -- basic structure ---------------------------------------------------

    @property
    def numerator(self) -> int:
        return self._f.numerator

    @property
    def denominator(self) -> int:
        return self._f.denominator

    @property
    def is_zero(self) -> bool:
        return self._f == 0

    def as_fraction(self) -> Fraction:
        return self._f

    @property
    def valuation(self):
        """v_p(x) as an int, or None for x = 0; computed once, then cached."""
        v = self._v
        if v is None and self._f:
            v = self._v = padic_valuation(self._f.numerator, self.prime) - padic_valuation(
                self._f.denominator, self.prime
            )
        return v

    @property
    def norm_exponent(self):
        """a with |x|_p = p^a, or None for x = 0."""
        v = self.valuation
        return None if v is None else -v

    def unit_part(self) -> Fraction:
        """x / p^v_p(x), a p-adic unit, as an exact rational (x != 0)."""
        v = self.valuation
        if v is None:
            raise ValueError("0 has no unit part")
        return self._f / Fraction(self.prime) ** v

    def bit_size(self) -> int:
        return self._f.numerator.bit_length() + self._f.denominator.bit_length()

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicRational):
            if other.prime != self.prime:
                raise ValueError(f"prime mismatch: {self.prime} vs {other.prime}")
            return other._f
        if isinstance(other, (int, Fraction)):
            return Fraction(other)
        return NotImplemented

    def __add__(self, other):
        f = self._coerce(other)
        if f is NotImplemented:
            return NotImplemented
        return PadicRational(self._f + f, 1, self.prime)

    __radd__ = __add__

    def __sub__(self, other):
        f = self._coerce(other)
        if f is NotImplemented:
            return NotImplemented
        return PadicRational(self._f - f, 1, self.prime)

    def __rsub__(self, other):
        f = self._coerce(other)
        if f is NotImplemented:
            return NotImplemented
        return PadicRational(f - self._f, 1, self.prime)

    def __mul__(self, other):
        f = self._coerce(other)
        if f is NotImplemented:
            return NotImplemented
        return PadicRational(self._f * f, 1, self.prime)

    __rmul__ = __mul__

    def __truediv__(self, other):
        f = self._coerce(other)
        if f is NotImplemented:
            return NotImplemented
        if f == 0:
            raise ZeroDivisionError("division by zero")
        return PadicRational(self._f / f, 1, self.prime)

    def __rtruediv__(self, other):
        f = self._coerce(other)
        if f is NotImplemented:
            return NotImplemented
        if self._f == 0:
            raise ZeroDivisionError("division by zero")
        return PadicRational(f / self._f, 1, self.prime)

    def __neg__(self):
        return PadicRational(-self._f, 1, self.prime)

    def __eq__(self, other):
        if isinstance(other, PadicRational):
            return self.prime == other.prime and self._f == other._f
        if isinstance(other, (int, Fraction)):
            return self._f == other
        return NotImplemented

    def __hash__(self):
        return hash((self.prime, self._f))

    def __repr__(self):
        return f"PadicRational({self._f.numerator}, {self._f.denominator}, prime={self.prime})"

    def __str__(self):
        return f"{self._f}"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"num": str(self._f.numerator), "den": str(self._f.denominator), "p": self.prime}

    @classmethod
    def from_json(cls, obj: dict) -> "PadicRational":
        return cls(int(obj["num"]), int(obj["den"]), int(obj["p"]))

    def expand(self, precision: int) -> "TruncatedPadic":
        """Digit expansion of this value to `precision` significant p-adic digits."""
        return TruncatedPadic.from_rational(self, precision)


@dataclass(frozen=True)
class Point:
    """A point of Q_p^2; both coordinates carry the same prime."""

    x: PadicRational
    y: PadicRational

    def __post_init__(self):
        if self.x.prime != self.y.prime:
            raise ValueError("coordinates must share one prime")

    @property
    def prime(self) -> int:
        return self.x.prime

    def profile(self):
        """(norm exponent of x, norm exponent of y); None marks a zero coordinate."""
        return (self.x.norm_exponent, self.y.norm_exponent)

    def bit_size(self) -> int:
        return self.x.bit_size() + self.y.bit_size()

    def to_json(self) -> dict:
        return {"x": self.x.to_json(), "y": self.y.to_json()}

    def __str__(self):
        return f"({self.x}, {self.y})"


# -- squares and square roots ----------------------------------------------


class NonSquareError(ValueError):
    """Raised when a square root is requested of a non-square; `.reason` names the obstruction."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason  # "odd-valuation" or "non-residue"


def _legendre(a: int, p: int) -> int:
    ls = pow(a % p, (p - 1) // 2, p)
    return -1 if ls == p - 1 else ls


def _tonelli_shanks(n: int, p: int) -> int:
    """A square root of n modulo the odd prime p; n must be a nonzero residue."""
    n %= p
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def is_square(x: PadicRational) -> bool:
    """True iff x is a square in Q_p: even valuation and residue unit part.

    x = 0 counts as a square (of 0), a degenerate case.
    """
    if x.is_zero:
        return True
    v = x.valuation
    if v % 2:
        return False
    u = x.unit_part()
    p = x.prime
    u_mod_p = u.numerator * pow(u.denominator, -1, p) % p
    return _legendre(u_mod_p, p) == 1


def sqrt(x: PadicRational, precision: int) -> "TruncatedPadic":
    """Hensel square root of x in Q_p, truncated to `precision` digits.

    Lifts a root mod p by Newton iteration with doubling modulus.  Of the two
    roots, returns the one whose leading digit lies in {1, ..., (p-1)/2}; the
    other root is its negation.

    Raises NonSquareError naming the obstruction (odd valuation of x, or a
    non-residue unit part).
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    p = x.prime
    if x.is_zero:
        return TruncatedPadic.zero(p)
    v = x.valuation
    if v % 2:
        raise NonSquareError(f"odd valuation v_p = {v}", reason="odd-valuation")
    u = x.unit_part()
    u0 = u.numerator * pow(u.denominator, -1, p) % p
    if _legendre(u0, p) != 1:
        raise NonSquareError(f"unit part is a non-residue mod {p}", reason="non-residue")

    r = _tonelli_shanks(u0, p)
    inv2 = pow(2, -1, p)
    mod, k = p, 1
    while k < precision:
        k = min(2 * k, precision)
        mod = p**k
        u_mod = u.numerator * pow(u.denominator, -1, mod) % mod
        # Newton step r <- (r + u/r)/2 lifts r^2 = u to the doubled modulus.
        inv2 = pow(2, -1, mod)
        r = (r + u_mod * pow(r, -1, mod)) * inv2 % mod
    if r % p > (p - 1) // 2:
        r = mod - r
    return TruncatedPadic(p, v // 2, _digits_of(r, p, precision))


def _digits_of(u: int, p: int, n: int) -> tuple:
    digits = []
    for _ in range(n):
        u, dig = divmod(u, p)
        digits.append(dig)
    return tuple(digits)


class TruncatedPadic:
    """A finite-precision p-adic expansion p^val * (d0 + d1 p + d2 p^2 + ...).

    The leading digit d0 is nonzero except for the distinguished zero element
    (valuation None, no digits).  The value is known modulo p^(val + len(digits)).

    Two expansions compare equal iff their valuations match and their digits
    agree on the overlap of the two precisions.
    """

    __slots__ = ("prime", "valuation", "digits")

    def __init__(self, prime: int, valuation, digits):
        self.prime = validate_odd_prime(prime)
        digits = tuple(int(d) for d in digits)
        if valuation is None:
            if digits:
                raise ValueError("zero element carries no digits")
        else:
            if not digits or digits[0] == 0:
                raise ValueError("leading digit must be nonzero")
            if any(d < 0 or d >= prime for d in digits):
                raise ValueError(f"digits must lie in [0, {prime})")
        self.valuation = valuation
        self.digits = digits

    @classmethod
    def zero(cls, prime: int) -> "TruncatedPadic":
        return cls(prime, None, ())

    @classmethod
    def from_rational(cls, x: PadicRational, precision: int) -> "TruncatedPadic":
        if precision < 1:
            raise ValueError("precision must be >= 1")
        if x.is_zero:
            return cls.zero(x.prime)
        p = x.prime
        v = x.valuation
        u = x.unit_part()
        mod = p**precision
        u_mod = u.numerator * pow(u.denominator, -1, mod) % mod
        return cls(p, v, _digits_of(u_mod, p, precision))

    @property
    def is_zero(self) -> bool:
        return self.valuation is None

    @property
    def precision(self) -> int:
        return len(self.digits)

    @property
    def abs_precision(self):
        """The value is known modulo p^abs_precision (None for the zero element)."""
        if self.valuation is None:
            return None
        return self.valuation + len(self.digits)

    @property
    def norm_exponent(self):
        return None if self.valuation is None else -self.valuation

    def as_rational(self) -> PadicRational:
        """The exact rational represented by the truncation itself."""
        if self.is_zero:
            return PadicRational(0, 1, self.prime)
        p = self.prime
        u = sum(d * p**i for i, d in enumerate(self.digits))
        return PadicRational(Fraction(u) * Fraction(p) ** self.valuation, 1, self.prime)

    # Arithmetic with exact rationals: compute exactly on the truncation's
    # rational value, then re-truncate at the propagated absolute precision.

    def _retruncate(self, value: Fraction, abs_prec: int) -> "TruncatedPadic":
        if value == 0:
            return TruncatedPadic.zero(self.prime)
        x = PadicRational(value, 1, self.prime)
        v = x.valuation
        digits = abs_prec - v
        if digits < 1:
            # Nothing is known about the result at this precision.
            raise ValueError("result below available precision")
        return TruncatedPadic.from_rational(x, digits)

    def add_rational(self, r: PadicRational) -> "TruncatedPadic":
        if r.prime != self.prime:
            raise ValueError("prime mismatch")
        if self.is_zero:
            raise ValueError("zero truncation has unlimited precision loss; expand r directly")
        return self._retruncate(self.as_rational().as_fraction() + r.as_fraction(), self.abs_precision)

    def mul_rational(self, r: PadicRational) -> "TruncatedPadic":
        if r.prime != self.prime:
            raise ValueError("prime mismatch")
        if self.is_zero or r.is_zero:
            return TruncatedPadic.zero(self.prime)
        return self._retruncate(
            self.as_rational().as_fraction() * r.as_fraction(),
            self.abs_precision + r.valuation,
        )

    def __neg__(self):
        if self.is_zero:
            return self
        return self._retruncate(-self.as_rational().as_fraction(), self.abs_precision)

    def square(self) -> "TruncatedPadic":
        if self.is_zero:
            return self
        f = self.as_rational().as_fraction()
        return self._retruncate(f * f, self.abs_precision + self.valuation)

    def __eq__(self, other):
        if not isinstance(other, TruncatedPadic):
            return NotImplemented
        if self.prime != other.prime or self.valuation != other.valuation:
            return False
        k = min(len(self.digits), len(other.digits))
        return self.digits[:k] == other.digits[:k]

    __hash__ = None

    def to_json(self) -> dict:
        return {"p": self.prime, "val": self.valuation, "digits": list(self.digits)}

    @classmethod
    def from_json(cls, obj: dict) -> "TruncatedPadic":
        return cls(int(obj["p"]), obj["val"], obj["digits"])

    def __repr__(self):
        if self.is_zero:
            return f"TruncatedPadic(0, prime={self.prime})"
        return f"TruncatedPadic({self.prime}, val={self.valuation}, digits={list(self.digits)})"

    def __str__(self):
        if self.is_zero:
            return "0"
        body = " ".join(str(d) for d in self.digits)
        return f"({body})*{self.prime}^{self.valuation}"


def sample_with_norm(a: int, digit_count: int, rng: random.Random, p: int) -> PadicRational:
    """Draw x = u * p^(-a) with u a uniform unit of digit_count digits, so |x|_p = p^a exactly.

    Built from integers, (u p^(-a), 1) for a <= 0 and (u, p^a) for a > 0,
    both in lowest terms since p does not divide u, with the valuation -a
    cached.  Deterministic for a fixed `rng` state; each concurrent worker
    should own its own Random instance.
    """
    if digit_count < 1:
        raise ValueError("digit_count must be >= 1")
    validate_odd_prime(p)
    bound = p**digit_count
    u = rng.randrange(1, bound)
    while u % p == 0:
        u = rng.randrange(1, bound)
    f = Fraction(u * p ** (-a)) if a <= 0 else Fraction(u, p**a)
    return PadicRational._with_valuation(f, p, -a)
