"""Exact arithmetic in Q viewed inside Q_p, plus certified finite-precision residues.

Everything dynamical in this package runs on exact rationals: the quadratic map
and its inverse preserve Q, so valuations and norms are computed with zero
rounding error.  `PadicRational` keeps each one as a bare pair of integers in
lowest terms, so an exact backward step costs a few integer products and gcds
and builds no ``fractions.Fraction``.  Where exact rationals are infeasible
(long certified orbits) or impossible (square roots and the fixed points built
from them), values are residues (v, n, m, k): p^v * n/m with n and m p-adic
units known modulo p^k.  This is the package's only finite-precision
arithmetic: its one step `_inverse_y` computes (x - c)/y, for the backward
orbits and the fixed points alike, and every valuation it reports is
certified.  `digit_view` spells a residue out in base-p digits for output.

Norm convention: for x != 0 with p-adic valuation v = v_p(x), the norm is
|x|_p = p^(-v) and the *norm exponent* is a = -v, so |x|_p = p^a.  The norm
exponent of 0 is represented by ``None``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

__all__ = [
    "PadicRational",
    "digit_view",
    "Point",
    "NonSquareError",
    "PrecisionExhaustedError",
    "is_square",
    "sqrt",
    "sample_with_norm",
    "padic_valuation",
    "validate_odd_prime",
    "parse_rational",
]

# Bounds that the CLI's options read when it is imported.  They live here, in
# the module every command loads, so that `cli` reads them without loading
# `dynamics` or `verifier`, which enforce them and import them from here.
DEFAULT_BIT_BUDGET = 1_000_000
# The largest bit budget `orbit` accepts: 60 steps of an escaping orbit at p = 5
# took 36 s under it, and a budget of 10^12 had not finished in 40 s.
MAX_BIT_BUDGET = 10_000_000
# The longest horizon the CLI and a campaign accept.  A record keeps every
# step: `orbit` peaked at 92 MB for 20,000 steps of the exact 3-cycle.
MAX_STEPS = 100_000
# The largest window a spec may ask for: a sampled region expands all of its
# cells, about W² of them, so memory grows with the square of the window.
_MAX_WINDOW = 1000
# The most samples a spec may ask for: a report keeps every failure, about
# 1.3 KB each.  80,000 failing samples peaked at 121 MB, and 100,000 at 148 MB.
_MAX_SAMPLES = 100_000


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to every base above (Sorenson and Webster,
# Math. Comp. 86, 2017): Miller-Rabin on them is exact below it.
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
_validated_primes: set[int] = set()


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for 2 < n < _MR_EXACT_BELOW."""
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
    """Return p if it is an odd prime below _MR_EXACT_BELOW, else raise ValueError."""
    if not isinstance(p, int):
        raise ValueError(f"prime must be an integer, got {p!r}")
    if p in _validated_primes:
        return p
    if p < 3 or p % 2 == 0:
        raise ValueError(f"prime must be an odd prime >= 3, got {p}")
    if p >= _MR_EXACT_BELOW:
        raise ValueError(f"prime must be below {_MR_EXACT_BELOW}, the exact test's bound, got {p}")
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


def _decimal(n: int) -> str:
    """str(n) at any size: Python prints at most sys.get_int_max_str_digits()
    digits at once (640 at the least), so a longer n goes in two halves."""
    if n.bit_length() <= 2000:  # at most 603 digits
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of its digits
    hi, lo = divmod(abs(n), 10**k)
    return "-" * (n < 0) + _decimal(hi) + _decimal(lo).zfill(k)


def _from_decimal(text) -> int:
    """int(text) at any length; the inverse of _decimal."""
    digits = text.removeprefix("-") if type(text) is str else ""
    if len(digits) <= 600 or not (digits.isascii() and digits.isdigit()):
        return int(text)
    k = len(digits) // 2
    n = _from_decimal(digits[:-k]) * 10**k + _from_decimal(digits[-k:])
    return -n if text[0] == "-" else n


class PadicRational:
    """An exact rational number tagged with an odd prime, viewed as an element of Q_p.

    Stored as the two integers ``numerator`` and ``denominator``, in lowest
    terms with a positive denominator.  Arithmetic is exact field arithmetic
    on that pair, with Henrici's gcd steps (Knuth, TAOCP vol. 2, 4.5.1) that
    keep results in lowest terms without reducing a full product.  Keeping
    the bare integers rather than a ``fractions.Fraction`` saves a layer of
    pure-Python calls and objects on every exact backward step; `as_fraction`
    builds a Fraction on demand.  ``int`` and ``Fraction`` operands are
    accepted.  The prime tag only drives valuations, norms and digit
    expansions.

    The valuation is cached in ``_v``: ``valuation`` fills it on first use,
    and ``_rational`` sets it when the value is built with a known
    valuation (as ``sample_with_norm`` does).  An arithmetic result fills its
    cache only where its operands' cached valuations decide it: the sum of
    the two for ``*``, their difference for ``/``, the smaller one for ``+``
    and ``-`` when the two differ (the ultrametric inequality is then an
    equality), and the operand's own for unary minus.  Equal valuations can
    cancel, and an ``int`` or ``Fraction`` operand carries no cache, so those
    results start empty and ``valuation`` computes theirs.
    """

    __slots__ = ("prime", "numerator", "denominator", "_v")

    def __init__(self, num, den=1, prime=None):
        if prime is None:
            raise ValueError("prime is required")
        self.prime = validate_odd_prime(prime)
        self._v = None
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if type(num) is int and type(den) is int:
            if den < 0:
                num, den = -num, -den
            g = gcd(num, den)
            if g != 1:
                num, den = num // g, den // g
        else:  # a Fraction or another Rational: let Fraction reduce it
            f = Fraction(num, den)
            num, den = f.numerator, f.denominator
        self.numerator, self.denominator = num, den

    # -- basic structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.numerator

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    @property
    def valuation(self):
        """v_p(x) as an int, or None for x = 0; computed once, then cached."""
        v = self._v
        if v is None and self.numerator:
            v = self._v = padic_valuation(self.numerator, self.prime) - padic_valuation(
                self.denominator, self.prime
            )
        return v

    @property
    def norm_exponent(self):
        """a with |x|_p = p^a, or None for x = 0."""
        v = self.valuation
        return None if v is None else -v

    def bit_size(self) -> int:
        return self.numerator.bit_length() + self.denominator.bit_length()

    # -- arithmetic --------------------------------------------------------

    def _pair(self, other):
        """other as (numerator, denominator, cached valuation) with the pair in
        lowest terms, or NotImplemented; an int or Fraction caches none."""
        if isinstance(other, PadicRational):
            if other.prime != self.prime:
                raise ValueError(f"prime mismatch: {self.prime} vs {other.prime}")
            return other.numerator, other.denominator, other._v
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return other.numerator, other.denominator, None

    def __add__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        c, d, w = pair
        return _sum(self.prime, self.numerator, self.denominator, c, d, _min_v(self._v, w))

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        c, d, w = pair
        return _sum(self.prime, self.numerator, self.denominator, -c, d, _min_v(self._v, w))

    def __rsub__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        return _sum(self.prime, -self.numerator, self.denominator, *pair[:2])

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        c, d, w = pair
        v = self._v
        return _product(self.prime, self.numerator, self.denominator, c, d,
                        None if v is None or w is None else v + w)

    __rmul__ = __mul__

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        c, d, w = pair
        if not c:
            raise ZeroDivisionError("division by zero")
        if c < 0:
            c, d = -c, -d
        v = self._v
        return _product(self.prime, self.numerator, self.denominator, d, c,
                        None if v is None or w is None else v - w)

    def __rtruediv__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = self.numerator, self.denominator
        if not a:
            raise ZeroDivisionError("division by zero")
        if a < 0:
            a, b = -a, -b
        return _product(self.prime, *pair[:2], b, a)

    def __neg__(self):
        return _rational(-self.numerator, self.denominator, self.prime, self._v)

    def __eq__(self, other):
        if isinstance(other, PadicRational):
            if self.prime != other.prime:
                return False
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.numerator == other.numerator and self.denominator == other.denominator

    def __hash__(self):
        # The hash of the rational value, as int and Fraction hash it, so that
        # x == 2 or x == Fraction(1, 2) implies equal hashes.
        if self.denominator == 1:
            return hash(self.numerator)
        return hash(self.as_fraction())

    def __repr__(self):
        num, den = _decimal(self.numerator), _decimal(self.denominator)
        return f"PadicRational({num}, {den}, prime={self.prime})"

    def __str__(self):
        num, den = self.numerator, self.denominator
        return _decimal(num) if den == 1 else f"{_decimal(num)}/{_decimal(den)}"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"num": _decimal(self.numerator), "den": _decimal(self.denominator),
                "p": self.prime}

    @classmethod
    def from_json(cls, obj: dict) -> "PadicRational":
        return cls(_from_decimal(obj["num"]), _from_decimal(obj["den"]), int(obj["p"]))


def parse_rational(text: str, p: int) -> PadicRational:
    """Parse 'num/den' (or 'num') into an exact rational; no floating point anywhere."""
    text = text.strip()
    if "/" in text:
        num_s, den_s = text.split("/", 1)
        return PadicRational(int(num_s), int(den_s), p)
    return PadicRational(int(text), 1, p)


_new = object.__new__


def _rational(num: int, den: int, prime: int, v=None) -> PadicRational:
    """num/den, already in lowest terms with den > 0, at a validated prime;
    v is v_p(num/den) when it is known, else None."""
    x = _new(PadicRational)
    x.prime = prime
    x.numerator = num
    x.denominator = den
    x._v = v
    return x


def _min_v(v, w):
    """v_p(x ± y) from v = v_p(x) and w = v_p(y) when they decide it, else None:
    the smaller of two different valuations; equal ones can cancel."""
    if v is None or w is None or v == w:
        return None
    return v if v < w else w


def _sum(prime: int, a: int, b: int, c: int, d: int, v=None) -> PadicRational:
    """a/b + c/d in lowest terms, for reduced fractions with b, d > 0; v is its
    valuation when known."""
    g = gcd(b, d)
    if g == 1:
        return _rational(a * d + b * c, b * d, prime, v)
    s = b // g
    t = a * (d // g) + c * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _rational(t, s * d, prime, v)
    return _rational(t // g2, s * (d // g2), prime, v)


def _product(prime: int, a: int, b: int, c: int, d: int, v=None) -> PadicRational:
    """(a/b) * (c/d) in lowest terms, for reduced fractions with b, d > 0; v is
    its valuation when known."""
    g1 = gcd(a, d)
    if g1 > 1:
        a, d = a // g1, d // g1
    g2 = gcd(c, b)
    if g2 > 1:
        c, b = c // g2, b // g2
    return _rational(a * c, b * d, prime, v)


@dataclass(frozen=True)
class Point:
    """A point of Q_p^2; both coordinates carry the same prime."""

    x: PadicRational
    y: PadicRational

    def __post_init__(self):
        if self.x.prime != self.y.prime:
            raise ValueError("coordinates must share one prime")

    def profile(self):
        """(norm exponent of x, norm exponent of y); None marks a zero coordinate."""
        return (self.x.norm_exponent, self.y.norm_exponent)

    def bit_size(self) -> int:
        return self.x.bit_size() + self.y.bit_size()

    def to_json(self) -> dict:
        return {"x": self.x.to_json(), "y": self.y.to_json()}

    def __str__(self):
        return f"({self.x}, {self.y})"


# -- certified residues ------------------------------------------------------
#
# A residue (v, n, m, k) is the value p^v * n/m, with n and m p-adic units
# known modulo p^k; None stands for 0.  Numerator and denominator are kept
# apart, so no operation computes a modular inverse.  An exact value such as c
# enters as the integers (v_c, c_num, c_den) of p^v_c * c_num/c_den.  The one
# arithmetic step is `_inverse_y`, (x - c)/y, the second coordinate of the
# backward map.  Every valuation is certified exact as long as the leading
# digit stays inside the known window, and the step raises
# PrecisionExhaustedError the moment it would not.


class PrecisionExhaustedError(RuntimeError):
    """A cancellation consumed the entire certified digit window."""


def _split(x: PadicRational):
    """(v, num, den) with x = p^v * num/den and num, den prime to p; None for 0."""
    if x.is_zero:
        return None
    v = x.valuation
    p = x.prime
    if v >= 0:
        return v, x.numerator // p**v, x.denominator
    return v, x.numerator, x.denominator // p**-v


def _residue(x: PadicRational, k: int):
    """x as a residue (v, n, m, k), or None for x = 0; k must be at least 1."""
    if k < 1:
        raise ValueError("precision must be >= 1")
    split = _split(x)
    if split is None:
        return None
    v, num, den = split
    mod = x.prime**k
    return v, num % mod, den % mod, k


def _inverse_y(x, y, c, p: int):
    """(x - c)/y for residues x and y != None and c = (v_c, c_num, c_den) exact,
    or None for 0.  The quotient keeps min(k_t, k_y) digits, k_t being those of
    x - c, and the cross products need no inverse.  When v_x != v_c one term is
    a unit at the lower valuation and the other is divisible by p, so x - c has
    that valuation and is computed to k_y digits only: the result is the uncapped
    one reduced to them, and a power of p at or above the window is 0, never
    built.  When v_x = v_c the digits can cancel, so the whole window is kept,
    and a difference with no digit left raises PrecisionExhaustedError.
    """
    vy, ny, my, ky = y
    if x is None or c is None:  # x - c is -c or x: no digit can cancel
        if x is None:
            if c is None:
                return None
            x = c[0], -c[1], c[2], ky
        v, n, m, k = x
        k = k if k < ky else ky
        mod = p**k
        return v - vy, n * my % mod, m * ny % mod, k
    (vx, nx, mx, n), (vc, c_num, c_den) = x, c  # x - c is known mod p^n at valuation lo
    a, b = nx * c_den, c_num * mx  # x and c over the denominator mx * c_den
    e = vx - vc
    lo = vc if e > 0 else vx
    if e > 0:
        n = n + e if n + e < ky else ky
        a = a * p**e if e < n else 0
    elif e:
        n = n if n < ky else ky
        b = b * p**-e if -e < n else 0
    mod = p**n
    s = (a - b) % mod
    if not s:
        raise PrecisionExhaustedError(f"cancellation below p^{n} at valuation {lo}; "
                                      "raise the precision")
    w = 0 if s % p else padic_valuation(s, p)
    k = n - w if n - w < ky else ky
    if k != n:
        mod = p**k
        s //= p**w
    return lo + w - vy, s * my % mod, mx * c_den * ny % mod, k


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
    try:
        sqrt(x, 1)
    except NonSquareError:
        return False
    return True


def sqrt(x: PadicRational, precision: int):
    """Hensel square root of x in Q_p as a residue (v/2, r, 1, precision); None for x = 0.

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
        return None
    v, num, den = _split(x)
    if v % 2:
        raise NonSquareError(f"odd valuation v_p = {v}", reason="odd-valuation")
    u0 = num * pow(den, -1, p) % p
    if _legendre(u0, p) != 1:
        raise NonSquareError(f"unit part is a non-residue mod {p}", reason="non-residue")

    r = _tonelli_shanks(u0, p)
    mod, k = p, 1
    while k < precision:
        k = min(2 * k, precision)
        mod = p**k
        u_mod = num * pow(den, -1, mod) % mod
        # Newton step r <- (r + u/r)/2 lifts r^2 = u to the doubled modulus.
        inv2 = pow(2, -1, mod)
        r = (r + u_mod * pow(r, -1, mod)) * inv2 % mod
    if r % p > (p - 1) // 2:
        r = mod - r
    return v // 2, r, 1, precision


def _digits(u: int, p: int, k: int) -> list:
    """The k base-p digits of 0 <= u < p^k, least significant first.

    Divide and conquer: one split at p^(k//2) halves the problem, so the
    work is that of a few full-size divisions; ``divmod`` digit by digit
    takes over below 64 digits.  The direct u // p^i % p for each i costs
    a full-size division per digit.
    """
    if k <= 64:
        digits = []
        for _ in range(k):
            u, d = divmod(u, p)
            digits.append(d)
        return digits
    high, low = divmod(u, p ** (k // 2))
    return _digits(low, p, k // 2) + _digits(high, p, k - k // 2)


def digit_view(r, p: int) -> dict:
    """The residue r = (v, n, m, k) as p^v * (d0 + d1 p + ... + d_(k-1) p^(k-1)),
    for output: {"p": p, "val": v, "digits": [d0, ..., d_(k-1)]}, with d0 nonzero.
    The zero residue None gives "val": None and no digits."""
    validate_odd_prime(p)
    if r is None:
        return {"p": p, "val": None, "digits": []}
    v, n, m, k = r
    mod = p**k
    return {"p": p, "val": v, "digits": _digits(n * pow(m, -1, mod) % mod, p, k)}


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
    return _with_norm(a, p, rng.getrandbits, p**digit_count - 1)


def _with_norm(a: int, p: int, getrandbits, width: int) -> PadicRational:
    """`sample_with_norm` for checked inputs and width = p^digit_count - 1;
    `getrandbits` is the rng's bound method.

    The unit is ``rng.randrange(1, width + 1)``, redrawn until p does not
    divide it, read from the same stream: CPython's randrange(1, B) is
    1 + _randbelow(B - 1), which draws getrandbits(k), k the bit length of
    B - 1, until the value is below B - 1.  Drawing the bits here skips
    randrange's argument checks and Python frames for every unit.
    """
    k = width.bit_length()
    u = getrandbits(k)
    while u >= width or not (u + 1) % p:
        u = getrandbits(k)
    u += 1
    if a <= 0:
        return _rational(u * p**-a, 1, p, -a)
    return _rational(u, p**a, p, -a)
