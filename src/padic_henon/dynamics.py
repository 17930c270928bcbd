"""The quadratic map f(x, y) = (xy + c, x) on Q_p^2, its inverse and its orbits.

Backward orbits are the object of study: f^(-1)(x, y) = (y, (x - c)/y), defined
as long as y != 0.  Coordinate sizes can double per backward step (norms grow
like p^(2^n) in escaping regions), so orbit computation takes a bit budget and
fails loudly instead of truncating.

Two engines compute orbits: exact rationals, and the certified residues of
`padics`.  Each yields its states' norm profiles to one loop, which records
them in one OrbitRecord and applies one verdict rule.  Orbit fates are
reported as finite-horizon verdicts, never as membership claims about the
backward Julia set: boundedness of an infinite orbit is not decidable from a
finite trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

from .fib import fib
from .padics import (
    DEFAULT_BIT_BUDGET,
    MAX_BIT_BUDGET,
    MAX_STEPS,
    PadicRational,
    Point,
    PrecisionExhaustedError,
    _inverse_y,
    _residue,
    _split,
    is_square,
    sqrt,
)
from .regions import classify

__all__ = [
    "UndefinedInverseError",
    "BitBudgetError",
    "Verdict",
    "OrbitRecord",
    "PrecisionExhaustedError",
    "forward",
    "inverse",
    "backward_orbit",
    "backward_profile_orbit",
    "forward_orbit",
    "fixed_points",
    "exact_fixed_points",
    "three_cycle",
    "default_escape_exponent",
    "DEFAULT_BIT_BUDGET",
    "MAX_BIT_BUDGET",
    "MAX_STEPS",
]

class UndefinedInverseError(ZeroDivisionError):
    """Backward step at a point with y = 0 (equivalently, the previous x equals c)."""


class BitBudgetError(RuntimeError):
    """Coordinate sizes exceeded the configured bit budget."""


def _check_budget(pt: Point, bit_budget) -> None:
    if bit_budget is not None and pt.bit_size() > bit_budget:
        raise BitBudgetError(f"point size {pt.bit_size()} bits exceeds budget {bit_budget}")


def forward(pt: Point, c: PadicRational, bit_budget=DEFAULT_BIT_BUDGET) -> Point:
    """f(x, y) = (xy + c, x), exactly."""
    image = Point(pt.x * pt.y + c, pt.x)
    _check_budget(image, bit_budget)
    return image


def inverse(pt: Point, c: PadicRational, bit_budget=DEFAULT_BIT_BUDGET) -> Point:
    """f^(-1)(x, y) = (y, (x - c)/y), exactly; raises UndefinedInverseError if y = 0."""
    if pt.y.is_zero:
        raise UndefinedInverseError("inverse undefined: y = 0")
    image = Point(pt.y, (pt.x - c) / pt.y)
    _check_budget(image, bit_budget)
    return image


@dataclass(frozen=True)
class Verdict:
    """Orbit fate: completed | escaped | undefined_inverse | budget_exceeded.

    `step` is the horizon for completed, the first step past the threshold for
    escaped, and the step that could not be computed otherwise.
    `norm_exponent` is the maximum exponent observed (completed) or the
    exponent that crossed the threshold (escaped).
    """

    kind: str
    step: int
    norm_exponent: int | None = None

    def to_json(self) -> dict:
        return {"kind": self.kind, "step": self.step, "norm_exponent": self.norm_exponent}


@dataclass
class OrbitRecord:
    """The trace of one orbit, from either engine.

    `profiles` holds one norm profile per recorded state, the start first.
    The exact engine keeps its states in `steps`, one Point per profile; the
    certified engine keeps none and sets `precision`, the digit count of the
    run that certified every profile.
    """

    direction: str
    steps: list | None = None
    precision: int | None = None
    profiles: list = field(default_factory=list)
    verdict: Verdict | None = None

    def to_json(self, d=None) -> dict:
        """The trace as JSON; given d = log_p|c|, each step carries its region."""
        out = {"direction": self.direction}
        if self.precision is not None:
            out["engine"] = "certified"
            out["precision"] = self.precision
        steps = []
        for n, (a, b) in enumerate(self.profiles):
            step = {"n": n}
            if self.steps is not None:
                step["x"] = self.steps[n].x.to_json()
                step["y"] = self.steps[n].y.to_json()
            step["a"] = a
            step["b"] = b
            step["region"] = None if d is None else str(classify((a, b), d))
            steps.append(step)
        out["steps"] = steps
        out["verdict"] = self.verdict.to_json()
        return out


def _trace(record: OrbitRecord, profiles, max_steps: int, escape_exponent):
    """The one verdict rule: record up to max_steps + 1 profiles.

    `profiles` yields the start's profile and then one per step, and raises
    UndefinedInverseError or BitBudgetError at a step it cannot compute.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    append = record.profiles.append
    seen_max = None
    n = 0
    try:
        for n, profile in zip(range(max_steps + 1), profiles):
            append(profile)
            a, b = profile
            m = b if a is None else a if b is None or a >= b else b
            if m is None:
                continue
            if escape_exponent is not None and m > escape_exponent:
                record.verdict = Verdict("escaped", n, m)
                return record
            if seen_max is None or m > seen_max:
                seen_max = m
    except UndefinedInverseError:
        record.verdict = Verdict("undefined_inverse", n + 1)
    except BitBudgetError:
        record.verdict = Verdict("budget_exceeded", n + 1)
    else:
        record.verdict = Verdict("completed", max_steps, seen_max)
    return record


def _exact_profiles(pt: Point, c: PadicRational, step_fn, bit_budget, keep):
    """The exact engine: the profiles of pt and of its images under step_fn,
    each state handed to `keep` before its profile is yielded."""
    while True:
        keep(pt)
        yield pt.profile()
        pt = step_fn(pt, c, bit_budget)


def backward_orbit(
    pt: Point,
    c: PadicRational,
    max_steps: int,
    escape_exponent=None,
    bit_budget=DEFAULT_BIT_BUDGET,
) -> OrbitRecord:
    """Iterate f^(-1) from pt, recording profiles until a verdict triggers.

    The escaped verdict fires as soon as max(a, b) exceeds escape_exponent
    (pass None to disable).  A completed verdict means only that the horizon
    was reached; the maximum observed exponent is attached as evidence.
    """
    record = OrbitRecord("backward", steps=[])
    profiles = _exact_profiles(pt, c, inverse, bit_budget, record.steps.append)
    return _trace(record, profiles, max_steps, escape_exponent)


def forward_orbit(
    pt: Point,
    c: PadicRational,
    max_steps: int,
    escape_exponent=None,
    bit_budget=DEFAULT_BIT_BUDGET,
) -> OrbitRecord:
    """Forward iteration utility."""
    record = OrbitRecord("forward", steps=[])
    profiles = _exact_profiles(pt, c, forward, bit_budget, record.steps.append)
    return _trace(record, profiles, max_steps, escape_exponent)


def default_escape_exponent(c: PadicRational) -> int:
    """Default escape threshold: 8 for |c| <= 1, widened by the regime scale above."""
    d = c.norm_exponent
    if d is None or d <= 0:
        return 8
    return 8 * d * fib(12)


# ---------------------------------------------------------------------------
# Certified fixed-precision orbits.
#
# Exact rationals are the default substrate, but a norm-bounded backward orbit
# still has coordinate heights growing like phi^n (the numerators of step 30
# of a typical bounded orbit already need ~10^5 bits), so horizons beyond ~30
# steps are not computable exactly.  The engine below runs the same recursion
# on the residues of `padics`.  Only a step on the column a = d, where x - c
# can cancel, calls `_inverse_y`; every other step's profile follows the
# ultrametric rule, so an orbit that never reaches the column builds no
# residue.  An orbit runs once, at the digits its caller names, and a
# cancellation that consumes them all raises PrecisionExhaustedError.
# ---------------------------------------------------------------------------


def _residue_profiles(pt: Point, c: PadicRational, digits: int):
    """The certified engine: the profiles of (x, y) and of their backward
    images; None marks an exact 0.

    Off the column a = d, |x - c| = max(|x|, |c|), so the next profile is
    (b, max(a, d) - b), and the profile starts exact.  The first step on a = d
    splits c and takes the start as residues x and y of `digits` digits.  Each
    step on a = d replays the `lag` steps the residues trail by, then takes the
    cancellation step, so every step that can exhaust the window runs at the
    digits and in the order of an engine that steps the residues every time."""
    p, d = c.prime, c.norm_exponent
    a, b = pt.profile()
    split, lag = None, 0
    while True:
        yield a, b
        if b is None:
            raise UndefinedInverseError("inverse undefined: y = 0")
        if a == d and a is not None:
            if split is None:
                split = _split(c)
                x, y = _residue(pt.x, digits), _residue(pt.y, digits)
            for _ in range(lag + 1):
                x, y = y, _inverse_y(x, y, split, p)
            lag = 0
            a, b = b, None if y is None else -y[0]
        else:
            lag += 1
            m = a if d is None or (a is not None and a > d) else d
            a, b = b, None if m is None else m - b


def backward_profile_orbit(
    pt: Point,
    c: PadicRational,
    max_steps: int,
    precision: int = 256,
    escape_exponent=None,
) -> OrbitRecord:
    """Backward orbit on certified fixed-precision values; exact in every valuation.

    Suited to long horizons over norm-bounded orbits, where exact rationals
    are infeasible.  Runs once, on residues of `precision` digits, and raises
    PrecisionExhaustedError when a cancellation consumes them all rather than
    ever reporting an uncertified norm.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    return _trace(OrbitRecord("backward", precision=precision),
                  _residue_profiles(pt, c, precision), max_steps, escape_exponent)


# ---------------------------------------------------------------------------
# Fixed points and the 3-cycle.
# ---------------------------------------------------------------------------


def exact_fixed_points(c: PadicRational):
    """Fixed points (a, a) with a^2 - a + c = 0, when computable in Q.

    Returns a list of Points ([] when 1 - 4c is not a square in Q_p at all),
    or None when fixed points exist in Q_p but are irrational over Q.
    """
    p = c.prime
    disc = 1 - 4 * c  # 1 - 4c = (2a - 1)^2
    if disc.is_zero:
        half = PadicRational(1, 2, p)
        return [Point(half, half)]
    if not is_square(disc):
        return []
    # A square in Q is (q/r)^2 in lowest terms, with roots (1 -+ q/r)/2.
    num, den = disc.numerator, disc.denominator
    q, r = isqrt(max(num, 0)), isqrt(den)
    if q * q != num or r * r != den:
        return None
    roots = (PadicRational(r - q, 2 * r, p), PadicRational(r + q, 2 * r, p))
    return [Point(x, x) for x in roots]


def fixed_points(c: PadicRational, precision: int):
    """Zero, one or two fixed points, with coordinates as certified residues
    (v, n, m, k), the type `sqrt` returns; `padics.digit_view` prints them.

    The two-root case takes the Hensel square root q of 1 - 4c as a residue
    and returns ((1 - q)/2, (1 - q)/2) and ((1 + q)/2, (1 + q)/2), in that
    order.  Both are steps (q - c)/y of the orbit engine's `_inverse_y`, whose y
    = -+2 carries all k_q + max(v_q, 0) digits of q - c, so a cancellation in
    1 - q is certified by the same rule, and one that consumes every digit
    raises PrecisionExhaustedError.
    """
    p = c.prime
    disc = 1 - 4 * c
    if disc.is_zero:
        half = _residue(PadicRational(1, 2, p), precision)
        return [(half, half)]
    if not is_square(disc):
        return []
    q = sqrt(disc, precision)
    k = q[3] + max(q[0], 0)
    # (q - 1)/-2 = (1 - q)/2, then (q + 1)/2
    roots = (_inverse_y(q, (0, two, 1, k), (0, one, 1), p) for one, two in ((1, -2), (-1, 2)))
    return [(alpha, alpha) for alpha in roots]


def three_cycle(c: PadicRational):
    """The exact 3-cycle through (-1, -1): ((-1,-1), (1+c,-1), (-1,1+c))."""
    minus_one = PadicRational(-1, 1, c.prime)
    rho = Point(minus_one, minus_one)
    one_plus_c = c + 1
    return (rho, Point(one_plus_c, minus_one), Point(minus_one, one_plus_c))


