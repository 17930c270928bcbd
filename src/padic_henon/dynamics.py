"""The quadratic map f(x, y) = (xy + c, x) on Q_p^2, its inverse and its orbits.

Backward orbits are the object of study: f^(-1)(x, y) = (y, (x - c)/y), defined
as long as y != 0.  Coordinate sizes can double per backward step (norms grow
like p^(2^n) in escaping regions), so orbit computation takes a bit budget and
fails loudly instead of truncating.

Orbit fates are reported as finite-horizon verdicts, never as membership
claims about the backward Julia set: boundedness of an infinite orbit is not
decidable from a finite trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .fib import fib
from .padics import (
    PadicRational,
    Point,
    PrecisionExhaustedError,
    TruncatedPadic,
    _div,
    _residue,
    _split,
    _sub_c,
    is_square,
    sqrt,
)
from .regions import Regime, RegionLabel, classify

__all__ = [
    "MapParams",
    "UndefinedInverseError",
    "BitBudgetError",
    "OrbitStep",
    "Verdict",
    "OrbitRecord",
    "ProfileOrbitRecord",
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
]

DEFAULT_BIT_BUDGET = 1_000_000


class UndefinedInverseError(ZeroDivisionError):
    """Backward step at a point with y = 0 (equivalently, the previous x equals c)."""


class BitBudgetError(RuntimeError):
    """Coordinate sizes exceeded the configured bit budget."""


@dataclass(frozen=True)
class MapParams:
    """The parameter c together with its derived regime data."""

    c: PadicRational

    @property
    def prime(self) -> int:
        return self.c.prime

    @property
    def d(self):
        """log_p|c|, or None for the degenerate c = 0."""
        return self.c.norm_exponent

    @property
    def degenerate(self) -> bool:
        return self.c.is_zero

    @property
    def regime(self) -> Regime:
        # c = 0 sits under SMALL (|c| < 1) but has no region partition.
        if self.c.is_zero:
            return Regime.SMALL
        d = self.d
        if d < 0:
            return Regime.SMALL
        return Regime.UNIT if d == 0 else Regime.LARGE


def _check_budget(pt: Point, bit_budget) -> None:
    if bit_budget is not None and pt.bit_size() > bit_budget:
        raise BitBudgetError(f"point size {pt.bit_size()} bits exceeds budget {bit_budget}")


def forward(pt: Point, params: MapParams, bit_budget=DEFAULT_BIT_BUDGET) -> Point:
    """f(x, y) = (xy + c, x), exactly."""
    image = Point(pt.x * pt.y + params.c, pt.x)
    _check_budget(image, bit_budget)
    return image


def inverse(pt: Point, params: MapParams, bit_budget=DEFAULT_BIT_BUDGET) -> Point:
    """f^(-1)(x, y) = (y, (x - c)/y), exactly; raises UndefinedInverseError if y = 0."""
    if pt.y.is_zero:
        raise UndefinedInverseError("inverse undefined: y = 0")
    image = Point(pt.y, (pt.x - params.c) / pt.y)
    _check_budget(image, bit_budget)
    return image


@dataclass(frozen=True)
class OrbitStep:
    n: int
    point: Point
    profile: tuple
    region: RegionLabel | None = None

    def to_json(self) -> dict:
        a, b = self.profile
        return {
            "n": self.n,
            "x": self.point.x.to_json(),
            "y": self.point.y.to_json(),
            "a": a,
            "b": b,
            "region": str(self.region) if self.region is not None else None,
        }


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
    direction: str
    steps: list = field(default_factory=list)
    verdict: Verdict | None = None

    def profiles(self) -> list:
        return [s.profile for s in self.steps]

    def to_json(self) -> dict:
        return {
            "direction": self.direction,
            "steps": [s.to_json() for s in self.steps],
            "verdict": self.verdict.to_json() if self.verdict else None,
        }


def _max_exponent(profile) -> int | None:
    vals = [v for v in profile if v is not None]
    return max(vals) if vals else None


def _run_orbit(
    pt: Point,
    params: MapParams,
    max_steps: int,
    escape_exponent,
    bit_budget,
    label_regions: bool,
    step_fn,
    direction: str,
) -> OrbitRecord:
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    d = params.d
    record = OrbitRecord(direction=direction)
    seen_max = None

    def push(n, point) -> bool:
        nonlocal seen_max
        profile = point.profile()
        region = classify(profile, d) if (label_regions and d is not None) else None
        record.steps.append(OrbitStep(n, point, profile, region))
        m = _max_exponent(profile)
        if m is not None and (seen_max is None or m > seen_max):
            seen_max = m
        if escape_exponent is not None and m is not None and m > escape_exponent:
            record.verdict = Verdict("escaped", n, m)
            return True
        return False

    if push(0, pt):
        return record
    current = pt
    for n in range(1, max_steps + 1):
        try:
            current = step_fn(current, params, bit_budget)
        except UndefinedInverseError:
            record.verdict = Verdict("undefined_inverse", n)
            return record
        except BitBudgetError:
            record.verdict = Verdict("budget_exceeded", n)
            return record
        if push(n, current):
            return record
    record.verdict = Verdict("completed", max_steps, seen_max)
    return record


def backward_orbit(
    pt: Point,
    params: MapParams,
    max_steps: int,
    escape_exponent=None,
    bit_budget=DEFAULT_BIT_BUDGET,
    label_regions: bool = True,
) -> OrbitRecord:
    """Iterate f^(-1) from pt, recording profiles until a verdict triggers.

    The escaped verdict fires as soon as max(a, b) exceeds escape_exponent
    (pass None to disable).  A completed verdict means only that the horizon
    was reached; the maximum observed exponent is attached as evidence.
    """
    return _run_orbit(
        pt, params, max_steps, escape_exponent, bit_budget, label_regions, inverse, "backward"
    )


def forward_orbit(
    pt: Point,
    params: MapParams,
    max_steps: int,
    escape_exponent=None,
    bit_budget=DEFAULT_BIT_BUDGET,
    label_regions: bool = True,
) -> OrbitRecord:
    """Forward iteration utility (used for fixed-point and cycle checks)."""
    return _run_orbit(
        pt, params, max_steps, escape_exponent, bit_budget, label_regions, forward, "forward"
    )


def default_escape_exponent(params: MapParams) -> int:
    """Default escape threshold: 8 for |c| <= 1, widened by the regime scale above."""
    d = params.d
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
# on the residues of `padics`, with c split once per orbit into exact
# integers.  An orbit starts at START_PRECISION digits and doubles them on
# each PrecisionExhaustedError up to the caller's cap; a run that finishes has
# exact profiles at any precision, so only the cost depends on where it stops.
# ---------------------------------------------------------------------------

START_PRECISION = 16


@dataclass
class ProfileOrbitRecord:
    """Backward orbit trace carrying certified norm profiles (no exact points).

    `precision` is the digit count of the run that certified every profile.
    """

    profiles: list
    regions: list
    verdict: Verdict
    precision: int

    def max_exponent(self):
        vals = [v for prof in self.profiles for v in prof if v is not None]
        return max(vals) if vals else None

    def to_json(self) -> dict:
        return {
            "direction": "backward",
            "engine": "certified",
            "precision": self.precision,
            "steps": [
                {"n": n, "a": prof[0], "b": prof[1],
                 "region": str(reg) if reg is not None else None}
                for n, (prof, reg) in enumerate(zip(self.profiles, self.regions))
            ],
            "verdict": self.verdict.to_json(),
        }


def backward_profile_orbit(
    pt: Point,
    params: MapParams,
    max_steps: int,
    precision: int = 256,
    escape_exponent=None,
    label_regions: bool = True,
) -> ProfileOrbitRecord:
    """Backward orbit on certified fixed-precision values; exact in every valuation.

    Suited to long horizons over norm-bounded orbits, where exact rationals
    are infeasible.  Runs at START_PRECISION digits and doubles them whenever
    a cancellation exhausts the window; `precision` caps the digits, and at
    the cap it raises PrecisionExhaustedError rather than ever reporting an
    uncertified norm.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    digits = min(START_PRECISION, precision)
    while True:
        try:
            return _profile_orbit_at(
                pt, params, max_steps, digits, escape_exponent, label_regions
            )
        except PrecisionExhaustedError:
            if digits >= precision:
                raise
            digits = min(2 * digits, precision)


def _profile_orbit_at(pt, params, max_steps, digits, escape_exponent, label_regions):
    p = params.prime
    d = params.d if label_regions else None
    c = _split(params.c)
    x = _residue(pt.x, digits)
    y = _residue(pt.y, digits)
    profiles: list = []
    regions: list = []
    seen_max = None

    def record(verdict):
        return ProfileOrbitRecord(profiles, regions, verdict, digits)

    def push(xr, yr) -> Verdict | None:
        nonlocal seen_max
        profile = (None if xr is None else -xr[0], None if yr is None else -yr[0])
        profiles.append(profile)
        regions.append(classify(profile, d) if d is not None else None)
        m = _max_exponent(profile)
        if m is not None and (seen_max is None or m > seen_max):
            seen_max = m
        if escape_exponent is not None and m is not None and m > escape_exponent:
            return Verdict("escaped", len(profiles) - 1, m)
        return None

    verdict = push(x, y)
    if verdict is not None:
        return record(verdict)
    for n in range(1, max_steps + 1):
        if y is None:
            return record(Verdict("undefined_inverse", n))
        if c is None:
            t = x
        elif x is None:
            t = (c[0], -c[1], c[2], digits)
        else:
            t = _sub_c(x, c, p)
        x, y = y, None if t is None else _div(t, y, p)
        verdict = push(x, y)
        if verdict is not None:
            return record(verdict)
    return record(Verdict("completed", max_steps, seen_max))


# ---------------------------------------------------------------------------
# Fixed points and the 3-cycle.
# ---------------------------------------------------------------------------


def _rational_sqrt(f: Fraction):
    """Exact square root in Q if f is a perfect rational square, else None."""
    from math import isqrt

    if f < 0:
        return None
    rn, rd = isqrt(f.numerator), isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def exact_fixed_points(params: MapParams):
    """Fixed points (a, a) with a^2 - a + c = 0, when computable in Q.

    Returns a list of Points ([] when 1 - 4c is not a square in Q_p at all),
    or None when fixed points exist in Q_p but are irrational over Q.
    """
    c = params.c
    p = params.prime
    disc = 1 - 4 * c  # 1 - 4c = (2a - 1)^2
    if disc.is_zero:
        half = PadicRational(1, 2, p)
        return [Point(half, half)]
    if not is_square(disc):
        return []
    q = _rational_sqrt(disc.as_fraction())
    if q is None:
        return None
    roots = {Fraction(1 - q, 2), Fraction(1 + q, 2)}
    pts = [Point(PadicRational(r, 1, p), PadicRational(r, 1, p)) for r in sorted(roots)]
    return pts


def fixed_points(params: MapParams, precision: int):
    """Zero, one or two fixed points, with coordinates as digit expansions.

    The two-root case takes the Hensel square root q of 1 - 4c as a residue
    and returns ((1 - q)/2, (1 - q)/2) and ((1 + q)/2, (1 + q)/2), in that
    order.  Both are computed with the orbit engine's `_sub_c` and `_div`, so
    a cancellation in 1 - q is certified by the same rule, and one that
    consumes every digit raises PrecisionExhaustedError.
    """
    c = params.c
    p = params.prime
    disc = 1 - 4 * c
    if disc.is_zero:
        half = PadicRational(1, 2, p).expand(precision)
        return [(half, half)]
    if not is_square(disc):
        return []
    q = sqrt(disc, precision)
    v, n, m, k = _sub_c(q, (0, 1, 1), p)  # q - 1
    roots = []
    for t in ((v, -n, m, k), _sub_c(q, (0, -1, 1), p)):  # 1 - q, then 1 + q
        alpha = TruncatedPadic.from_residue(p, _div(t, (0, 2, 1, t[3]), p))
        roots.append((alpha, alpha))
    return roots


def three_cycle(params: MapParams):
    """The exact 3-cycle through (-1, -1): ((-1,-1), (1+c,-1), (-1,1+c))."""
    p = params.prime
    minus_one = PadicRational(-1, 1, p)
    rho = Point(minus_one, minus_one)
    one_plus_c = params.c + 1
    return (rho, Point(one_plus_c, minus_one), Point(minus_one, one_plus_c))


