"""Verification campaigns: exact-sample and window-exhaustive checks of every
region-transition claim, escape certification with growth bounds, worked-orbit
reproduction, and the two-sided boundedness evidence per regime.

Campaigns are declarative (JSON), deterministic under a fixed seed, and emit
structured reports whose failures carry exact, replayable counterexamples.
Sampling alone cannot prove a set inclusion, so every transition claim is
also checked exhaustively at the norm-profile level over a window, including
full enumeration of the cancellation column a = d.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources

from .dynamics import (
    BitBudgetError,
    PrecisionExhaustedError,
    UndefinedInverseError,
    backward_orbit,
    backward_profile_orbit,
    default_escape_exponent,
    inverse,
    three_cycle,
)
from .padics import (
    _MAX_SAMPLES,
    _MAX_WINDOW,
    DEFAULT_BIT_BUDGET,
    MAX_STEPS,
    PadicRational,
    Point,
    parse_rational,
    validate_odd_prime,
)
from .regions import (
    EmptyRegionError,
    Regime,
    RegionLabel,
    branches_hold,
    classify,
    expected_preimage_regions,
    regime_of_d,
    region_branches,
    region_sampler,
)

__all__ = [
    "CampaignError",
    "LemmaSpec",
    "VerificationReport",
    "load_campaign",
    "builtin_campaign",
    "builtin_campaign_names",
    "run_spec",
    "run_campaign",
    "campaign_summary",
]


class CampaignError(ValueError):
    """A campaign file or spec is malformed; raised at load time, before anything runs."""


_KINDS = ("transition", "exhaustive", "escape", "sandwich", "worked_orbits")
# The largest sampled unit p^digit_count, in bits as digit_count times the bit
# length of p.  A sample's cost grows with the unit's size in bits: at p = 3 one
# took 0.6 s at 400,000 digits and 3.4 s at 10^6, and 3 samples at 3 * 10^8
# digits had not finished after 120 s; at p = 2^61 - 1 one took 1.3 s at 16,393
# digits (10^6 bits).  A unit past the exact engine's bit budget makes every
# sample uncertified at its first step anyway.
_MAX_UNIT_BITS = DEFAULT_BIT_BUDGET


def _label(obj, what: str = "source") -> RegionLabel:
    try:
        label = RegionLabel.from_json(obj)
        if label.index is not None and type(label.index) is not int:
            raise TypeError(f"index must be an integer or null, got {label.index!r}")
        region_branches(label)
    except (KeyError, TypeError, ValueError) as exc:
        raise CampaignError(f"bad {what} {obj!r}: {exc}") from None
    return label


def _targets(obj) -> frozenset:
    if type(obj) is not list or not obj:
        raise CampaignError(f'"expected" must be a nonempty list of regions, got {obj!r}')
    return frozenset(_label(t, "target") for t in obj)


def _field(kinds, default=MISSING, key=None, **meta):
    """A spec field that the runners of `kinds` read, under the JSON `key` (else its
    name).  `integer=True` asks for an int; `load` and `dump` convert a non-null
    JSON value; `omit_none=True` leaves a null out of `to_json`."""
    return field(default=default, metadata={"kinds": kinds, "key": key, **meta})


@dataclass
class LemmaSpec:
    """One verification campaign entry.  A key that names no field, or a field
    off its default for a kind whose runner does not read it, is rejected at
    load time; a default passes, since `to_json` writes every field.  `expected`
    overrides the transition table (negative controls use it).  The growth law
    an escape spec checks, if any, is its source region's entry in `_ESCAPING`."""

    identifier: str = _field(_KINDS, key="id")
    kind: str = _field(_KINDS)
    p: int = _field(_KINDS, integer=True)
    c: str | None = _field(("transition", "exhaustive", "escape", "sandwich"), None)
    depth: int = _field(("transition", "exhaustive"), 1, integer=True)
    samples: int = _field(("transition", "escape", "sandwich"), 200, integer=True)
    window: int = _field(("transition", "exhaustive", "escape", "sandwich"), 12, integer=True)
    seed: int = _field(("transition", "escape", "sandwich"), 0, integer=True)
    digit_count: int = _field(("transition", "escape", "sandwich"), 6, integer=True)
    steps: int = _field(("escape", "sandwich"), 60, integer=True)
    escape_exponent: int | None = _field(("escape", "sandwich"), None, "escape_exp", integer=True)
    source: RegionLabel | None = _field(("transition", "exhaustive", "escape"), None,
                                        load=_label, dump=RegionLabel.to_json)
    expected: frozenset | None = _field(
        ("transition", "exhaustive"), None, load=_targets, omit_none=True,
        dump=lambda targets: sorted((t.to_json() for t in targets), key=str))

    def parsed_c(self) -> PadicRational:
        """The spec's c as an exact rational at its prime."""
        if self.c is None:
            raise ValueError(f"spec {self.identifier} has no parameter c")
        return parse_rational(self.c, self.p)

    @classmethod
    def from_json(cls, obj: dict) -> "LemmaSpec":
        """Parse one spec, checking every field; a malformed one raises CampaignError."""
        try:
            return cls._checked(obj)
        except CampaignError as exc:
            ident = obj.get("id") if isinstance(obj, dict) else None
            raise CampaignError(f"spec {ident!r}: {exc}") from None

    @classmethod
    def _checked(cls, obj: dict) -> "LemmaSpec":
        if not isinstance(obj, dict) or not isinstance(obj.get("id"), str):
            raise CampaignError(f'a spec is an object with a string "id", got {obj!r}')
        kind = obj.get("kind")
        if kind not in _KINDS:
            raise CampaignError(f"unknown kind {kind!r}; expected one of {list(_KINDS)}")
        values = {}
        for key, f in _FIELDS.items():
            v = obj.get(key, None if f.default is MISSING else f.default)
            if f.metadata.get("integer") and type(v) is not int and v is not f.default:
                raise CampaignError(f"{key!r} must be an integer, got {v!r}")
            load = f.metadata.get("load")
            values[f.name] = load(v) if load and v is not None else v
        try:
            validate_odd_prime(values["p"])
        except ValueError as exc:
            raise CampaignError(str(exc)) from None
        if values["depth"] not in (1, 2) or not 1 <= values["steps"] <= MAX_STEPS:
            raise CampaignError(f"depth must be 1 or 2, and steps at least 1 and at most {MAX_STEPS}")
        most = _MAX_UNIT_BITS // values["p"].bit_length()
        if not 1 <= values["digit_count"] <= most:
            raise CampaignError(f"digit_count must be at least 1 and at most {most} at p = {values['p']}: "
                                f"a unit has at most {_MAX_UNIT_BITS} bits")
        if not 1 <= values["samples"] <= _MAX_SAMPLES or not 0 <= values["window"] <= _MAX_WINDOW:
            raise CampaignError(f"samples must be at least 1 and at most {_MAX_SAMPLES}, "
                                f"and window at least 0 and at most {_MAX_WINDOW}")
        spec = cls(**values)
        if kind != "worked_orbits":
            spec._check_regions()
        for key in obj:
            if key not in _FIELDS:
                raise CampaignError(f"unknown field {key!r}; expected one of {list(_FIELDS)}")
        for key, f in _FIELDS.items():
            kinds = f.metadata["kinds"]
            if kind not in kinds and values[f.name] != f.default:
                names = ", ".join(kinds[:-1]) + " and " + kinds[-1] if len(kinds) > 1 else kinds[0]
                raise CampaignError(f"{key} applies only to {names} specs, not {kind!r}")
        # A start above the threshold would count as escaped before any step.
        if kind in ("escape", "sandwich") and (top := _threshold(spec, spec.parsed_c())) < spec.window:
            raise CampaignError(f"escape threshold {top} is below the window {spec.window}")
        return spec

    def _check_regions(self) -> None:
        """c is a nonzero rational, and the source and the claim fit its regime."""
        if not isinstance(self.c, str):
            raise CampaignError(f'"c" must be a "num/den" string, got {self.c!r}')
        try:
            c = self.parsed_c()
        except (ValueError, ZeroDivisionError) as exc:
            raise CampaignError(f"bad c {self.c!r}: {exc}") from None
        if c.is_zero:
            raise CampaignError("c = 0 is degenerate: no region partition exists")
        regime = regime_of_d(c.norm_exponent)
        if self.kind == "sandwich":
            return
        if self.source is None:
            raise CampaignError(f"kind {self.kind!r} needs a source region")
        for role, label in [("source", self.source), *(("target", t) for t in self.expected or ())]:
            if label.regime is not regime:
                raise CampaignError(
                    f"{role} {label} is {label.regime.value}, but c = {self.c} is in regime {regime.value}"
                )
            if label.name == "T" and c.norm_exponent < 2:
                raise CampaignError(f"overlay region {label} needs d >= 2, got d = {c.norm_exponent}")
        if self.kind != "escape" and self.expected is None:
            try:
                _expected_targets(self)
            except KeyError as exc:
                raise CampaignError(exc.args[0]) from None

    def to_json(self) -> dict:
        obj = {}
        for key, f in _FIELDS.items():
            value = getattr(self, f.name)
            if value is not None and f.metadata.get("dump"):
                value = f.metadata["dump"](value)
            if value is not None or not f.metadata.get("omit_none"):
                obj[key] = value
        return obj


# Each field of LemmaSpec under its JSON key, in the order to_json writes them.
_FIELDS = {f.metadata["key"] or f.name: f for f in fields(LemmaSpec)}


@dataclass
class VerificationReport:
    spec: LemmaSpec
    passes: int = 0
    failures: list = field(default_factory=list)
    skipped: int = 0
    undefined_inverse: int = 0
    notes: list = field(default_factory=list)
    wall_time: float = 0.0
    unlisted_failures: int = 0  # failing outcomes beyond the listed witnesses
    uncertified: int = 0  # skipped samples whose exit no engine could certify

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failed_outcomes(self) -> int:
        """Exact number of failing outcomes, listed as witnesses or not."""
        return len(self.failures) + self.unlisted_failures

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "passes": self.passes,
            "failures": self.failures,
            "skipped": self.skipped,
            "undefined_inverse": self.undefined_inverse,
            "notes": self.notes,
            "wall_time": self.wall_time,
            "ok": self.ok,
        }


def _expected_targets(spec: LemmaSpec) -> list:
    """The claim's target regions, sorted by name so the checks run in a fixed order."""
    targets = spec.expected
    if targets is None:
        targets = expected_preimage_regions(spec.source, depth=spec.depth)
    return sorted(targets, key=str)


# A judge's skips, as `Verdict.kind` names them: an exit from the domain, and
# an exact orbit past the bit budget, which is also counted uncertified.
_SKIPS = ("undefined_inverse", "budget_exceeded")


def _judge_samples(report, spec, label, d, samples, judge, empty_note="empty region", prefix=""):
    """Judge `samples` exact points of `label` in the spec's window, all drawn
    from one ``region_sampler`` seeded from the spec, and count each outcome.

    `judge(pt)` returns None if the sample passes, a dict of the failure's
    fields after its "start", or one of `_SKIPS`.  If the region has no cell
    there, every sample counts as skipped and a note says why; otherwise a
    note counts the uncertified samples, if any.  Both notes start with
    `prefix`.  Returns how many points were drawn.
    """
    rng = random.Random(spec.seed)
    sampler = region_sampler(label, d, spec.p, spec.window, spec.digit_count, rng)
    uncertified = 0
    for _ in range(samples):
        try:
            pt = next(sampler)
        except EmptyRegionError as exc:
            report.skipped += samples
            report.notes.append(f"{prefix}{empty_note}: {exc}")
            return 0
        outcome = judge(pt)
        if outcome is None:
            report.passes += 1
        elif outcome in _SKIPS:
            report.skipped += 1
            if outcome == "undefined_inverse":
                report.undefined_inverse += 1
            else:
                uncertified += 1
        else:
            report.failures.append({"start": pt.to_json(), **outcome})
    if uncertified:
        report.uncertified += uncertified
        report.notes.append(f"{prefix}{uncertified} samples uncertified")
    return samples


def _judge_transition(spec: LemmaSpec, report: VerificationReport) -> None:
    """Sample exact points in the source region and check where one (or two)
    backward steps land.  Failures carry the exact starting point."""
    c = spec.parsed_c()
    d = c.norm_exponent
    targets = _expected_targets(spec)
    branches = [branch for target in targets for branch in region_branches(target)]

    def judge(pt):
        current = pt
        try:
            for _step in range(spec.depth):
                current = inverse(current, c)
        except UndefinedInverseError:
            pass  # `current` has y = 0, so its b_img is None below
        except BitBudgetError:
            return "budget_exceeded"  # the exact image outgrew the bit budget
        a_img, b_img = current.profile()
        if b_img is None:
            # The branch x = c leaves the domain; excluded-null, reported.
            return "undefined_inverse"
        # Membership is decided by the targets' own inequalities, tried in
        # target order (overlay regions are not partition labels); the
        # partition label is attached to failures as a diagnostic.
        if branches_hold(branches, a_img, b_img, d):
            return None
        return {
            "start_profile": list(pt.profile()),
            "image_profile": [a_img, b_img],
            "got": str(classify((a_img, b_img), d)),
            "expected": [str(t) for t in targets],
        }

    _judge_samples(report, spec, spec.source, d, spec.samples, judge)


def _judge_exhaustive(spec: LemmaSpec, report: VerificationReport) -> None:
    """Window-exhaustive profile-level form of the same claim (see gridcheck)."""
    targets = _expected_targets(spec)
    from . import gridcheck  # deferred: importing it adds milliseconds to every CLI start

    check = gridcheck.check_transition_profiles(
        spec.source, spec.parsed_c().norm_exponent, spec.window, depth=spec.depth, targets=targets
    )
    report.passes = check.outcomes_checked - check.failed_outcomes
    for ce in check.counterexamples:
        report.failures.append(
            {
                "source_profile": list(ce.source_profile),
                "outcome_profile": list(ce.outcome_profile),
                "cancellation_exponent": ce.cancellation_exponent,
                "expected": [str(t) for t in targets],
            }
        )
    report.unlisted_failures = check.failed_outcomes - len(check.counterexamples)
    if report.unlisted_failures:
        report.notes.append(f"{check.failed_outcomes} outcomes fail; "
                            f"at most {gridcheck.MAX_GROUP_WITNESSES} per frontier group listed")
    if check.profiles_checked == 0:
        report.notes.append("empty region in window")


# The paper's escape claims.  In each regime every escaping region maps to its
# growth law, or to None where the paper states no rate.  A law is a row
# (name, bound): bound(n, b0, d) gives, at step n of a backward orbit whose
# start has y-exponent b0, the coordinates (0: x, 1: y) whose largest norm
# exponent is at least a bound, as (coordinates, bound), or None where the law
# says nothing.
# The tall band G at |c| > 1 doubles: max(a, b) >= 2^(n//2) (b0 - d) + d.
_DOUBLING = ("doubling", lambda n, b0, d: ((0, 1), (1 << (n // 2)) * (b0 - d) + d))
# The flat band A1 at |c| < 1 enters the two-band cycle: a at odd n = 2i + 1 and
# b at even n = 2i + 2, i >= 1, are at least -d K(2i - 1), where K(0) = K(1) = 1,
# K(2i) = K(2i - 1) + 1 and K(2i + 1) = K(2i) + K(2i - 1), so K(2i - 1) = 2^i - 1.
_SCHEDULE = ("schedule",
             lambda n, b0, d: None if n < 3 else ((1 - n % 2,), -d * ((1 << ((n - 1) // 2)) - 1)))
# For |c| >= 1 the unbounded bands and the first M bands escape in both regimes.
_BANDS = [("F", None), ("G", None), ("H", None)] + [("M", i) for i in range(1, 5)]
_ESCAPING = {
    Regime.SMALL: {**dict.fromkeys([("A", i) for i in range(1, 7)] + [("B", 1), ("B", 2)]
                                   + [("P", i) for i in range(1, 7)]),
                   ("A", 1): _SCHEDULE},
    Regime.UNIT: dict.fromkeys(_BANDS),
    Regime.LARGE: {**dict.fromkeys(_BANDS), ("G", None): _DOUBLING},
}


def _growth_violation(bound, profiles, b0: int, d: int) -> int | None:
    """Index of the first step whose bounded coordinates all fall below the
    law's `bound` (a zero coordinate, with no exponent, falls below any), else None."""
    for n, profile in enumerate(profiles):
        rule = bound(n, b0, d)
        if rule is not None and all(profile[i] is None or profile[i] < rule[1] for i in rule[0]):
            return n
    return None


def _certified_or_exact(pt, c, steps, precision, threshold):
    """The backward orbit of pt on the certified engine, capped at `precision`
    digits.  If the cap is exhausted, the exact engine's orbit with the same
    horizon and threshold and the default bit budget instead."""
    try:
        return backward_profile_orbit(
            pt, c, steps, precision=precision, escape_exponent=threshold
        )
    except PrecisionExhaustedError:
        return backward_orbit(pt, c, steps, escape_exponent=threshold)


def _threshold(spec: LemmaSpec, c: PadicRational) -> int:
    return default_escape_exponent(c) if spec.escape_exponent is None else spec.escape_exponent


def _judge_escaping(report, spec, c, label, samples, prefix=""):
    """Judge `samples` points of the escaping region `label` by its entry in
    `_ESCAPING`: each backward orbit must cross the spec's threshold within
    its steps, and meet the region's growth law, if any, on the way; a note
    then names the law.  A region outside the table is judged the same way,
    under a note that the paper makes no such claim."""
    claims = _ESCAPING[label.regime]
    if (label.name, label.index) not in claims:
        report.notes.append(f"{prefix}not a paper claim: the paper states no escape from {label}")
    law = claims.get((label.name, label.index))
    threshold = _threshold(spec, c)
    d = c.norm_exponent

    def judge(pt):
        rec = _certified_or_exact(pt, c, spec.steps, 256, threshold)
        if rec.verdict.kind in _SKIPS:
            return rec.verdict.kind
        if rec.verdict.kind != "escaped":
            why = {"verdict": rec.verdict.to_json()}
        else:
            step = None if law is None else _growth_violation(
                law[1], rec.profiles, pt.profile()[1], d)
            if step is None:
                return None
            why = {"growth_check": law[0], "violated_at_step": step}
        return {**why, "profiles": [list(p) for p in rec.profiles]}

    if _judge_samples(report, spec, label, d, samples, judge, prefix=prefix) and law:
        report.notes.append(f"{prefix}every escaped orbit checked against the {law[0]} growth law")


def _judge_escape(spec: LemmaSpec, report: VerificationReport) -> None:
    """Sampled backward orbits from a proved-escaping region must cross the threshold.

    Runs on the certified fixed-precision engine: escaping orbits double their
    coordinate heights per step, so exact rationals cannot reach the large
    thresholds, while certified valuations remain exact at modular cost.  A
    sample that exhausts 256 digits is judged on the exact engine instead.
    """
    _judge_escaping(report, spec, spec.parsed_c(), spec.source, spec.samples)


# ---------------------------------------------------------------------------
# Worked orbits: the six concrete computations with closed-form norm patterns.
# ---------------------------------------------------------------------------


def _two_per_n(first: list, pair, steps: int) -> list:
    """The profiles `first`, then the two profiles pair(n) for n = 1, 2, ..., cut to `steps`."""
    return (first + [prof for n in range(1, steps) for prof in pair(n)])[:steps]


def _expected_boundary_escape(steps: int) -> list:
    # start (1/p + p^2, 1), c = 1/p: deterministic profile recurrence from
    # step 1 onward, since the x-exponent never equals d = 1 again.
    out = [(0, -2)]
    a, b = 0, -2
    while len(out) < steps:
        a, b = b, max(a, 1) - b
        out.append((a, b))
    return out[:steps]


def _matches(view: str, expected: list):
    """The expectation that the record's `view` ("profiles" or "steps") equals
    `expected` from step 1 on; a mismatch names its first step."""
    dump = list if view == "profiles" else Point.to_json

    def expect(rec):
        got = getattr(rec, view)[1:]
        bad = next((n for n, (g, e) in enumerate(zip(got, expected)) if g != e), None)
        if bad is None:
            return None
        return {"first_mismatch_step": bad + 1, "got": dump(got[bad]), "expected": dump(expected[bad])}

    return expect


def _worked_orbits(p: int) -> list:
    """The paper's worked backward orbits at p, one row each: the identifier,
    c, the start, the horizon, the certified engine's digits (None: exact
    arithmetic alone), the expectation and the note of a pass.  An expectation
    maps a completed record to None if it meets its closed form, else to the
    mismatch's fields."""

    def q(num, den=1):
        return PadicRational(num, den, p)

    one = q(1)
    # start (p + 2p^3, 2p), c = p: explicit first two steps, then the
    # doubling pattern (2^n - 1, -2^n) / (-2^n, 2^(n+1) - 1) for n >= 1.
    small = _two_per_n([(-1, -2), (-2, 1)],
                       lambda n: [(2**n - 1, -(2**n)), (-(2**n), 2 ** (n + 1) - 1)], 12)
    # start (-1, -p), c = 1: explicit first step, then
    # (2^(n-1), -2^(n-1)) / (-2^(n-1), 2^n) for n >= 1.
    unit = _two_per_n([(-1, 1)],
                      lambda n: [(2 ** (n - 1), -(2 ** (n - 1))), (-(2 ** (n - 1)), 2**n)], 12)
    rho, f_rho, f2_rho = three_cycle(one)
    cycle = (rho, f2_rho, f_rho)  # backward orbit visits the cycle in reverse
    return [
        # |c| < 1: escape from the corner sphere pair.
        ("small-escape", q(p), Point(q(p + 2 * p**3), q(2 * p)), 12, None,
         _matches("profiles", small), "12 steps match"),
        # |c| < 1: the fixed point (p, p) for c = p - p^2 stays put exactly.
        ("small-fixed", q(p - p * p), Point(q(p), q(p)), 12, None,
         _matches("steps", [Point(q(p), q(p))] * 12), "backward orbit constant"),
        # |c| > 1: escape from the boundary region.
        ("large-boundary-escape", q(1, p), Point(q(1 + p**3, p), one), 12, None,
         _matches("profiles", _expected_boundary_escape(12)), "12 steps match"),
        # |c| > 1: (1, 1) stays within norm p for 50 steps.  Coordinate heights
        # grow like phi^n even though norms stay bounded, so this runs on the
        # certified fixed-precision engine.  At p = 3 the orbit genuinely exits
        # the domain: the fourth backward x-coordinate is (p-2)/p, which equals
        # c = 1/p exactly when p = 3, so the certified engine cannot certify the
        # next step and the exact rerun finds the inverse undefined.
        ("large-bounded", q(1, p), Point(one, one), 50, 300,
         lambda rec: None if (top := rec.verdict.norm_exponent) <= 1 else {"max_exponent": top},
         "50 steps, max norm exponent <= 1"),
        # |c| = 1: escape from (-1, -p).
        ("unit-escape", one, Point(q(-1), q(-p)), 12, None, _matches("profiles", unit), "12 steps match"),
        # |c| = 1 (c = 1): (-1, -1) is exactly 3-periodic backward.
        ("unit-cycle", one, rho, 300, None,
         _matches("steps", [cycle[n % 3] for n in range(1, 301)]), "exact period 3 over 300 steps"),
    ]


def _judge_worked_orbits(spec: LemmaSpec, report: VerificationReport) -> None:
    """Reproduce the worked backward orbits at the spec's prime, each by one rule:
    a completed orbit that meets its closed form passes; any other fails with
    its verdict and the mismatch, and an orbit that left the domain says so."""
    for ident, c, start, steps, digits, expect, note in _worked_orbits(spec.p):
        if digits is None:
            rec = backward_orbit(start, c, steps, escape_exponent=None)
        else:
            rec = _certified_or_exact(start, c, steps, digits, None)
        mismatch = expect(rec) if rec.verdict.kind == "completed" else {}
        if mismatch is None:
            report.passes += 1
            report.notes.append(f"{ident}: {note}")
            continue
        if rec.verdict.kind == "undefined_inverse":
            mismatch["note"] = "a backward x-coordinate met c exactly; the point is outside the domain"
        report.failures.append({"orbit": ident, "verdict": rec.verdict.to_json(), **mismatch})


# ---------------------------------------------------------------------------
# Two-sided boundedness evidence per regime.
# ---------------------------------------------------------------------------

# The invariant region of the lower bound; |c| = 1 has none.
_INVARIANT = {Regime.SMALL: ("Z", None), Regime.LARGE: ("J", 0)}


def _judge_sandwich(spec: LemmaSpec, report: VerificationReport) -> None:
    """Both sides of the regime's boundedness sandwich, at finite horizon.

    Lower bound: samples of the invariant region (the unit torus profile for
    |c| < 1, the inner box for |c| > 1) never leave it, and the one-step
    invariance is certified exhaustively at the profile level.  Upper bound:
    samples of every proved-escaping region cross the escape threshold, at
    the region's growth law's rate where it has one.
    Staying bounded for N steps is evidence, not proof, for individual
    points; the invariance of the region is the assertable claim.
    """
    c = spec.parsed_c()
    d = c.norm_exponent
    regime = regime_of_d(d)

    if regime in _INVARIANT:
        invariant = RegionLabel(regime, *_INVARIANT[regime])
        from . import gridcheck  # deferred: importing it adds milliseconds to every CLI start

        cert = gridcheck.check_transition_profiles(invariant, d, max(spec.window, 12))
        if cert.profiles_checked == 0:
            report.notes.append(f"{invariant} has no cell in window; one-step invariance not checked")
        elif cert.ok:
            report.notes.append(f"one-step invariance of {invariant} certified on window")
        else:
            report.failures.append({"invariance": str(invariant), "counterexamples": cert.failed_outcomes})

        def stays(pt):
            rec = _certified_or_exact(pt, c, spec.steps, 6 * spec.steps + 64, None)
            if rec.verdict.kind in _SKIPS:
                return rec.verdict.kind
            if all(classify(prof, d) == invariant for prof in rec.profiles):
                return None
            return {"regions": [str(classify(prof, d)) for prof in rec.profiles]}

        drawn = _judge_samples(report, spec, invariant, d, spec.samples, stays,
                               "lower-bound region empty")
        if drawn:
            report.notes.append(
                f"{report.passes}/{drawn} samples of {invariant} stayed for {spec.steps} steps "
                "(finite-horizon evidence)"
            )

    for name, index in _ESCAPING[regime]:
        label = RegionLabel(regime, name, index)
        _judge_escaping(report, spec, c, label, max(spec.samples // 4, 25), f"{label}: ")


# ---------------------------------------------------------------------------
# Campaign plumbing.
# ---------------------------------------------------------------------------

_JUDGES = {
    "transition": _judge_transition,
    "exhaustive": _judge_exhaustive,
    "escape": _judge_escape,
    "sandwich": _judge_sandwich,
    "worked_orbits": _judge_worked_orbits,
}


def run_spec(spec: LemmaSpec) -> VerificationReport:
    """The one entry point for every kind: a fresh report, filled by the kind's judge, timed."""
    if spec.kind not in _JUDGES:
        raise ValueError(f"unknown campaign kind {spec.kind!r} in {spec.identifier}")
    t0 = time.perf_counter()
    report = VerificationReport(spec=spec)
    _JUDGES[spec.kind](spec, report)
    report.wall_time = time.perf_counter() - t0
    return report


def _parse_campaign(text: str) -> list:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CampaignError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("specs"), list):
        raise CampaignError('a campaign is an object with a "specs" list')
    if not obj["specs"]:
        raise CampaignError('the "specs" list is empty: a campaign that checks nothing cannot pass')
    return [LemmaSpec.from_json(s) for s in obj["specs"]]


def load_campaign(path) -> list:
    """Read and validate a campaign file: OSError if it cannot be read,
    CampaignError if it is malformed."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise CampaignError(f"not UTF-8 text: {exc}") from None
    return _parse_campaign(text)


def builtin_campaign_names() -> list:
    files = resources.files("padic_henon").joinpath("data")
    return sorted(f.name[: -len(".json")] for f in files.iterdir() if f.name.endswith(".json"))


def builtin_campaign(name: str) -> list:
    ref = resources.files("padic_henon").joinpath("data").joinpath(f"{name}.json")
    if not ref.is_file():
        raise FileNotFoundError(
            f"no builtin campaign {name!r}; available: {builtin_campaign_names()}"
        )
    return _parse_campaign(ref.read_text(encoding="utf-8"))


def run_campaign(specs) -> list:
    return [run_spec(spec) for spec in specs]


def campaign_summary(reports) -> dict:
    failures = sum(r.failed_outcomes for r in reports)
    return {
        "specs": len(reports),
        "passes": sum(r.passes for r in reports),
        "failures": failures,
        "skipped": sum(r.skipped for r in reports),
        "undefined_inverse": sum(r.undefined_inverse for r in reports),
        "ok": failures == 0,
        "reports": [r.to_json() for r in reports],
    }
