import hashlib
import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from padic_henon import verifier
from padic_henon.dynamics import (
    PrecisionExhaustedError,
    Verdict,
    backward_orbit,
    backward_profile_orbit,
    default_escape_exponent,
    inverse,
)
from padic_henon.padics import PadicRational, Point
from padic_henon.regions import Regime, RegionLabel, classify, regime_of_d, region_profiles
from padic_henon.verifier import (
    CampaignError,
    LemmaSpec,
    VerificationReport,
    _growth_violation,
    _judge_samples,
    builtin_campaign,
    builtin_campaign_names,
    campaign_summary,
    load_campaign,
    parse_rational,
    run_campaign,
    run_spec,
)


def lbl(regime, name, index=None):
    return RegionLabel(regime, name, index)


def test_parse_rational():
    x = parse_rational("-22/7", 5)
    assert (x.numerator, x.denominator) == (-22, 7)
    assert parse_rational("9", 5) == PadicRational(9, 1, 5)


def test_transition_inner_box_sampled():
    spec = LemmaSpec("inner-box", "transition", p=3, c="1/9",
                     source=lbl(Regime.LARGE, "J", 0), samples=300, window=10, seed=11)
    report = run_spec(spec)
    assert report.ok and report.passes == 300
    assert report.passes + len(report.failures) + report.skipped == spec.samples


def test_transition_depth_two_band():
    spec = LemmaSpec("two-step", "transition", p=3, c="9/1",
                     source=lbl(Regime.SMALL, "A", 5), depth=2, samples=200, window=10, seed=3)
    report = run_spec(spec)
    assert report.ok


def test_transition_empty_region_skips():
    spec = LemmaSpec("empty", "transition", p=3, c="1/3",
                     source=lbl(Regime.LARGE, "J", 0), samples=50, window=8, seed=1)
    report = run_spec(spec)
    assert report.ok  # skipped, not failed
    assert report.skipped == 50
    assert any("empty region" in n for n in report.notes)


def test_negative_control_produces_counterexamples():
    spec = LemmaSpec("control", "transition", p=3, c="1/9",
                     source=lbl(Regime.LARGE, "J", 0), samples=100, window=8, seed=2,
                     expected=frozenset({lbl(Regime.LARGE, "F")}))
    report = run_spec(spec)
    assert not report.ok
    assert len(report.failures) == 100


def test_counterexamples_replay_from_report():
    spec = LemmaSpec("control", "transition", p=3, c="1/9",
                     source=lbl(Regime.LARGE, "J", 0), samples=20, window=8, seed=2,
                     expected=frozenset({lbl(Regime.LARGE, "F")}))
    report = run_spec(spec)
    params = parse_rational(report.spec.c, report.spec.p)
    for failure in report.failures[:5]:
        pt = Point(
            PadicRational.from_json(failure["start"]["x"]),
            PadicRational.from_json(failure["start"]["y"]),
        )
        image = inverse(pt, params)
        assert list(image.profile()) == failure["image_profile"]
        assert str(classify(image.profile(), params.norm_exponent)) == failure["got"]


def test_determinism_same_seed_same_report():
    spec = LemmaSpec("det", "transition", p=3, c="2/1",
                     source=lbl(Regime.UNIT, "M", 2), samples=150, window=9, seed=77)
    r1, r2 = run_spec(spec), run_spec(spec)
    j1, j2 = r1.to_json(), r2.to_json()
    j1.pop("wall_time"), j2.pop("wall_time")
    j1["spec"].pop("seed"), j2["spec"].pop("seed")
    assert j1 == j2


def test_exhaustive_runner_counts_every_failed_outcome():
    # d = -20 (c = 3^20): the two-step flat band fails exactly where
    # 2b - a > d, 90 outcomes, of which 25 are listed as witnesses.
    d, W = -20, 100
    spec = LemmaSpec("flat-band-two-step", "exhaustive", p=3, c=str(3**20),
                     source=lbl(Regime.SMALL, "A", 5), depth=2, window=W)
    hand = {(a, b) for a in range(0, W + 1) for b in range(d + 1, 0) if 2 * b - a > d}
    band = [(a, b) for a in range(0, W + 1) for b in range(d + 1, 0)]
    report = run_spec(spec)
    assert spec.parsed_c().norm_exponent == d and len(hand) == 90
    assert len(report.failures) == 25
    assert report.passes == len(band) - 90
    assert any("90 outcomes fail" in n for n in report.notes)
    # The campaign summary counts every failing outcome, not the witnesses.
    summary = campaign_summary([report])
    assert report.failed_outcomes == summary["failures"] == 90
    assert summary["passes"] + summary["failures"] == len(band) == 1919
    assert not summary["ok"]


def test_exhaustive_runner_matches_gridcheck():
    spec = LemmaSpec("window", "exhaustive", p=3, c="1/9",
                     source=lbl(Regime.LARGE, "G"), window=40)
    report = run_spec(spec)
    assert report.ok and report.passes > 0


def test_escape_with_doubling_bound():
    spec = LemmaSpec("tall-band", "escape", p=3, c="1/9",
                     source=lbl(Regime.LARGE, "G"), samples=100, window=8, seed=5,
                     steps=60, escape_exponent=500)
    report = run_spec(spec)
    assert report.ok and report.passes + report.skipped == 100
    assert report.notes == ["every escaped orbit checked against the doubling growth law"]


def test_escape_certifies_exhausted_sample_on_exact_engine():
    # At the bundled seed one sample of small-escape-A4, (184, 181/3) at c = 3,
    # cancels below the 256-digit cap; the exact rerun shows a real exit from
    # the domain (x_{-2} = c, so y_{-3} = 0 and step 4 is undefined), counted
    # as before.
    spec = next(s for s in builtin_campaign("all-lemmas") if s.identifier == "small-escape-A4")
    params = spec.parsed_c()
    pt = Point(PadicRational(184, 1, 3), PadicRational(181, 3, 3))
    threshold = default_escape_exponent(params)
    with pytest.raises(PrecisionExhaustedError):
        backward_profile_orbit(pt, params, spec.steps, escape_exponent=threshold)
    exact = backward_orbit(pt, params, spec.steps, escape_exponent=threshold)
    assert (exact.verdict.kind, exact.verdict.step) == ("undefined_inverse", 4)
    report = run_spec(spec)
    assert (report.passes, report.skipped, report.undefined_inverse) == (119, 1, 1)
    assert report.ok and report.uncertified == 0 and report.notes == []


def _judge_one(monkeypatch, pt, params, steps, precision):
    """Run the one sample loop on `pt` alone, with a judge that keeps the
    record `_certified_or_exact` gives it and reports its skip verdict, as
    the escape and sandwich judges do.  Returns the report and the record."""
    monkeypatch.setattr(verifier, "region_sampler", lambda *args: iter([pt]))
    report = VerificationReport(spec=LemmaSpec(identifier="probe", kind="sandwich", p=3))
    records = []

    def judge(sample):
        assert sample is pt
        rec = verifier._certified_or_exact(sample, params, steps, precision, None)
        records.append(rec)
        return rec.verdict.kind if rec.verdict.kind in verifier._SKIPS else None

    drawn = _judge_samples(report, report.spec, lbl(Regime.LARGE, "J", 0), params.norm_exponent, 1, judge)
    assert drawn == 1
    (rec,) = records
    return report, rec


def test_exhausted_sample_is_judged_on_the_exact_record(monkeypatch):
    # x - c = 3^20 at valuation -1 cancels 21 digits, past a 16-digit cap: the
    # exact rerun gives the profiles and labels the certified engine gives
    # with room to spare.
    params = PadicRational(1, 3, 3)
    pt = Point(PadicRational(1 + 3**21, 3, 3), PadicRational(1, 1, 3))
    report, judged = _judge_one(monkeypatch, pt, params, 10, 16)
    rec = backward_profile_orbit(pt, params, 10, escape_exponent=None)
    assert judged.precision is None  # the exact engine's record
    assert (judged.profiles, judged.verdict) == (rec.profiles, rec.verdict)
    labels = [s["region"] for s in judged.to_json(params.norm_exponent)["steps"]]
    assert labels == [s["region"] for s in rec.to_json(params.norm_exponent)["steps"]]
    assert (report.skipped, report.undefined_inverse, report.uncertified) == (0, 0, 0)
    assert (report.passes, report.failures, report.notes) == (1, [], [])


def test_exhausted_sample_past_the_bit_budget_is_uncertified(monkeypatch):
    # x - c = 3^300 exhausts the 256-digit cap, and the exact rerun of a
    # norm-bounded orbit outgrows the default bit budget long before 60 steps.
    params = PadicRational(1, 3, 3)
    pt = Point(PadicRational(1 + 3**301, 3, 3), PadicRational(1, 1, 3))
    report, rec = _judge_one(monkeypatch, pt, params, 60, 256)
    assert rec.verdict.kind == "budget_exceeded"
    assert (report.skipped, report.undefined_inverse, report.uncertified) == (1, 0, 1)
    assert (report.passes, report.failures, report.notes) == (0, [], ["1 samples uncertified"])


def _samples_drawn(spec) -> int:
    """The samples a sampled spec judges: for a sandwich, `samples` in the
    invariant region, where the regime has one, and a quarter (at least 25)
    in each escaping region."""
    if spec.kind != "sandwich":
        return spec.samples
    regime = regime_of_d(spec.parsed_c().norm_exponent)
    lower = spec.samples if regime in verifier._INVARIANT else 0
    return lower + len(verifier._ESCAPING[regime]) * max(spec.samples // 4, 25)


@pytest.mark.parametrize("name", ["all-lemmas", "negative-control", "known-anomalies"])
def test_every_sample_drawn_is_counted_once(name):
    sampled = [s for s in builtin_campaign(name) if s.kind in ("transition", "escape", "sandwich")]
    assert sampled
    for report in run_campaign(sampled):
        spec = report.spec
        assert report.passes + len(report.failures) + report.skipped == _samples_drawn(spec), spec.identifier
        assert report.undefined_inverse + report.uncertified <= report.skipped, spec.identifier


def test_a_sampled_region_is_not_kept_after_its_check():
    spec = LemmaSpec("w", "transition", p=3, c="9/1",
                     source=lbl(Regime.SMALL, "A", 1), samples=5, window=200, seed=1)
    report = run_spec(spec)
    assert report.ok and report.passes == 5
    assert region_profiles.cache_info().currsize == 0


def test_escape_schedule_bound_small_regime():
    spec = LemmaSpec("flat-corner", "escape", p=3, c="3/1",
                     source=lbl(Regime.SMALL, "A", 1), samples=100, window=8, seed=5,
                     steps=60, escape_exponent=500)
    report = run_spec(spec)
    assert report.ok
    assert report.notes == ["every escaped orbit checked against the schedule growth law"]


def test_only_g_and_a1_carry_a_growth_law():
    laws = {(regime, name, index): law for regime, rows in verifier._ESCAPING.items()
            for (name, index), law in rows.items() if law is not None}
    assert laws == {(Regime.LARGE, "G", None): verifier._DOUBLING,
                    (Regime.SMALL, "A", 1): verifier._SCHEDULE}


def test_invariant_region_never_escapes():
    spec = LemmaSpec("torus-control", "escape", p=3, c="3/1",
                     source=lbl(Regime.SMALL, "Z"), samples=50, window=6, seed=5,
                     steps=40, escape_exponent=8)
    report = run_spec(spec)
    # Negative control: the unit torus is invariant, so nothing escapes.
    assert len(report.failures) == 50
    assert report.passes == 0
    # Z is no key of the escape claims, and the report says so.
    assert report.notes == ["not a paper claim: the paper states no escape from Z"]


def test_bundled_escapes_are_paper_claims():
    """No bundled report notes an escape outside the claim table.  Only the
    escape and sandwich kinds judge escapes, so only they are run."""
    specs = [s for name in builtin_campaign_names() for s in builtin_campaign(name)
             if s.kind in ("escape", "sandwich")]
    assert specs
    notes = [n for r in run_campaign(specs) for n in r.notes]
    assert not [n for n in notes if "not a paper claim" in n]


def test_doubling_law_on_hand_built_profiles():
    name, bound = verifier._DOUBLING
    assert name == "doubling"
    # b0 - d = 1 at d = 2: the bound 2^(n//2) + 2 reads 3, 3, 4, 4, 6 on either coordinate.
    assert [bound(n, 3, 2) for n in range(5)] == [((0, 1), 3), ((0, 1), 3), ((0, 1), 4),
                                                  ((0, 1), 4), ((0, 1), 6)]
    holds = [(1, 3), (3, 0), (0, 4), (4, 0), (0, 6)]
    assert _growth_violation(bound, holds, 3, 2) is None
    assert _growth_violation(bound, [*holds[:3], (3, 1), holds[4]], 3, 2) == 3
    assert _growth_violation(bound, [*holds[:2], (None, None), *holds[3:]], 3, 2) == 2
    assert _growth_violation(bound, [*holds[:2], (None, 5), *holds[3:]], 3, 2) is None
    assert _growth_violation(bound, [(2, 2)], 3, 2) == 0


def test_schedule_law_on_hand_built_profiles():
    name, bound = verifier._SCHEDULE
    assert name == "schedule"
    # d = -1 and K(1), K(3) = 1, 3: a at step 3 and b at step 4 are at least 1,
    # a at step 5 and b at step 6 at least 3; steps 0 to 2 are not checked.
    assert [bound(n, 7, -1) for n in range(7)] == [None, None, None, ((0,), 1), ((1,), 1),
                                                   ((0,), 3), ((1,), 3)]
    holds = [(0, 0), (None, None), (0, 0), (1, 0), (0, 1), (3, 0), (0, 3)]
    assert _growth_violation(bound, holds, 7, -1) is None
    assert _growth_violation(bound, [*holds[:5], (2, 9), holds[6]], 7, -1) == 5
    assert _growth_violation(bound, [*holds[:4], (9, None), *holds[5:]], 7, -1) == 4
    assert _growth_violation(bound, [*holds[:6], (9, 2)], 7, -1) == 6
    assert _growth_violation(bound, holds[:3], 7, -1) is None


def test_schedule_law_meets_the_recurrence():
    # The paper's K: K(0) = K(1) = 1, K(2i) = K(2i - 1) + 1, K(2i + 1) = K(2i) + K(2i - 1).
    ks = [1, 1]
    for m in range(2, 80):
        ks.append(ks[m - 1] + 1 if m % 2 == 0 else ks[m - 1] + ks[m - 2])
    bound = verifier._SCHEDULE[1]
    for d in (-1, -2, -5):
        for i in range(1, 41):
            assert bound(2 * i + 1, 0, d) == ((0,), -d * ks[2 * i - 1])
            assert bound(2 * i + 2, 0, d) == ((1,), -d * ks[2 * i - 1])


def test_escape_growth_violation_is_a_failure_record(monkeypatch):
    # UNIT M1 at c = 1 escapes, but not at the tall band's doubling rate: with
    # that law patched onto its row, the record names the first step whose max
    # exponent is below 2^(n//2) b0.
    monkeypatch.setitem(verifier._ESCAPING[Regime.UNIT], ("M", 1), verifier._DOUBLING)
    assert verifier._ESCAPING[Regime.LARGE][("M", 1)] is None
    spec = LemmaSpec("unit-M1-doubling", "escape", p=3, c="1/1",
                     source=lbl(Regime.UNIT, "M", 1), samples=3, window=6, seed=1,
                     steps=30, escape_exponent=200)
    report = run_spec(spec)
    assert (report.passes, len(report.failures), report.skipped) == (0, 3, 0)
    for failure in report.failures:
        assert set(failure) == {"start", "growth_check", "violated_at_step", "profiles"}
        assert failure["growth_check"] == "doubling"
        profiles = failure["profiles"]
        b0 = profiles[0][1]
        first = next(n for n, prof in enumerate(profiles)
                     if max(v for v in prof if v is not None) < (1 << (n // 2)) * b0)
        assert failure["violated_at_step"] == first


def test_run_spec_dispatches_worked_orbits():
    spec = LemmaSpec("w", "worked_orbits", p=5)
    report = run_spec(spec)
    assert report.ok and report.passes == 6
    assert report.spec is spec and report.spec.identifier == "w"


@pytest.mark.parametrize("p,expect_ok", [(5, True), (3, False), (7, False)])
def test_worked_orbits_by_prime(p, expect_ok):
    report = run_spec(LemmaSpec(f"orbits-p{p}", "worked_orbits", p=p))
    assert report.spec.identifier == f"orbits-p{p}"
    assert report.ok is expect_ok
    if not expect_ok:
        # only the norm-bounded example degenerates away from p = 5
        assert [f["orbit"] for f in report.failures] == ["large-bounded"]


_WORKED_NOTES = [
    "small-escape: 12 steps match",
    "small-fixed: backward orbit constant",
    "large-boundary-escape: 12 steps match",
    "large-bounded: 50 steps, max norm exponent <= 1",
    "unit-escape: 12 steps match",
    "unit-cycle: exact period 3 over 300 steps",
]
_OUTSIDE = "a backward x-coordinate met c exactly; the point is outside the domain"


@pytest.mark.parametrize(
    "p,failures",
    [
        # The fourth backward x-coordinate of (1, 1) is (p - 2)/p, which is c = 1/p at p = 3.
        (3, [{"orbit": "large-bounded", "note": _OUTSIDE,
              "verdict": {"kind": "undefined_inverse", "step": 6, "norm_exponent": None}}]),
        (5, []),
        (7, [{"orbit": "large-bounded", "max_exponent": 16385,
              "verdict": {"kind": "completed", "step": 50, "norm_exponent": 16385}}]),
        (11, []),
        (13, []),
    ],
)
def test_worked_orbit_reports_are_pinned(p, failures):
    report = run_spec(LemmaSpec("w", "worked_orbits", p=p))
    assert report.failures == failures
    assert report.passes == 6 - len(failures)
    failed = [f["orbit"] + ":" for f in failures]
    assert report.notes == [n for n in _WORKED_NOTES if not n.startswith(tuple(failed))]
    assert (report.skipped, report.undefined_inverse, report.uncertified) == (0, 0, 0)


@pytest.mark.parametrize(
    "corrupt,failure",
    [
        # The exact engine stops at the third step, as if y were 0 there.
        (lambda rec: replace(rec, steps=rec.steps[:3], profiles=rec.profiles[:3],
                             verdict=Verdict("undefined_inverse", 3)),
         {"note": _OUTSIDE, "verdict": {"kind": "undefined_inverse", "step": 3, "norm_exponent": None}}),
        # The orbit completes, but its fourth profile is off the doubling pattern (-2^1, 2^2 - 1).
        (lambda rec: replace(rec, profiles=rec.profiles[:4] + [(0, 0)] + rec.profiles[5:]),
         {"verdict": {"kind": "completed", "step": 12, "norm_exponent": 63},
          "first_mismatch_step": 4, "got": [0, 0], "expected": [-2, 3]}),
    ],
    ids=["undefined-inverse", "profile-mismatch"],
)
def test_an_exact_worked_orbit_fails_by_the_one_rule(monkeypatch, corrupt, failure):
    def small_escape_corrupted(start, params, steps, **kw):
        rec = backward_orbit(start, params, steps, **kw)
        return corrupt(rec) if params == 5 else rec  # small-escape has c = p

    monkeypatch.setattr(verifier, "backward_orbit", small_escape_corrupted)
    report = run_spec(LemmaSpec("w", "worked_orbits", p=5))
    assert report.failures == [{"orbit": "small-escape", **failure}]
    assert report.passes == 5 and report.notes == _WORKED_NOTES[1:]


def test_sandwich_small_regime():
    spec = LemmaSpec("sandwich", "sandwich", p=3, c="3/1", samples=24, window=6,
                     seed=3, steps=40, escape_exponent=300)
    report = run_spec(spec)
    assert report.ok
    assert any("invariance of Z certified" in n for n in report.notes)


def test_sandwich_large_regime():
    spec = LemmaSpec("sandwich", "sandwich", p=3, c="1/9", samples=24, window=6,
                     seed=3, steps=50, escape_exponent=2000)
    report = run_spec(spec)
    assert report.ok
    assert any("invariance of J0 certified" in n for n in report.notes)


def test_sandwich_at_d_one_notes_the_empty_lower_bound():
    # J0 = {a < d, 0 < b < d} has no integer cell at d = 1: neither the
    # invariance nor the lower bound examined anything, and the notes say so.
    spec = LemmaSpec("sandwich", "sandwich", p=3, c="1/3", samples=24, window=6,
                     seed=3, steps=40)
    report = run_spec(spec)
    assert report.notes[:2] == [
        "J0 has no cell in window; one-step invariance not checked",
        "lower-bound region empty: region J0 has no profile with window 6 (d=1)",
    ]
    assert not any("certified" in n for n in report.notes)
    assert report.ok and report.skipped == spec.samples  # every escaping region has cells


def test_sandwich_unit_regime():
    spec = LemmaSpec("sandwich", "sandwich", p=3, c="2/1", samples=24, window=6,
                     seed=3, steps=50, escape_exponent=1000)
    report = run_spec(spec)
    assert report.ok


# --- campaigns -------------------------------------------------------------------


def test_builtin_campaign_names():
    names = builtin_campaign_names()
    assert {"all-lemmas", "negative-control", "known-anomalies"} <= set(names)


def test_campaign_spec_roundtrip(tmp_path):
    specs = builtin_campaign("negative-control")
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"specs": [s.to_json() for s in specs]}))
    reloaded = load_campaign(path)
    assert [s.to_json() for s in reloaded] == [s.to_json() for s in specs]


@pytest.mark.parametrize("name", ["all-lemmas", "negative-control", "known-anomalies"])
def test_every_bundled_spec_round_trips(name):
    for spec in builtin_campaign(name):
        assert LemmaSpec.from_json(spec.to_json()) == spec


# A value other than the default for every field that some kind does not read.
_OFF_DEFAULT = {
    "c": "1/9", "depth": 2, "samples": 7, "window": 5, "seed": 5, "digit_count": 3, "steps": 7,
    "escape_exp": 100,
    "source": {"regime": "large", "name": "J", "index": 0},
    "expected": [{"regime": "large", "name": "F", "index": None}],
}
_UNREAD = [(kind, key) for key, f in verifier._FIELDS.items()
           for kind in verifier._KINDS if kind not in f.metadata["kinds"]]


@pytest.mark.parametrize("kind,key", _UNREAD, ids=[f"{kind}-{key}" for kind, key in _UNREAD])
def test_a_field_the_kind_does_not_read_is_rejected(kind, key):
    spec = {"id": "x", "kind": kind, "p": 3}
    if kind != "worked_orbits":
        spec["c"] = "1/9"
    if kind in ("transition", "exhaustive", "escape"):
        spec["source"] = _OFF_DEFAULT["source"]
    LemmaSpec.from_json(spec)
    with pytest.raises(CampaignError, match=rf"^spec 'x': {key} applies only to .* specs, not '{kind}'$"):
        LemmaSpec.from_json({**spec, key: _OFF_DEFAULT[key]})


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"kind": "lemma"}, "unknown kind 'lemma'"),
        ({"samples": "5"}, "'samples' must be an integer"),
        ({"depth": 3}, "depth must be 1 or 2"),
        ({"source": {"regime": "large", "name": "Q", "index": 7}}, "bad source"),
        ({"source": {"regime": "large", "name": "C", "index": 3}}, "no transition claim for C3"),
        ({"c": "1/0"}, "bad c '1/0'"),
        ({"c": None}, '"c" must be a "num/den" string'),
        ({"growth_check": "tripling"}, "unknown field 'growth_check'"),
        ({"expected": [{"regime": "large", "name": "Q"}]}, "bad target"),
        ({"samples": 0}, "samples must be at least 1"),
        ({"samples": -3}, "samples must be at least 1"),
        ({"kind": "exhaustive", "window": -5}, "window at least 0"),
        ({"expected": [{"regime": "large", "name": "A", "index": True}]},
         "index must be an integer or null, got True"),
        ({"source": {"regime": "large", "name": "J", "index": 0.0}},
         "index must be an integer or null, got 0.0"),
        ({"expected": [{"regime": "large", "name": "A", "index": 1.0}]},
         "index must be an integer or null, got 1.0"),
        ({"expected": []}, '"expected" must be a nonempty list'),
        ({"expected": {"regime": "large", "name": "A", "index": 1}}, '"expected" must be a nonempty list'),
        # A growth law belongs to its escaping region, so no spec names one.
        ({"kind": "sandwich", "growth_check": "schedule"}, "unknown field 'growth_check'"),
        ({"kind": "escape", "growth_check": "doubling"}, "unknown field 'growth_check'"),
        ({"kind": "escape", "expected": [{"regime": "large", "name": "F", "index": None}]},
         "expected applies only to transition and exhaustive specs, not 'escape'"),
        ({"source": {"regime": "large", "name": "C", "index": -1}}, "C family starts at index 1"),
        ({"sample": 7}, "unknown field 'sample'"),
        ({"source": {"regime": "large", "name": "A", "index": 10_001}},
         "A family index 10001 is above 10000"),
        ({"kind": "escape", "steps": 0}, "steps at least 1"),
        ({"kind": "escape", "steps": -3}, "steps at least 1"),
        ({"window": 1001}, "window at least 0 and at most 1000"),
        ({"kind": "exhaustive", "window": 1001}, "window at least 0 and at most 1000"),
        # Strong pseudoprimes to the bases 2 to 37; the larger one also to 41.
        ({"p": 318665857834031151167461}, "318665857834031151167461 is not prime"),
        ({"p": 3317044064679887385961981}, "prime must be below 3317044064679887385961981"),
        ({"digit_count": 0}, "digit_count must be at least 1 and at most 500000 at p = 3"),
        ({"digit_count": 500_001}, "digit_count must be at least 1 and at most 500000 at p = 3"),
        ({"samples": 100_001}, "samples must be at least 1 and at most 100000"),
        # A target from another regime was judged like any other: the first
        # ran with 77 failing outcomes, the second passed.
        ({"kind": "exhaustive", "c": "9/1", "window": 6, "source": {"regime": "small", "name": "A", "index": 1},
          "expected": [{"regime": "large", "name": "G", "index": None}]},
         "target G is large, but c = 9/1 is in regime small"),
        ({"c": "9/1", "source": {"regime": "small", "name": "A", "index": 1},
          "expected": [{"regime": "small", "name": "A", "index": 2}, {"regime": "unit", "name": "M", "index": 3}]},
         "target M3 is unit, but c = 9/1 is in regime small"),
    ],
)
def test_load_campaign_rejects_malformed_spec(tmp_path, fields, message):
    spec = {"id": "bad", "kind": "transition", "p": 3, "c": "1/9",
            "source": {"regime": "large", "name": "J", "index": 0}}
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"specs": [spec]}))
    assert len(load_campaign(path)) == 1
    path.write_text(json.dumps({"specs": [{**spec, **fields}]}))
    with pytest.raises(CampaignError) as info:
        load_campaign(path)
    assert str(info.value).startswith("spec 'bad': ") and message in str(info.value)


def test_the_largest_window_loads(tmp_path):
    spec = {"id": "w", "kind": "exhaustive", "p": 3, "c": "1/9", "window": 1000,
            "source": {"regime": "large", "name": "J", "index": 0}}
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"specs": [spec]}))
    assert [s.window for s in load_campaign(path)] == [1000]


@pytest.mark.parametrize("p,top", [(3, 500_000), (7, 333_333), (2**61 - 1, 16_393)])
def test_digit_count_is_bounded_by_the_unit_bits(tmp_path, p, top):
    """digit_count times the bit length of p is at most 10^6: a larger unit
    passes the exact engine's bit budget, and 3 samples of 3 * 10^8 digits at
    p = 3 had not finished after 120 s."""
    spec = {"id": "u", "kind": "transition", "p": p, "c": f"1/{p * p}", "digit_count": top,
            "source": {"regime": "large", "name": "J", "index": 0}}
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"specs": [spec]}))
    assert [s.digit_count for s in load_campaign(path)] == [top]
    path.write_text(json.dumps({"specs": [{**spec, "digit_count": top + 1}]}))
    with pytest.raises(CampaignError, match=f"digit_count must be at least 1 and at most {top} at p = {p}"):
        load_campaign(path)


def test_negative_control_campaign_fails():
    reports = run_campaign([replace(s, samples=50) for s in builtin_campaign("negative-control")])
    summary = campaign_summary(reports)
    assert not summary["ok"]
    assert summary["failures"] >= 1


def test_known_anomalies_campaign_fails():
    reports = run_campaign([replace(s, samples=60) for s in builtin_campaign("known-anomalies")])
    summary = campaign_summary(reports)
    assert not summary["ok"]
    by_id = {r.spec.identifier: r for r in reports}
    assert not by_id["overlay-descent-k2-n1-window"].ok
    assert not by_id["two-step-band-collapse-d-3-window"].ok


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        run_spec(LemmaSpec("bad", "nonsense", p=3))


def test_transition_target_order_ignores_hash_seed():
    """The targets are tried in a fixed order, so the number of constraint
    evaluations in the membership tests of a sampled transition does not
    depend on PYTHONHASHSEED (set iteration order would)."""
    code = textwrap.dedent("""
        import json
        from padic_henon import regions, verifier

        calls = 0
        inner = regions.eval_constraint

        def counting(*args):
            global calls
            calls += 1
            return inner(*args)

        regions.eval_constraint = counting
        spec = next(s for s in verifier.builtin_campaign("all-lemmas")
                    if s.identifier == "small-P6-step")
        report = verifier.run_spec(spec).to_json()
        del report["wall_time"]
        print(json.dumps({"calls": calls, "report": report}))
    """)
    src = str(Path(verifier.__file__).resolve().parents[1])
    runs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    assert runs[0]["report"]["passes"] == 300 and runs[0]["calls"] >= 300


# --- the bundled campaign, pinned -------------------------------------------------


def _digest(obj) -> str:
    """The report digest of perfbench/workloads.py."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _drop_wall_time(obj):
    """obj without its "wall_time" keys, as perfbench/workloads.py digests reports."""
    if isinstance(obj, dict):
        return {k: _drop_wall_time(v) for k, v in obj.items() if k != "wall_time"}
    if isinstance(obj, list):
        return [_drop_wall_time(v) for v in obj]
    return obj


def test_all_lemmas_is_pinned_at_the_bundled_seeds_and_at_seed_3101():
    """No change may move a sampled point, a verdict or a count unnoticed."""
    reports = run_campaign(builtin_campaign("all-lemmas"))
    summary = campaign_summary(reports)
    totals = {k: summary[k] for k in ("specs", "passes", "failures", "skipped",
                                      "undefined_inverse")}
    totals["vacuous"] = sum(r.passes == 0 for r in reports)
    assert totals == {"specs": 135, "passes": 72_592, "failures": 0, "skipped": 4_197,
                      "undefined_inverse": 2, "vacuous": 24}
    specs = builtin_campaign("all-lemmas")
    for spec in specs:
        spec.seed = 3101
    summary = campaign_summary(run_campaign(specs))
    assert _digest(_drop_wall_time(summary["reports"])) == "90161fe92b204c89"
