import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from click.testing import CliRunner

import padic_henon
from padic_henon.cli import main
from padic_henon.dynamics import DEFAULT_BIT_BUDGET, MAX_BIT_BUDGET
from padic_henon.verifier import load_campaign


@pytest.fixture()
def runner():
    return CliRunner()


def test_orbit_worked_example(runner):
    result = runner.invoke(main, [
        "orbit", "--prime", "5", "--c", "5/1", "--x", "255/1", "--y", "10/1", "--steps", "8",
    ])
    assert result.exit_code == 0, result.output
    obj = json.loads(result.output)
    profiles = [(s["a"], s["b"]) for s in obj["steps"]]
    assert profiles[1] == (-1, -2)
    assert profiles[2] == (-2, 1)
    assert obj["steps"][1]["x"] == {"num": "10", "den": "1", "p": 5}


def test_orbit_cycle(runner):
    result = runner.invoke(main, [
        "orbit", "--prime", "3", "--c", "1/1", "--x", "-1/1", "--y", "-1/1", "--steps", "9",
    ])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["verdict"]["kind"] == "completed"
    xs = [s["x"]["num"] for s in obj["steps"]]
    assert xs[0] == xs[3] == xs[6] == xs[9] == "-1"


def test_orbit_zero_y_verdict_exit_zero(runner):
    result = runner.invoke(main, [
        "orbit", "--prime", "5", "--c", "5/1", "--x", "1/1", "--y", "0/1",
    ])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["verdict"] == {"kind": "undefined_inverse", "step": 1, "norm_exponent": None}


def test_orbit_round_trips_through_schema(runner):
    result = runner.invoke(main, [
        "orbit", "--prime", "3", "--c", "1/9", "--x", "4/9", "--y", "1/3", "--steps", "5",
    ])
    obj = json.loads(result.output)
    for step in obj["steps"]:
        assert set(step) == {"n", "x", "y", "a", "b", "region"}
        assert int(step["x"]["num"]) is not None


# --- orbit stdout, pinned byte for byte ------------------------------------------
#
# The expected traces were read off the `orbit` command at commit 6921e99,
# before the two engines shared one orbit record, and are compared with the
# whole of stdout: key order, indentation and the trailing newline included.
# Each row is (x, y, a, b, region) with x and y as "num/den".

ORBIT_PINS = {
    "backward-two-cancellations": (
        "--prime 5 --c 5/1 --x 255/1 --y 10/1 --steps 4", "backward",
        [("255/1", "10/1", -1, -1, "R"), ("10/1", "25/1", -1, -2, "P6"),
         ("25/1", "1/5", -2, 1, "A1"), ("1/5", "100/1", 1, -2, "A2"),
         ("100/1", "-6/125", -2, 3, "A1")],
        ("completed", 4, 3),
    ),
    "forward-escaped": (
        "--prime 3 --c 1/1 --x 1/3 --y 1/1 --steps 5 --direction forward --escape-exp 6",
        "forward",
        [("1/3", "1/1", 1, 0, "H"), ("4/3", "1/3", 1, 1, "M1"), ("13/9", "4/3", 2, 1, "M2"),
         ("79/27", "13/9", 3, 2, "M3"), ("1270/243", "79/27", 5, 3, "M4"),
         ("106891/6561", "1270/243", 8, 5, "M5")],
        ("escaped", 5, 8),
    ),
    "undefined-at-step-one": (
        "--prime 5 --c 5/1 --x 1/1 --y 0/1 --steps 3", "backward",
        [("1/1", "0/1", 0, None, "OutsideQ")],
        ("undefined_inverse", 1, None),
    ),
    "backward-escaped": (
        "--prime 5 --c 5/1 --x 255/1 --y 10/1 --steps 8 --escape-exp 2", "backward",
        [("255/1", "10/1", -1, -1, "R"), ("10/1", "25/1", -1, -2, "P6"),
         ("25/1", "1/5", -2, 1, "A1"), ("1/5", "100/1", 1, -2, "A2"),
         ("100/1", "-6/125", -2, 3, "A1")],
        ("escaped", 4, 3),
    ),
    "budget-exceeded": (
        "--prime 5 --c 1/5 --x 1/1 --y 1/1 --steps 50 --bit-budget 8", "backward",
        [("1/1", "1/1", 0, 0, "C0"), ("1/1", "4/5", 0, 1, "C0"), ("4/5", "1/1", 1, 0, "C0"),
         ("1/1", "3/5", 0, 1, "C0")],
        ("budget_exceeded", 4, None),
    ),
    "degenerate-c-unlabelled": (
        "--prime 5 --c 0/1 --x 3/1 --y 5/1 --steps 2", "backward",
        [("3/1", "5/1", 0, -1, None), ("5/1", "3/5", -1, 1, None), ("3/5", "25/3", 1, -2, None)],
        ("completed", 2, 1),
    ),
}


def test_orbit_prints_coordinates_past_the_str_digit_limit(runner):
    # Heights grow by about 1.6 per backward step at c = 1/5: from step 23 on
    # a coordinate has more than 4,300 digits, and step 29 outgrows the
    # default bit budget.
    from padic_henon.dynamics import backward_orbit
    from padic_henon.padics import PadicRational, Point

    result = runner.invoke(main, [
        "orbit", "--prime", "5", "--c", "1/5", "--x", "1/1", "--y", "1/1", "--steps", "40",
    ])
    assert result.exit_code == 0, result.output
    obj = json.loads(result.stdout)
    assert obj["verdict"] == {"kind": "budget_exceeded", "step": 29, "norm_exponent": None}
    rec = backward_orbit(Point(PadicRational(1, 1, 5), PadicRational(1, 1, 5)),
                         PadicRational(1, 5, 5), 40)
    assert len(obj["steps"]) == len(rec.steps) == 29
    for step, pt in zip(obj["steps"], rec.steps):
        assert Point(PadicRational.from_json(step["x"]), PadicRational.from_json(step["y"])) == pt
    assert max(len(s["x"]["num"]) for s in obj["steps"]) > 4_300


def _rational_json(text, p):
    num, den = text.split("/")
    return {"num": num, "den": den, "p": p}


def _pinned_trace(head, rows, verdict, p):
    steps = []
    for n, row in enumerate(rows):
        step = {"n": n}
        if len(row) == 5:
            step["x"] = _rational_json(row[0], p)
            step["y"] = _rational_json(row[1], p)
        a, b, region = row[-3:]
        steps.append({**step, "a": a, "b": b, "region": region})
    kind, at, exponent = verdict
    obj = {**head, "steps": steps, "verdict": {"kind": kind, "step": at, "norm_exponent": exponent}}
    return json.dumps(obj, indent=1)


@pytest.mark.parametrize("name", sorted(ORBIT_PINS))
def test_orbit_stdout_pinned(runner, name):
    args, direction, rows, verdict = ORBIT_PINS[name]
    result = runner.invoke(main, ["orbit", *args.split()])
    assert result.exit_code == 0
    p = int(args.split()[1])
    assert result.stdout == _pinned_trace({"direction": direction}, rows, verdict, p) + "\n"


def test_certified_record_json_pinned():
    from padic_henon.dynamics import backward_profile_orbit
    from padic_henon.padics import PadicRational, Point

    params = PadicRational(5, 1, 5)
    start = Point(PadicRational(255, 1, 5), PadicRational(10, 1, 5))
    rec = backward_profile_orbit(start, params, 8)
    rows = [(-1, -1, "R"), (-1, -2, "P6"), (-2, 1, "A1"), (1, -2, "A2"), (-2, 3, "A1"),
            (3, -4, "A2"), (-4, 7, "A1"), (7, -8, "A2"), (-8, 15, "A1")]
    head = {"direction": "backward", "engine": "certified", "precision": 256}
    expected = _pinned_trace(head, rows, ("completed", 8, 15), 5)
    assert json.dumps(rec.to_json(params.norm_exponent), indent=1) == expected
    unlabelled = [(a, b, None) for a, b, _ in rows]
    assert json.dumps(rec.to_json(), indent=1) == _pinned_trace(head, unlabelled, ("completed", 8, 15), 5)


def test_even_prime_usage_error(runner):
    result = runner.invoke(main, ["orbit", "--prime", "2", "--c", "1/1", "--x", "1", "--y", "1"])
    assert result.exit_code == 2


@pytest.mark.parametrize("prime,message", [
    ("318665857834031151167461", "318665857834031151167461 is not prime"),
    ("3317044064679887385961981", "prime must be below 3317044064679887385961981"),
    (str(2**89 - 1), "prime must be below 3317044064679887385961981"),
], ids=["pseudoprime-below-bound", "pseudoprime-at-bound", "prime-above-bound"])
def test_prime_without_an_exact_primality_test_exits_2(runner, prime, message):
    result = runner.invoke(main, ["classify", "--prime", prime, "--c", "1/1", "--a", "1", "--b", "2"])
    assert result.exit_code == 2
    assert message in result.output and result.stdout == ""


def test_malformed_rational_usage_error(runner):
    result = runner.invoke(main, ["orbit", "--prime", "5", "--c", "5/0", "--x", "1", "--y", "1"])
    assert result.exit_code == 2


def test_orbit_zero_steps_usage_error(runner):
    result = runner.invoke(main, [
        "orbit", "--prime", "3", "--c", "1/1", "--x", "1/1", "--y", "1/1", "--steps", "0",
    ])
    assert result.exit_code == 2
    assert "--steps" in result.output


def test_orbit_steps_above_the_horizon_bound_usage_error(runner):
    # A record keeps every step: 20,000 steps of the exact 3-cycle peaked at 92 MB.
    result = runner.invoke(main, [
        "orbit", "--prime", "3", "--c", "1/1", "--x", "-1/1", "--y", "-1/1", "--steps", "100001",
    ])
    assert result.exit_code == 2
    assert "--steps" in result.output and "1<=x<=100000" in result.output and result.stdout == ""


def test_campaign_steps_at_the_horizon_bound_loads(tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"specs": [{"id": "long", "kind": "sandwich", "p": 3, "c": "1/9",
                                           "steps": 100_000}]}))
    (spec,) = load_campaign(path)
    assert spec.steps == 100_000


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_orbit_non_positive_bit_budget_usage_error(runner, budget):
    result = runner.invoke(main, [
        "orbit", "--prime", "3", "--c", "1/1", "--x", "1/1", "--y", "1/1", "--bit-budget", budget,
    ])
    assert result.exit_code == 2
    assert "--bit-budget" in result.output and result.stdout == ""


def test_orbit_bit_budget_above_its_bound_usage_error(runner):
    # 60 steps of this escaping orbit took 36 s at 10^7 bits, and had not
    # finished in 40 s at 10^12.
    args = ["orbit", "--prime", "5", "--c", "1/5", "--x", "1/1", "--y", "1/1", "--steps", "60"]
    result = runner.invoke(main, [*args, "--bit-budget", "10000001"])
    assert result.exit_code == 2
    assert "--bit-budget" in result.output and "1<=x<=10000000" in result.output
    assert result.stdout == ""


def test_orbit_bit_budget_at_its_bound_runs(runner):
    result = runner.invoke(main, ["orbit", "--prime", "3", "--c", "1/1", "--x", "-1/1",
                                  "--y", "-1/1", "--steps", "9", "--bit-budget", "10000000"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["verdict"]["kind"] == "completed"


def test_orbit_bit_budget_default_is_the_library_default():
    (option,) = [o for o in main.commands["orbit"].params if o.name == "bit_budget"]
    assert option.default == DEFAULT_BIT_BUDGET and option.type.max == MAX_BIT_BUDGET


def test_classify_profile_mode(runner):
    result = runner.invoke(main, ["classify", "--prime", "3", "--c", "1/9", "--a", "1", "--b", "1"])
    obj = json.loads(result.output)
    assert obj["region"] == {"regime": "large", "name": "J", "index": 0}


def test_classify_point_mode(runner):
    result = runner.invoke(main, [
        "classify", "--prime", "3", "--c", "1/3", "--x", "28/3", "--y", "1/1",
    ])
    obj = json.loads(result.output)
    assert obj["region"]["name"] == "C" and obj["region"]["index"] == 0


def test_classify_degenerate_c(runner):
    result = runner.invoke(main, ["classify", "--prime", "3", "--c", "0/1", "--a", "0", "--b", "0"])
    assert result.exit_code == 2
    assert "degenerate" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["--x", "3/1", "--y", "1/1", "--a", "5", "--b", "5"],  # both pairs
        ["--x", "3/1", "--a", "5", "--b", "5"],  # a profile with half a point
        ["--x", "3/1", "--y", "1/1", "--b", "5"],  # a point with half a profile
        ["--x", "3/1"],  # half a point alone
    ],
)
def test_classify_rejects_mixed_modes(runner, args):
    result = runner.invoke(main, ["classify", "--prime", "3", "--c", "1/9", *args])
    assert result.exit_code == 2
    assert "exactly one complete pair" in result.output and result.stdout == ""


def _grid_rows(runner, c):
    result = runner.invoke(main, [
        "grid", "--prime", "3", "--c", c, "--window", "6", "--format", "csv",
    ])
    assert result.exit_code == 0
    return list(csv.DictReader(io.StringIO(result.output)))


def test_grid_no_inner_box_when_d_is_one(runner):
    rows = _grid_rows(runner, "1/3")
    assert not [r for r in rows if r["region_name"] == "J"]


def test_grid_inner_box_cell_at_d_two(runner):
    result = runner.invoke(main, [
        "grid", "--prime", "3", "--c", "1/9", "--window", "3", "--format", "json",
    ])
    rows = json.loads(result.output)
    cell = next(r for r in rows if (r["a"], r["b"]) == (1, 1))
    assert (cell["name"], cell["index"]) == ("J", 0)


def test_grid_unit_band(runner):
    rows = _grid_rows(runner, "2/1")
    c0 = {(int(r["a"]), int(r["b"])) for r in rows if r["region_name"] == "C"}
    expected = {(a, b) for a in range(-6, 7) for b in range(-6, 7) if max(a, b) == 0}
    assert c0 == expected


def test_grid_small_regime_pins(runner):
    rows = _grid_rows(runner, "3/1")
    by_cell = {(int(r["a"]), int(r["b"])): r["region_name"] for r in rows}
    assert by_cell[(0, 0)] == "Z"
    assert by_cell[(-1, -1)] == "R"


def _grid(runner, fmt, window, c="1/9"):
    result = runner.invoke(main, [
        "grid", "--prime", "3", "--c", c, "--window", str(window), "--format", fmt,
    ])
    assert result.exit_code == 0, result.output
    return result.stdout_bytes


def test_grid_exact_bytes(runner):
    """One CSV table with CRLF rows and an empty index, or one JSON list on
    one line, in scan order (a, then b)."""
    from padic_henon.regions import classify

    cells = [(a, b, classify((a, b), 2)) for a in range(-3, 4) for b in range(-3, 4)]
    csv_text = "a,b,region_name,region_index\r\n" + "".join(
        f"{a},{b},{label.name},{'' if label.index is None else label.index}\r\n" for a, b, label in cells)
    json_text = "[" + ", ".join(
        f'{{"a": {a}, "b": {b}, "name": "{label.name}", "index": {json.dumps(label.index)}}}'
        for a, b, label in cells) + "]\n"
    assert _grid(runner, "csv", 3) == csv_text.encode()
    assert _grid(runner, "json", 3) == json_text.encode()


def test_grid_json_rows_in_scan_order_at_window_60(runner):
    rows = json.loads(_grid(runner, "json", 60))
    span = range(-60, 61)
    assert [(r["a"], r["b"]) for r in rows] == [(a, b) for a in span for b in span]


def test_grid_prints_each_row_as_it_is_made(runner, monkeypatch):
    """Rows are printed before the next row of a is classified, so a grid
    never holds more than one row."""
    from padic_henon import regions

    def classify(profile, d):
        if profile[0] == 0:
            raise RuntimeError("stop at row 0")
        return inner(profile, d)

    inner = regions.classify
    monkeypatch.setattr(regions, "classify", classify)
    for fmt in ("csv", "json"):
        result = runner.invoke(main, ["grid", "--prime", "3", "--c", "1/9", "--window", "2",
                                      "--format", fmt])
        assert isinstance(result.exception, RuntimeError)
        printed = result.output.splitlines()[1:] if fmt == "csv" else json.loads(result.output + "]")
        assert len(printed) == 10


def test_grid_negative_window_usage_error(runner):
    result = runner.invoke(main, ["grid", "--prime", "3", "--c", "1/9", "--window", "-1"])
    assert result.exit_code == 2
    assert "--window" in result.output and result.stdout == ""


def test_verify_builtin_list(runner):
    result = runner.invoke(main, ["verify", "x", "--list"])
    assert result.exit_code == 0
    assert "all-lemmas" in json.loads(result.output)


def test_verify_list_needs_no_campaign(runner):
    result = runner.invoke(main, ["verify", "--list"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout) == ["all-lemmas", "known-anomalies", "negative-control"]


def test_verify_without_campaign_or_list_is_a_usage_error(runner):
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 2
    assert "Usage:" in result.output and "Missing argument 'CAMPAIGN'" in result.output
    assert result.stdout == ""


def test_verify_negative_control_exits_nonzero(runner):
    result = runner.invoke(main, ["verify", "negative-control", "--samples", "30"])
    assert result.exit_code == 1
    summary = json.loads(result.output)
    assert not summary["ok"]


def test_verify_sandwich_with_a_leaking_invariant_region_exits_1(runner, tmp_path, monkeypatch):
    # A negative control for the lower bound.  With SMALL's invariant region
    # taken to be A1 = {a <= d, b >= 0}, which maps onto A2, every outcome of
    # the one-step certificate fails: one per cell off the column a = d, and
    # window + 1 per cell on it.  Every sample of A1 leaves at step 1, and the
    # escape half, which passes alone, adds no failure.
    from padic_henon import verifier
    from padic_henon.regions import Regime, RegionLabel, region_profiles

    spec = {"id": "leak", "kind": "sandwich", "p": 3, "c": "3/1", "samples": 8, "window": 6,
            "seed": 3, "steps": 12}
    path = tmp_path / "leak.json"
    path.write_text(json.dumps({"specs": [spec]}))
    assert runner.invoke(main, ["verify", str(path)]).exit_code == 0
    monkeypatch.setitem(verifier._INVARIANT, Regime.SMALL, ("A", 1))
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 1, result.output
    (report,) = json.loads(result.stdout)["reports"]
    cells = region_profiles(RegionLabel(Regime.SMALL, "A", 1), -1, 12)
    outcomes = sum(13 if a == -1 else 1 for a, _ in cells)
    invariance, *leaving = report["failures"]
    assert invariance == {"invariance": "A1", "counterexamples": outcomes}
    assert len(leaving) == spec["samples"]
    for failure in leaving:
        assert set(failure) == {"start", "regions"}
        regions = failure["regions"]
        assert len(regions) == spec["steps"] + 1 and regions[:2] == ["A1", "A2"]


@pytest.mark.parametrize("args", [
    ["verify", "negative-control", "--samples", "30"],
    ["orbit", "--prime", "5", "--c", "5/1", "--x", "255/1", "--y", "10/1", "--steps", "8"],
    ["measure", "-p", "3", "--tn", "--k", "2", "--n", "8"],
    ["measure", "-p", "3", "--c", "1/3", "--region", "J0", "--window", "8"],
    ["fixed-points", "--prime", "5", "--c", "-20/1", "--precision", "20"],
], ids=["verify", "orbit", "measure-tn", "measure-region", "fixed-points"])
def test_indented_output_is_one_json_document(runner, args):
    # Written piece by piece, the output is still exactly json.dumps(indent=1).
    result = runner.invoke(main, args)
    assert result.exit_code in (0, 1), result.output
    assert result.stdout == json.dumps(json.loads(result.stdout), indent=1) + "\n"


def test_verify_campaign_file(runner, tmp_path):
    campaign = {
        "name": "mini",
        "specs": [
            {
                "id": "inner-box", "kind": "transition", "p": 3, "c": "1/9",
                "source": {"regime": "large", "name": "J", "index": 0},
                "samples": 40, "window": 8, "seed": 5,
            },
            {
                "id": "skip-me", "kind": "transition", "p": 3, "c": "1/3",
                "source": {"regime": "large", "name": "J", "index": 0},
                "samples": 40, "window": 8, "seed": 5,
            },
        ],
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(campaign))
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)
    assert summary["ok"] and summary["skipped"] == 40


def test_verify_transition_past_the_bit_budget_is_uncertified(runner, tmp_path):
    # 400,000 digits per coordinate: one exact inverse step outgrows the
    # default 1,000,000-bit budget, so each sample is skipped, not a failure.
    spec = {"id": "huge-digits", "kind": "transition", "p": 3, "c": "1/9",
            "source": {"regime": "large", "name": "J", "index": 0},
            "window": 10, "digit_count": 400000, "samples": 2}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"specs": [spec]}))
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.stdout)
    (report,) = summary["reports"]
    assert (report["passes"], report["skipped"], report["undefined_inverse"]) == (0, 2, 0)
    assert report["notes"] == ["2 samples uncertified"] and summary["ok"]


_T1 = {"regime": "large", "name": "T", "index": 1}


def _one_spec(**fields):
    spec = {"id": "bad", "kind": "transition", "p": 3, "c": "1/1",
            "source": {"regime": "small", "name": "A", "index": 1}, "samples": 5}
    return json.dumps({"specs": [{**spec, **fields}]})


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"specs": [', "not valid JSON"),
        ('{"name": "no specs key"}', 'a campaign is an object with a "specs" list'),
        ('{"specs": [5]}', 'a spec is an object with a string "id", got 5'),
        (json.dumps({"specs": [{"id": "bad", "kind": "transition", "p": 3, "c": "1/9"}]}),
         "kind 'transition' needs a source region"),
        (_one_spec(c="0/1"), "c = 0 is degenerate"),
        (_one_spec(p=4, c="4"), "prime must be an odd prime >= 3, got 4"),
        (_one_spec(c="1/9"), "source A1 is small, but c = 1/9 is in regime large"),
        (_one_spec(samples=0), "samples must be at least 1"),
        (_one_spec(kind="exhaustive", window=-5), "window at least 0"),
        *[(_one_spec(kind=kind, c="1/3", source=_T1), "overlay region T1 needs d >= 2")
          for kind in ("exhaustive", "transition", "escape")],
        (_one_spec(kind="exhaustive", c="1/3", source={"regime": "large", "name": "J", "index": 0},
                   expected=[{"regime": "large", "name": "T", "index": 0}]),
         "overlay region T0 needs d >= 2"),
        # A target from another regime used to be judged: the first ran with
        # 77 failing outcomes and exit 1, the second passed with exit 0.
        (json.dumps({"specs": [{"id": "bad", "kind": "exhaustive", "p": 3, "c": "9/1", "window": 6,
                                "source": {"regime": "small", "name": "A", "index": 1},
                                "expected": [{"regime": "large", "name": "G", "index": None}]}]}),
         "target G is large, but c = 9/1 is in regime small"),
        (_one_spec(c="9/1", expected=[{"regime": "small", "name": "A", "index": 2},
                                      {"regime": "unit", "name": "M", "index": 3}]),
         "target M3 is unit, but c = 9/1 is in regime small"),
        (_one_spec(source={"regime": "small", "name": "A", "index": True}),
         "index must be an integer or null, got True"),
        (_one_spec(kind="exhaustive", c="3/1", window=4, expected=[]),
         '"expected" must be a nonempty list'),
        # A growth law belongs to its escaping region, so no spec names one.
        (_one_spec(kind="sandwich", growth_check="schedule"), "unknown field 'growth_check'"),
        (_one_spec(kind="escape", c="1/9", source={"regime": "large", "name": "C", "index": -1}),
         "C family starts at index 1"),
        (_one_spec(kind="sandwich", c="1/9"),
         "source applies only to transition, exhaustive and escape specs, not 'sandwich'"),
        (json.dumps({"specs": [{"id": "bad", "kind": "worked_orbits", "p": 3, "c": "banana"}]}),
         "c applies only to transition, exhaustive, escape and sandwich specs, not 'worked_orbits'"),
        (_one_spec(kind="exhaustive", c="3/1", samples=7),
         "samples applies only to transition, escape and sandwich specs, not 'exhaustive'"),
        (_one_spec(c="3/1", sample=7), "unknown field 'sample'"),
        (_one_spec(kind="escape", c="1/9", source={"regime": "large", "name": "A", "index": 10_001}),
         "A family index 10001 is above 10000"),
        # A start above the escape threshold would count as escaped at step 0.
        (_one_spec(kind="escape", c="3/1"), "escape threshold 8 is below the window 12"),
        (_one_spec(kind="escape", c="3/1", source={"regime": "small", "name": "Z", "index": None},
                   escape_exp=-1),
         "escape threshold -1 is below the window 12"),
        (json.dumps({"specs": [{"id": "bad", "kind": "sandwich", "p": 3, "c": "1/9",
                                "escape_exp": 5, "window": 6}]}),
         "escape threshold 5 is below the window 6"),
        (_one_spec(kind="escape", c="3/1", window=6, steps=0), "steps at least 1"),
        (json.dumps({"specs": [{"id": "bad", "kind": "sandwich", "p": 3, "c": "1/9", "steps": 100_001}]}),
         "steps at least 1 and at most 100000"),
        ('{"specs": []}', 'the "specs" list is empty'),
        (_one_spec(kind="exhaustive", c="3/1", window=1001), "window at least 0 and at most 1000"),
        (_one_spec(c="3/1", digit_count=500_001), "digit_count must be at least 1 and at most 500000 at p = 3"),
        (_one_spec(c="3/1", samples=100_001), "samples must be at least 1 and at most 100000"),
        (_one_spec(p=318665857834031151167461), "318665857834031151167461 is not prime"),
        (_one_spec(p=2**89 - 1), "prime must be below 3317044064679887385961981"),
    ],
    ids=["bad-json", "missing-specs", "spec-not-object", "transition-without-source", "c-zero", "p-four", "regime-mismatch", "samples-zero",
         "window-negative", "overlay-exhaustive", "overlay-transition", "overlay-escape",
         "overlay-target", "target-regime-exhaustive", "target-regime-transition", "index-true",
         "expected-empty", "growth-check-on-sandwich",
         "large-c-minus-one", "source-on-sandwich", "c-on-worked-orbits", "samples-on-exhaustive",
         "unknown-key", "index-above-bound", "escape-threshold-default",
         "escape-threshold-override", "sandwich-threshold", "escape-steps-zero", "sandwich-steps-above-bound",
         "specs-empty",
         "window-above-1000", "digit-count-above-bound", "samples-above-bound", "pseudoprime", "prime-above-bound"],
)
def test_verify_malformed_campaign_exits_2(runner, tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "invalid campaign" in result.output and message in result.output
    assert result.stdout == ""


def test_verify_campaign_that_is_not_utf8_exits_2(runner, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"specs": [{"id": "caf\u00e9"}]}'.encode("latin-1"))
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 2, result.output
    assert "invalid campaign" in result.output and "not UTF-8 text" in result.output
    assert result.stdout == ""


def _fresh(code: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports the package from src/."""
    src = str(Path(padic_henon.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_numpy_unloaded():
    """Nothing in the package loads numpy: not a cold `import padic_henon.cli`,
    and not the window checks of an exhaustive and a sandwich spec."""
    code = textwrap.dedent("""
        import json, sys
        import padic_henon.cli
        assert "numpy" not in sys.modules, "numpy loaded by import padic_henon.cli"
        from padic_henon.verifier import LemmaSpec, run_spec
        from padic_henon.regions import Regime, RegionLabel
        exhaustive = LemmaSpec(identifier="ex", kind="exhaustive", p=3, c="1/9",
                               source=RegionLabel(Regime.LARGE, "J", 0), window=12)
        sandwich = LemmaSpec(identifier="sw", kind="sandwich", p=3, c="1/9",
                             samples=8, window=6, steps=60)
        reports = [run_spec(exhaustive), run_spec(sandwich)]
        print(json.dumps({"numpy": "numpy" in sys.modules,
                          "gridcheck": "padic_henon.gridcheck" in sys.modules,
                          "reports": [[r.ok, r.passes, r.notes] for r in reports]}))
    """)
    out = json.loads(_fresh(code))
    assert out["gridcheck"] and not out["numpy"]
    (ex_ok, ex_passes, _), (sw_ok, sw_passes, sw_notes) = out["reports"]
    assert ex_ok and ex_passes > 0
    assert sw_ok and sw_passes > 0
    assert "one-step invariance of J0 certified on window" in sw_notes


_BASE = ["padic_henon", "padic_henon.cli", "padic_henon.fib", "padic_henon.padics",
         "padic_henon.regions"]


@pytest.mark.parametrize("args, extra", [
    ("classify --prime 3 --c 1/9 --a 1 --b 1", []),
    ("grid --prime 3 --c 1/9 --window 2 --format csv", []),
    ("measure -p 3 --tn --k 2 --n 4", ["measure"]),
    ("measure -p 3 --c 3/1 --region Z --window 4", ["measure"]),
    ("orbit --prime 3 --c 1/1 --x -1/1 --y -1/1 --steps 9", ["dynamics"]),
    ("fixed-points --prime 3 --c 2/9", ["dynamics"]),
    ("verify x --list", ["dynamics", "verifier"]),
])
def test_each_command_loads_only_the_modules_it_runs(args, extra):
    """A fresh process loads the package modules its command runs and no
    others: classify and grid never load dynamics, verifier, measure or
    gridcheck; measure never loads dynamics or verifier; orbit and
    fixed-points never load verifier or measure; verify --list never loads
    measure."""
    code = textwrap.dedent(f"""
        import contextlib, io, json, sys
        from padic_henon.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            main({args.split()!r}, standalone_mode=False)
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("padic_henon"))))
    """)
    assert json.loads(_fresh(code)) == sorted(_BASE + [f"padic_henon.{m}" for m in extra])


def test_package_root_loads_names_on_first_access():
    """`import padic_henon` loads no submodule; `import *` binds every name in
    `__all__`, each the object its home module defines."""
    code = textwrap.dedent("""
        import json, sys
        import padic_henon
        loaded = sorted(m for m in sys.modules if m.startswith("padic_henon"))
        namespace = {}
        exec("from padic_henon import *", namespace)
        unbound = [n for n in padic_henon.__all__ if n not in namespace]
        foreign = [n for n in padic_henon.__all__ if n != "__version__"
                   and namespace[n] is not getattr(sys.modules[namespace[n].__module__], n)]
        print(json.dumps([loaded, unbound, foreign]))
    """)
    assert json.loads(_fresh(code)) == [["padic_henon"], [], []]


def test_package_root_names_survive_loaded_submodules():
    """With every submodule already loaded, each root name is still its home
    module's object: the function fib is not shadowed by the module fib."""
    import importlib

    import padic_henon.fib  # noqa: F401  (binds nothing new: the name stays the function)

    for name in padic_henon.__all__:
        value = getattr(padic_henon, name)
        if name == "__version__":
            assert value == "0.1.0"
            continue
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("padic_henon.") and getattr(home, name) is value, name
    assert callable(padic_henon.fib)
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        padic_henon.nonesuch


def test_the_map_is_its_parameter_c():
    """Every function of the map takes c itself; no wrapper restates it."""
    with pytest.raises(AttributeError, match="no attribute 'MapParams'"):
        padic_henon.MapParams


def test_residues_are_the_one_finite_precision_type():
    """Fixed points are residues, printed by `digit_view`; no second type holds digits."""
    with pytest.raises(AttributeError, match="no attribute 'TruncatedPadic'"):
        padic_henon.TruncatedPadic


def test_verify_seed_and_samples_match_library_run(runner):
    from dataclasses import replace

    from padic_henon.verifier import (
        LemmaSpec,
        builtin_campaign,
        campaign_summary,
        run_campaign,
    )

    result = runner.invoke(main, ["verify", "negative-control", "--seed", "7", "--samples", "40"])
    assert result.exit_code == 1
    # The overrides reach only the kinds that read them: the exhaustive spec keeps
    # its defaults.
    specs = [replace(s, seed=7, samples=40) if s.kind == "transition" else s
             for s in builtin_campaign("negative-control")]
    assert [s.kind for s in specs] == ["transition", "exhaustive"]
    library = campaign_summary(run_campaign(specs))
    cli = json.loads(result.stdout)
    for summary in (cli, library):
        for report in summary["reports"]:
            del report["wall_time"]
    assert cli == library
    overrides = [(r["spec"]["seed"], r["spec"]["samples"]) for r in cli["reports"]]
    assert overrides == [(7, 40), (0, 200)]
    for report in cli["reports"]:
        assert LemmaSpec.from_json(report["spec"]).to_json() == report["spec"]


def test_verify_samples_below_one_usage_error(runner):
    result = runner.invoke(main, ["verify", "negative-control", "--samples", "-3"])
    assert result.exit_code == 2
    assert "--samples" in result.output and result.stdout == ""


def test_verify_missing_campaign(runner):
    result = runner.invoke(main, ["verify", "no-such-campaign.json"])
    assert result.exit_code == 2


def test_measure_tn_rows(runner):
    result = runner.invoke(main, ["measure", "--prime", "3", "--tn", "--k", "2", "--n", "6"])
    obj = json.loads(result.output)
    assert obj["rows"][0]["exact"] == "4/1"
    assert obj["rows"][0]["ball_product"] == "9"
    assert obj["rows"][0]["sphere_to_ball_ratio"] == "4/9"
    sums = [r["partial_sum"] for r in obj["rows"]]
    assert sums[3] == "3040/1"


def test_measure_tn_prints_every_digit_past_the_str_limit(runner):
    from padic_henon.measure import tn_rows

    result = runner.invoke(main, ["measure", "-p", "3", "--tn", "--k", "2", "--n", "18"])
    assert result.exit_code == 0, result.output
    rows = json.loads(result.stdout)["rows"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [
            {"n": row["n"], **{key: str(row[key]) if key == "ball_product"
                               else f"{row[key].numerator}/{row[key].denominator}"
                               for key in ("exact", "ball_product", "sphere_to_ball_ratio",
                                           "partial_sum")}}
            for row in tn_rows(18, 2, 3)
        ]
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(rows[-1]["partial_sum"]) > 4300 and len(rows[-1]["ball_product"]) > 4300
    assert rows == expected


@pytest.mark.parametrize("args", [
    ["-p", "3", "--n", "26"],  # 2 * F(28) = 1,028,458 bits
    ["-p", "3", "--n", "1000000000"],
    ["-p", "3", "--k", "1000000000000", "--n", "0"],
    ["-p", "1000003", "--n", "21"],  # 20 * F(23) = 927,360 bits
])
def test_measure_tn_over_the_size_cap_usage_error(runner, args):
    result = runner.invoke(main, ["measure", "--tn", *args])
    assert result.exit_code == 2 and result.stdout == ""
    assert "lower --n or --k" in result.output


@pytest.mark.parametrize("args", [
    ["--region", "Z", "--c", "3/1"],
    ["--region", "Z"],
    ["--c", "3/1"],
])
def test_measure_rejects_mixed_modes(runner, args):
    result = runner.invoke(main, ["measure", "--prime", "3", "--tn", *args, "--n", "1"])
    assert result.exit_code == 2 and result.stdout == ""
    assert "--tn takes neither --region nor --c" in result.output


@pytest.mark.parametrize("args,message", [
    (["--c", "3/1", "--region", "Z", "--k", "5", "--n", "3", "--window", "2"],
     "--k is read only with --tn"),
    (["--c", "3/1", "--region", "Z", "--n", "3"], "--n is read only with --tn"),
    (["--tn", "--n", "1", "--window", "7"], "--window is read only without --tn"),
    (["--tn", "--window", "8"], "--window is read only without --tn"),
], ids=["region-k", "region-n", "tn-window", "tn-default-window"])
def test_measure_rejects_the_options_of_the_other_mode(runner, args, message):
    # A given value counts even when it equals the default.
    result = runner.invoke(main, ["measure", "--prime", "3", *args])
    assert result.exit_code == 2 and result.stdout == ""
    assert message in result.output


def test_measure_tn_k_below_two_usage_error(runner):
    result = runner.invoke(main, ["measure", "--prime", "3", "--tn", "--k", "1"])
    assert result.exit_code == 2
    assert "--k" in result.output and result.stdout == ""


def test_measure_tn_negative_n_usage_error(runner):
    result = runner.invoke(main, ["measure", "--prime", "3", "--tn", "--n", "-1"])
    assert result.exit_code == 2
    assert "--n" in result.output and result.stdout == ""


def test_measure_region_negative_window_usage_error(runner):
    result = runner.invoke(main, [
        "measure", "--prime", "3", "--c", "3", "--region", "Z", "--window", "-2",
    ])
    assert result.exit_code == 2
    assert "--window" in result.output and result.stdout == ""


def test_measure_region_window_has_the_campaign_bound(runner):
    # Each row is a fraction of W-digit powers of p: W = 16,000 took 28 s.
    args = ["measure", "--prime", "3", "--c", "3/1", "--region", "Z", "--window"]
    result = runner.invoke(main, [*args, "1001"])
    assert result.exit_code == 2
    assert "--window" in result.output and "0<=x<=1000" in result.output and result.stdout == ""
    result = runner.invoke(main, [*args, "1000"])
    assert result.exit_code == 0 and json.loads(result.output)["exact"] == "4/9"


def test_measure_overlay_below_d_two_usage_error(runner):
    result = runner.invoke(main, ["measure", "--prime", "3", "--c", "1/3", "--region", "T1"])
    assert result.exit_code == 2
    assert "overlay region T1 needs d >= 2" in result.output and result.stdout == ""


def test_measure_region_window(runner):
    result = runner.invoke(main, [
        "measure", "--prime", "3", "--c", "3/1", "--region", "Z", "--window", "5",
    ])
    obj = json.loads(result.output)
    assert obj["exact"] == "4/9"


def test_measure_unknown_region_usage_error(runner):
    result = runner.invoke(main, [
        "measure", "--prime", "3", "--c", "1/3", "--region", "Q7", "--window", "5",
    ])
    assert result.exit_code == 2
    assert "unknown LARGE region Q7" in result.output


def test_measure_family_index_above_the_bound_usage_error(runner):
    result = runner.invoke(main, [
        "measure", "--prime", "3", "--c", "1/9", "--region", "A10001", "--window", "8",
    ])
    assert result.exit_code == 2
    assert "A family index 10001 is above 10000" in result.output and result.stdout == ""


@pytest.mark.parametrize(
    "args,message",
    [
        (["orbit", "--prime", "3", "--x", "1/1", "--y", "1/1"], "--c is required"),
        (["classify", "--prime", "3", "--a", "0", "--b", "0"], "--c is required"),
        (["grid", "--prime", "3"], "--c is required"),
        (["fixed-points", "--prime", "3"], "--c is required"),
        (["grid", "--prime", "3", "--c", "0"], "c = 0 is degenerate"),
        (["measure", "--prime", "3", "--c", "1/3"], "give --tn, or both --region and --c"),
        (["measure", "--prime", "3", "--region", "Z"], "give --tn, or both --region and --c"),
        (["measure", "--prime", "3", "--c", "0", "--region", "Z"], "c = 0 is degenerate"),
    ],
    ids=["orbit-no-c", "classify-no-c", "grid-no-c", "fixed-points-no-c", "grid-c-zero",
         "measure-no-region", "measure-no-c", "measure-c-zero"],
)
def test_missing_or_degenerate_c_exits_2(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert message in result.output and result.stdout == ""


def test_fixed_points_single(runner):
    result = runner.invoke(main, ["fixed-points", "--prime", "5", "--c", "1/4"])
    obj = json.loads(result.output)
    assert obj["count"] == 1
    assert obj["exact_fixed_points"][0]["x"] == {"num": "1", "den": "2", "p": 5}


@pytest.mark.parametrize("c,roots", [
    ("1/4", [{"p": 5, "val": 0, "digits": [3, 2, 2, 2]}]),
    ("-20/1", [{"p": 5, "val": 1, "digits": [1, 0, 0]}, {"p": 5, "val": 0, "digits": [1, 4, 4, 4]}]),
])
def test_fixed_points_digits_pinned(runner, c, roots):
    result = runner.invoke(main, ["fixed-points", "--prime", "5", "--c", c, "--precision", "4"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["fixed_points"] == [{"x": r, "y": r} for r in roots]


def test_fixed_points_none(runner):
    result = runner.invoke(main, ["fixed-points", "--prime", "5", "--c", "-1/4"])
    obj = json.loads(result.output)
    assert obj["count"] == 0
    assert "no fixed points" in obj["note"]


def test_fixed_points_pair_and_cycle(runner):
    result = runner.invoke(main, ["fixed-points", "--prime", "5", "--c", "-20/1"])
    obj = json.loads(result.output)
    assert obj["count"] == 2
    exact = {pt["x"]["num"] for pt in obj["exact_fixed_points"]}
    assert exact == {"5", "-4"}
    assert len(obj["three_cycle"]) == 3


@pytest.mark.parametrize("precision", ["0", "-2"])
def test_fixed_points_precision_below_one_usage_error(runner, precision):
    # 1 - 4c = 9 is a square, so these used to reach the square root and crash.
    result = runner.invoke(main, ["fixed-points", "--prime", "5", "--c", "-2/1",
                                  "--precision", precision])
    assert result.exit_code == 2
    assert "--precision" in result.output and result.stdout == ""


def test_fixed_points_precision_above_its_bound_usage_error(runner):
    # 10^6 digits at p = 3 took 8.3 s and 383 MB; 10^7 had not finished in 40 s.
    result = runner.invoke(main, ["fixed-points", "--prime", "3", "--c", "-2/1",
                                  "--precision", "1000001"])
    assert result.exit_code == 2 and result.stdout == ""
    assert "'--precision': 1000001 digits at p = 3 are 2000002 bits" in result.output
    assert "at most 2000000 bits (1000000 digits)" in result.output


def test_fixed_points_precision_is_bounded_in_bits(runner):
    # 2 * 10^6 bits: 10^6 digits at p = 3, but only 32,786 at p = 2^61 - 1,
    # where 32,000 digits took 49.7 s.
    p = 2305843009213693951
    result = runner.invoke(main, ["fixed-points", "--prime", str(p), "--c", "2/9",
                                  "--precision", "32787"])
    assert result.exit_code == 2 and result.stdout == ""
    assert "'--precision': 32787 digits at p = 2305843009213693951 are 2000007 bits" in result.output
    assert "at most 2000000 bits (32786 digits)" in result.output


def test_verify_samples_above_its_bound_usage_error(runner):
    # A report keeps every failure: 80,000 failing samples peaked at 121 MB.
    result = runner.invoke(main, ["verify", "negative-control", "--samples", "100001"])
    assert result.exit_code == 2 and result.stdout == ""
    assert "--samples" in result.output and "1<=x<=100000" in result.output


def test_fixed_points_exhausted_precision_usage_error(runner):
    # 1 - 4c = 6 and its root q = 1 mod 5: 1 - q cancels the one digit asked for.
    args = ["fixed-points", "--prime", "5", "--c", "-5/4", "--precision"]
    result = runner.invoke(main, [*args, "1"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "raise the precision" in result.output and result.stdout == ""
    result = runner.invoke(main, [*args, "2"])
    assert result.exit_code == 0, result.output
    assert [pt["x"]["val"] for pt in json.loads(result.output)["fixed_points"]] == [1, 0]


def test_fixed_points_degenerate_c_usage_error(runner):
    # c = 0 gives q = 1 exactly, so no precision certifies (1 - q)/2 = 0.
    result = runner.invoke(main, ["fixed-points", "--prime", "5", "--c", "0"])
    assert result.exit_code == 2
    assert "c = 0 is degenerate" in result.output and result.stdout == ""
