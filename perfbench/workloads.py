"""The benchmark's three workloads.

Each workload is a closed loop with one caller.  `setup()` imports what the
workload needs and builds its inputs from the seed; `run_pass()` runs one pass
of the fixed input set, times every operation, and then checks every output
against the reference.  Passes of one workload and seed do identical work, so
their reports must be identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

perf = time.perf_counter

HERE = Path(__file__).resolve().parent


def reference(workload: str) -> dict:
    """The pinned outputs of one workload (written by pin.py)."""
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[workload]


# A fixed pure-Python loop, timed just before every timed call: it samples how
# fast the (shared) machine is running at that moment.
CALIBRATION_LOOPS = 20_000


def calibration_s() -> float:
    start = perf()
    total = 0
    for k in range(CALIBRATION_LOOPS):
        total += k * k
    return perf() - start


class Timings:
    """Seconds of every timed call of a pass, each with a calibration sample."""

    def __init__(self):
        self.entries = []  # (call index, is an operation, start, seconds, calibration seconds)

    def op(self, fn, *args, **kwargs):
        """Time one operation: it counts in the latency percentiles."""
        return self._time(True, fn, args, kwargs)

    def phase(self, fn, *args, **kwargs):
        """Time work of the pass that is not an operation (counts in throughput only)."""
        return self._time(False, fn, args, kwargs)

    def _time(self, is_op, fn, args, kwargs):
        cal = calibration_s()
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            self.entries.append((len(self.entries), is_op, start, perf() - start, cal))


@dataclass
class PassResult:
    wall: float  # seconds for the whole pass, checks excluded
    timings: list  # Timings.entries
    outcomes: int  # checked outcomes in the pass
    report: dict  # canonical summary; identical across passes of one seed
    attempted: int
    failures: list  # one message per operation with wrong output
    procs: list = field(default_factory=list)  # cli-cold traced: per-process phase times
    notes: dict = field(default_factory=dict)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _drop_wall_time(obj):
    if isinstance(obj, dict):
        return {k: _drop_wall_time(v) for k, v in obj.items() if k != "wall_time"}
    if isinstance(obj, list):
        return [_drop_wall_time(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# all-lemmas: the bundled campaign through verifier.run_campaign.
# ---------------------------------------------------------------------------


class AllLemmas:
    """`verify all-lemmas` in-process: one operation is one spec (135 per pass).

    Spec seeds are replaced by the workload seed, as `verify --seed` does; a
    seed of None keeps the bundled seeds, where the campaign totals are pinned.
    """

    name = "all-lemmas"
    min_passes = 2

    def __init__(self, seed, out_dir: Path):
        self.seed = seed

    def setup(self) -> float:
        from padic_henon import regions, verifier

        imported = perf()
        self.regions, self.verifier = regions, verifier
        self.specs = verifier.builtin_campaign("all-lemmas")
        if self.seed is not None:
            for spec in self.specs:
                spec.seed = self.seed
        return imported

    def run_pass(self, tracer=None) -> PassResult:
        run_campaign = self.verifier.run_campaign
        # Each pass is one `verify all-lemmas` process worth of work, so the
        # memoized region enumeration starts cold every time.
        self.regions.region_profiles.cache_clear()
        reports, timings = [], Timings()
        start = perf()
        for spec in self.specs:
            reports.extend(timings.op(run_campaign, [spec]))
        wall = perf() - start
        summary = self.verifier.campaign_summary(reports)
        totals = {k: summary[k] for k in ("specs", "passes", "failures", "skipped", "undefined_inverse")}
        totals["vacuous"] = sum(r.passes == 0 for r in reports)
        report = {"totals": totals, "digest": _digest(_drop_wall_time(summary["reports"]))}
        outcomes = summary["passes"] + summary["failures"] + summary["skipped"]
        return PassResult(wall, timings.entries, outcomes, report, len(reports), self._check(reports))

    @staticmethod
    def _check(reports) -> list:
        ref = reference("all-lemmas")
        failures = []
        ids = [r.spec.identifier for r in reports]
        if len(ids) != len(ref["specs"]) or set(ids) != set(ref["specs"]):
            return [f"campaign has {len(reports)} specs, not the {len(ref['specs'])} pinned ones"]
        for r in reports:
            pin = ref["specs"][r.spec.identifier]
            outcomes = r.passes + len(r.failures) + r.skipped
            problems = []
            if r.failures:
                problems.append(f"{len(r.failures)} failures")
            if outcomes != pin["outcomes"]:
                problems.append(f"passes + failures + skipped = {outcomes}, pinned {pin['outcomes']}")
            if (r.passes == 0) != pin["vacuous"]:
                problems.append(f"passes = {r.passes}, pinned vacuous = {pin['vacuous']}")
            if "passes" in pin and r.passes != pin["passes"]:
                problems.append(f"passes = {r.passes}, pinned {pin['passes']}")
            if problems:
                failures.append(f"{r.spec.identifier}: " + "; ".join(problems))
        return failures

    def check_bundled_totals(self, report) -> list:
        """Campaign totals at the bundled seeds, pinned at the seed commit."""
        pinned = reference("all-lemmas")["bundled_totals"]
        return [f"{k} = {report['totals'][k]}, pinned {v}"
                for k, v in pinned.items() if report["totals"][k] != v]


# ---------------------------------------------------------------------------
# window-1000: criteria 6 and 7 at W = 1000.
# ---------------------------------------------------------------------------

WINDOW = 1000
DS = (-3, -1, 0, 1, 2, 3)
AGREEMENT_CORE = 150
AGREEMENT_SAMPLES = 500


class Window1000:
    """Partition, classifier agreement and every one-step transition claim at
    W = 1000 with cancel_depth = W, for six values of d, plus the two claims
    known to be false.  One operation is one source-label transition check."""

    name = "window-1000"
    min_passes = 1  # a pass takes 25-40 s; two would not fit the run budget

    def __init__(self, seed, out_dir: Path):
        self.seed = seed

    def setup(self) -> float:
        from padic_henon import gridcheck
        from padic_henon.regions import Regime, RegionLabel, regime_of_d

        imported = perf()
        self.gridcheck = gridcheck
        # The loop over transition_sources is check_all_transitions(d, W,
        # include_t=False, cancel_depth=W), unrolled so each label is timed.
        self.checks = [
            (d, label, 1)
            for d in DS
            for label in gridcheck.transition_sources(regime_of_d(d), d, WINDOW, include_t=False)
        ]
        self.known_false = [
            (-3, RegionLabel(Regime.SMALL, "A", 5), 2),  # two-step flat-band collapse
            (2, RegionLabel(Regime.LARGE, "T", 1), 1),  # overlay descent at the first sphere
        ]
        return imported

    def run_pass(self, tracer=None) -> PassResult:
        gc = self.gridcheck
        partitions, agreements, results, timings = {}, {}, [], Timings()
        start = perf()
        for d in DS:
            partitions[d] = timings.phase(gc.check_partition, d, WINDOW)
            agreements[d] = timings.phase(self._agreement, d)
        for d, label, depth in self.checks + self.known_false:
            check = timings.op(gc.check_transition_profiles, label, d, WINDOW, depth=depth,
                               cancel_depth=WINDOW)
            results.append((d, label, depth, check))
        wall = perf() - start

        ref = reference("window-1000")
        failures = []
        outcomes = 0
        for d in DS:
            part = partitions[d]
            outcomes += part.cells + (agreements[d] if isinstance(agreements[d], int) else 0)
            if not part.exact or part.cells != ref["partition_cells"]:
                failures.append(f"d={d}: partition not exact on {part.cells} cells")
            if agreements[d] != ref["agreement_cells"]:
                failures.append(f"d={d}: classifier agreement gave {agreements[d]!r}")
        rows = []
        for d, label, depth, check in results:
            key = f"{d}:{label}:{depth}"
            got = [check.profiles_checked, check.outcomes_checked, len(check.counterexamples)]
            outcomes += check.outcomes_checked
            rows.append([key, got, [[ce.source_profile, ce.outcome_profile, ce.cancellation_exponent]
                                    for ce in check.counterexamples]])
            if got != ref["checks"].get(key):
                failures.append(f"{key}: cells, outcomes, counterexamples = {got}, "
                                f"pinned {ref['checks'].get(key)}")
        a5 = results[-2][3].counterexamples
        if not a5 or (a5[0].source_profile, a5[0].outcome_profile) != ((0, -1), (1, -2)):
            failures.append("two-step A5 check at d=-3 lost its counterexample (0, -1) -> (1, -2)")
        report = {
            "checks": len(results),
            "outcomes": outcomes,
            "digest": _digest([rows, [[d, partitions[d].uncovered, partitions[d].overlaps,
                                       agreements[d]] for d in DS]]),
        }
        return PassResult(wall, timings.entries, outcomes, report, len(results) + 2 * len(DS),
                          failures)

    def _agreement(self, d):
        """Cells checked, or the disagreement message."""
        try:
            rng = random.Random(f"{self.seed}:{d}")
            return self.gridcheck.classifier_agreement(d, AGREEMENT_CORE, AGREEMENT_SAMPLES, rng)
        except AssertionError as exc:
            return str(exc)


# ---------------------------------------------------------------------------
# cli-cold: fresh CLI processes, package not installed.
# ---------------------------------------------------------------------------

MALFORMED_CAMPAIGNS = {
    "malformed-json.json": '{"specs": [',
    "missing-specs.json": '{"name": "no specs key"}',
    "c-zero.json": json.dumps({"specs": [{
        "id": "c-zero", "kind": "transition", "p": 3, "c": "0",
        "source": {"regime": "small", "name": "A", "index": 1}, "samples": 5}]}),
    "p-four.json": json.dumps({"specs": [{
        "id": "p-four", "kind": "transition", "p": 4, "c": "4",
        "source": {"regime": "small", "name": "A", "index": 1}, "samples": 5}]}),
    "regime-mismatch.json": json.dumps({"specs": [{
        "id": "regime-mismatch", "kind": "transition", "p": 3, "c": "1",
        "source": {"regime": "small", "name": "A", "index": 1}, "samples": 5}]}),
}

# Values of c at p = 3 over the three regimes: d = -3, -1, 0, 1, 2.
C_CHOICES = ("27/1", "3/1", "1/1", "1/3", "1/9")
# (c, region, window) for `measure --region`; each region is non-empty there.
MEASURE_REGIONS = (("3/1", "Z", 6), ("1/3", "J0", 8), ("1/1", "C0", 6), ("27/1", "A3", 6))
UNITS = (1, 2, 4, 5, 7, 8)


def _rational(rng, lo: int, hi: int) -> str:
    """A p = 3 rational 'num/den' with norm exponent drawn from [lo, hi]."""
    a = rng.randint(lo, hi)
    num, den = rng.choice(UNITS), rng.choice(UNITS)
    if a >= 0:
        den *= 3**a
    else:
        num *= 3**-a
    return f"{num}/{den}"


class CliCold:
    """A fixed mix of fresh `python -m padic_henon.cli` processes; one
    operation is one process.  Exit codes and stdout are checked against the
    same command run in-process."""

    name = "cli-cold"
    min_passes = 2
    rounds = 3  # each round draws fresh arguments: 3 x 16 = 48 processes per pass

    def __init__(self, seed, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.root = HERE.parent
        self._expected = None

    def setup(self) -> float:
        from click.testing import CliRunner
        from padic_henon import cli

        imported = perf()
        self.cli, self.runner = cli, CliRunner()
        inputs = self.out_dir / "cli-inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        for fname, text in MALFORMED_CAMPAIGNS.items():
            (inputs / fname).write_text(text, encoding="utf-8")
        rng = random.Random(self.seed)
        self.commands = []
        for _ in range(self.rounds):
            self.commands += self._round(rng, inputs)
        self.env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        return imported

    @staticmethod
    def _round(rng, inputs: Path) -> list:
        """One round of the mix: (argv, exit code the CLI contract requires)."""
        p = ["--prime", "3"]
        c_region, region, window = rng.choice(MEASURE_REGIONS)
        return [
            (["classify", *p, "--c", rng.choice(C_CHOICES), "--x", _rational(rng, -6, 6),
              "--y", _rational(rng, -6, 6)], 0),
            (["classify", *p, "--c", rng.choice(C_CHOICES), "--a", str(rng.randint(-40, 40)),
              "--b", str(rng.randint(-40, 40))], 0),
            (["orbit", "--prime", "5", "--c", "5/1", "--x", "255/1", "--y", "10/1", "--steps", "8"], 0),
            (["grid", *p, "--c", rng.choice(C_CHOICES), "--window", "12", "--format", "csv"], 0),
            (["measure", *p, "--tn", "--k", str(rng.randint(2, 3)), "--n", "8"], 0),
            (["measure", *p, "--c", c_region, "--region", region, "--window", str(window)], 0),
            (["fixed-points", "--prime", "5", "--c", rng.choice(("-20/1", "1/4", "1/1")),
              "--precision", "20"], 0),
            (["verify", "x", "--list"], 0),
            (["verify", "negative-control"], 1),
            # Malformed inputs: the contract says exit 2 (usage or input error).
            *[(["verify", str(inputs / fname)], 2) for fname in MALFORMED_CAMPAIGNS],
            (["measure", *p, "--c", "1/3", "--region", "Q7"], 2),
            (["orbit", *p, "--c", "1/1", "--x", "1/1", "--y", "1/1", "--steps", "0"], 2),
        ]

    def _argv(self, args, traced: bool):
        if traced:
            return [sys.executable, str(HERE / "clitrace.py"), *args]
        return [sys.executable, "-m", "padic_henon.cli", *args]

    def run_pass(self, tracer=None) -> PassResult:
        traced = tracer is not None
        trace_dir = self.out_dir / "cli-trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        runs, timings, procs = [], Timings(), []
        start = perf()
        for i, (args, _) in enumerate(self.commands):
            env = self.env
            if traced:
                env = {**env, "PERFBENCH_TRACE_FILE": str(trace_dir / f"{i}.json")}
            proc = timings.op(subprocess.run, self._argv(args, traced), env=env, cwd=self.root,
                              capture_output=True)
            runs.append((proc.returncode, _normalize(args, proc.stdout.decode("utf-8", "replace"))))
            if traced:
                dump = json.loads((trace_dir / f"{i}.json").read_text(encoding="utf-8"))
                tracer.merge(dump["tracer"])
                spawned = timings.entries[-1][2]
                procs.append((dump["t_start"] - spawned, dump["t_imported"] - dump["t_start"],
                              dump["t_end"] - dump["t_imported"]))
        wall = perf() - start

        failures = []
        malformed_not_exit2 = 0
        for (args, contract), (code, out), expected in zip(self.commands, runs, self._in_process()):
            cmd = " ".join(args)
            if contract == 2:
                # Known defect at the seed commit: these exit 1 with a traceback.
                # Counted apart; exit 0 (input accepted) is a wrong output.
                malformed_not_exit2 += code != 2
                if code == 0:
                    failures.append(f"{cmd}: malformed input accepted with exit 0")
                    continue
            elif code != contract:
                failures.append(f"{cmd}: exit {code}, contract {contract}")
                continue
            if (code, out) != expected:
                failures.append(f"{cmd}: exit {code} and stdout differ from in-process (exit {expected[0]})")
        report = {"exit_codes": [code for code, _ in runs], "digest": _digest(runs)}
        return PassResult(wall, timings.entries, len(runs), report, len(runs), failures, procs,
                          {"malformed_not_exit2": malformed_not_exit2})

    def _in_process(self):
        """Exit code and stdout of every command run in-process (computed once)."""
        if self._expected is None:
            self._expected = []
            for args, _ in self.commands:
                result = self.runner.invoke(self.cli.main, args)
                self._expected.append((result.exit_code, _normalize(args, result.stdout)))
        return self._expected


def _normalize(args, out: str):
    """`verify` reports carry timings, so they are compared without them; line
    ends are compared as click's test runner reports them (\\r\\n as \\n)."""
    out = out.replace("\r\n", "\n")
    if args[0] == "verify" and out.strip():
        try:
            return _drop_wall_time(json.loads(out))
        except json.JSONDecodeError:
            return out
    return out


WORKLOADS = {w.name: w for w in (AllLemmas, Window1000, CliCold)}
