"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of `padic_henon` by rebinding every module
attribute that refers to them, so the program's own files stay unchanged and
the internal call sites (for example `regions.sample_in_region` calling
`classify`) are seen too.  Functions that take tens of microseconds or more
get one span per call: (id, name, start, end, parent id, seconds spent in
aggregated calls directly under it).  Functions that take a few microseconds
are only counted and summed, and `classify` also records its arguments so
that an untraced replay can time it per regime.  Self time is computed from
the spans after the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

perf = time.perf_counter

MODULES = (
    "padic_henon.padics",
    "padic_henon.regions",
    "padic_henon.dynamics",
    "padic_henon.gridcheck",
    "padic_henon.measure",
    "padic_henon.verifier",
)

REGIMES = ("small", "unit", "large")
KINDS = ("transition", "exhaustive", "escape", "sandwich", "worked_orbits")

# Arguments kept per regime for the classify replay; enough for a steady
# per-call time without holding every call of a window-exhaustive pass.
CLASSIFY_REPLAY_CAP = 100_000


def _profile_orbit_done(tracer, args, rec):
    tracer.counts["dynamics.profile_orbit.steps"] += len(rec.profiles) - 1


def _backward_orbit_done(tracer, args, rec):
    tracer.counts["dynamics.backward_orbit.steps"] += len(rec.steps) - 1


def _transition_done(tracer, args, check):
    c = tracer.counts
    c["gridcheck.transition.checks"] += 1
    c["gridcheck.transition.cells"] += check.profiles_checked
    c["gridcheck.transition.outcomes"] += check.outcomes_checked
    c["gridcheck.transition.counterexamples"] += len(check.counterexamples)


def _spec_done(tracer, args, report):
    c = tracer.counts
    outcomes = report.passes + len(report.failures) + report.skipped
    c["verifier.outcomes"] += outcomes
    c["verifier.passes"] += report.passes
    c["verifier.specs_vacuous"] += report.passes == 0
    c["verifier.undefined_inverse"] += report.undefined_inverse


def _profile_orbit_failed(tracer, args, exc):
    if type(exc).__name__ == "PrecisionExhaustedError":
        tracer.counts["dynamics.profile_orbit.precision_exhausted"] += 1


def _sample_failed(tracer, args, exc):
    if type(exc).__name__ == "EmptyRegionError":
        tracer.counts["regions.sample_in_region.empty"] += 1


def _spec_name(args):
    return f"verifier.run_spec.{args[0].kind}"


# function name -> (home module, span name or callable(args) -> name, on result, on error)
SPANNED = {
    "backward_profile_orbit": ("dynamics", "dynamics.profile_orbit", _profile_orbit_done,
                               _profile_orbit_failed),
    "backward_orbit": ("dynamics", "dynamics.backward_orbit", _backward_orbit_done, None),
    "sample_in_region": ("regions", "regions.sample_in_region", None, _sample_failed),
    "check_transition_profiles": ("gridcheck", "gridcheck.transition", _transition_done, None),
    "check_partition": ("gridcheck", "gridcheck.partition", None, None),
    "classifier_agreement": ("gridcheck", "gridcheck.agreement", None, None),
    "run_spec": ("verifier", _spec_name, _spec_done, None),
    "measure_report": ("measure", "measure.measure_report", None, None),
    "tn_rows": ("measure", "measure.tn_rows", None, None),
}

# function name -> (home module, aggregate name); calls of a few microseconds.
AGGREGATED = {
    "classify": ("regions", "regions.classify"),
    "profile_in_region": ("regions", "regions.profile_in_region"),
    "inverse": ("dynamics", "dynamics.inverse"),
    "sample_with_norm": ("padics", "padics.sample_with_norm"),
}


class Tracer:
    """Spans, aggregates and counts of one traced pass (or a merge of several processes)."""

    def __init__(self):
        self.spans = []
        self.agg = defaultdict(lambda: [0, 0.0])
        self.counts = Counter()
        self.classify_args = {r: [] for r in REGIMES}
        self.classify_calls = Counter()
        self._stack = []  # open frames: [span id, seconds in aggregated calls]
        self._next_id = 0
        self._patched = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Rebind every padic_henon module attribute that names a traced function."""
        for name in MODULES:
            importlib.import_module(name)
        loaded = [m for n, m in sys.modules.items() if n.startswith("padic_henon") and m]
        for fname, (home, label, done, failed) in SPANNED.items():
            original = getattr(sys.modules[f"padic_henon.{home}"], fname)
            self._rebind(loaded, fname, original, self._spanned(original, label, done, failed))
        for fname, (home, label) in AGGREGATED.items():
            original = getattr(sys.modules[f"padic_henon.{home}"], fname)
            wrapper = (self._classify(original) if fname == "classify"
                       else self._aggregated(original, label))
            self._rebind(loaded, fname, original, wrapper)

    def uninstall(self):
        for module, fname, original in reversed(self._patched):
            setattr(module, fname, original)
        self._patched.clear()

    def _rebind(self, modules, fname, original, wrapper):
        for module in modules:
            if getattr(module, fname, None) is original:
                setattr(module, fname, wrapper)
                self._patched.append((module, fname, original))

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, fn, label, done, failed):
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            name = label(args) if callable(label) else label
            parent = stack[-1][0] if stack else -1
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if failed is not None:
                    failed(self, args, exc)
                raise
            finally:
                end = perf()
                stack.pop()
                spans.append((span_id, name, start, end, parent, frame[1]))
            if done is not None:
                done(self, args, result)
            return result

        return wrapper

    def _aggregated(self, fn, label):
        stack, slot = self._stack, self.agg[label]

        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - start
                slot[0] += 1
                slot[1] += dt
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def _classify(self, fn):
        from padic_henon.regions import regime_of_d

        inner = self._aggregated(fn, "regions.classify")
        calls, kept = self.classify_calls, self.classify_args

        def wrapper(profile, d):
            regime = regime_of_d(d).value
            calls[regime] += 1
            if len(kept[regime]) < CLASSIFY_REPLAY_CAP:
                kept[regime].append((profile, d))
            return inner(profile, d)

        return wrapper

    # -- export and merge ---------------------------------------------------

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "agg": dict(self.agg),
            "counts": dict(self.counts),
            "classify_calls": dict(self.classify_calls),
            "classify_args": {r: [[list(p), d] for p, d in a] for r, a in self.classify_args.items()},
        }

    def merge(self, data: dict):
        """Add another process's dump; span ids are shifted to stay unique."""
        offset = self._next_id
        for span_id, name, start, end, parent, agg_s in data["spans"]:
            self.spans.append((span_id + offset, name, start, end,
                               parent + offset if parent >= 0 else -1, agg_s))
            self._next_id = max(self._next_id, span_id + offset + 1)
        for name, (calls, secs) in data["agg"].items():
            self.agg[name][0] += calls
            self.agg[name][1] += secs
        self.counts.update(data["counts"])
        self.classify_calls.update(data["classify_calls"])
        for regime, args in data["classify_args"].items():
            room = CLASSIFY_REPLAY_CAP - len(self.classify_args[regime])
            self.classify_args[regime].extend((tuple(p), d) for p, d in args[:room])


def self_times(spans) -> dict:
    """Self seconds per span name: duration minus child spans and aggregated calls."""
    child = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for span_id, name, start, end, _, agg_s in spans:
        out[name] += (end - start) - child[span_id] - agg_s
    return out


def replay_classify(args_by_regime, repeats: int = 3) -> dict:
    """Median microseconds per untraced classify call over the recorded arguments."""
    from padic_henon.regions import classify

    out = {}
    for regime in REGIMES:
        args = args_by_regime[regime]
        if not args:
            out[regime] = 0.0
            continue
        times = []
        for _ in range(repeats):
            start = perf()
            for profile, d in args:
                classify(profile, d)
            times.append(perf() - start)
        times.sort()
        out[regime] = times[len(times) // 2] / len(args) * 1e6
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass, named as in BENCHMARK.json (cli.* and
    trace.* are added by the runner)."""
    selfs = self_times(tracer.spans)
    inclusive = defaultdict(float)
    calls = Counter()
    for _, name, start, end, _, _ in tracer.spans:
        inclusive[name] += end - start
        calls[name] += 1
    c = tracer.counts
    agg = tracer.agg
    m = {}
    steps = c["dynamics.profile_orbit.steps"]
    orbit_s = selfs["dynamics.profile_orbit"]
    m["dynamics.profile_orbit.calls"] = calls["dynamics.profile_orbit"]
    m["dynamics.profile_orbit.steps"] = steps
    m["dynamics.profile_orbit.self_s"] = orbit_s
    m["dynamics.profile_orbit.steps_per_s"] = steps / orbit_s if orbit_s else 0.0
    m["dynamics.profile_orbit.precision_exhausted"] = c["dynamics.profile_orbit.precision_exhausted"]
    m["dynamics.inverse.calls"] = agg["dynamics.inverse"][0]
    m["dynamics.inverse.self_s"] = agg["dynamics.inverse"][1]
    m["dynamics.backward_orbit.steps"] = c["dynamics.backward_orbit.steps"]
    m["dynamics.backward_orbit.self_s"] = selfs["dynamics.backward_orbit"]
    replay = replay_classify(tracer.classify_args)
    for regime in REGIMES:
        m[f"regions.classify.calls.{regime}"] = tracer.classify_calls[regime]
    for regime in REGIMES:
        m[f"regions.classify.us_per_call.{regime}"] = replay[regime]
    m["regions.sample_in_region.calls"] = calls["regions.sample_in_region"]
    m["regions.sample_in_region.self_s"] = selfs["regions.sample_in_region"]
    m["regions.sample_in_region.empty"] = c["regions.sample_in_region.empty"]
    m["regions.profile_in_region.calls"] = agg["regions.profile_in_region"][0]
    m["regions.profile_in_region.self_s"] = agg["regions.profile_in_region"][1]
    m["padics.sample_with_norm.calls"] = agg["padics.sample_with_norm"][0]
    m["padics.sample_with_norm.self_s"] = agg["padics.sample_with_norm"][1]
    outcomes = c["gridcheck.transition.outcomes"]
    trans_s = selfs["gridcheck.transition"]
    m["gridcheck.transition.checks"] = c["gridcheck.transition.checks"]
    m["gridcheck.transition.cells"] = c["gridcheck.transition.cells"]
    m["gridcheck.transition.outcomes"] = outcomes
    m["gridcheck.transition.self_s"] = trans_s
    m["gridcheck.transition.outcomes_per_s"] = outcomes / trans_s if trans_s else 0.0
    m["gridcheck.transition.counterexamples"] = c["gridcheck.transition.counterexamples"]
    m["gridcheck.partition.self_s"] = selfs["gridcheck.partition"]
    m["gridcheck.agreement.self_s"] = selfs["gridcheck.agreement"]
    for kind in KINDS:
        m[f"verifier.kind_s.{kind}"] = inclusive[f"verifier.run_spec.{kind}"]
    spec_outcomes = c["verifier.outcomes"]
    m["verifier.outcomes"] = spec_outcomes
    m["verifier.useful_ratio"] = c["verifier.passes"] / spec_outcomes if spec_outcomes else 0.0
    m["verifier.specs_vacuous"] = c["verifier.specs_vacuous"]
    m["verifier.undefined_inverse"] = c["verifier.undefined_inverse"]
    m["measure.self_s"] = selfs["measure.measure_report"] + selfs["measure.tn_rows"]
    return m
