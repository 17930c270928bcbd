"""Benchmark of the padic-henon verifier: three workloads, end-to-end metrics
untraced, per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload all-lemmas --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # the three workloads in one process
    python3 perfbench/run.py --selfcheck             # determinism and pinned-output checks

Run from the repository root; the program is imported from ./src.  Every run
prints one line per metric and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.  The full result (environment, sample
counts, tail percentile, per-pass data) is written to perfbench/out/.  See
perfbench/README.md.
"""

import time

T_START = time.perf_counter()  # first statement: setup probes time from here

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median
# Seconds the calibration loop (workloads.calibration_s) takes on the reference
# machine when it is not slowed by other tenants: 2 cores, Python 3.11.7.
REFERENCE_CAL_S = 1.30e-3
MAX_RUN_S = 150.0  # no further pass starts once a run has used this much
# glibc's default mmap threshold rises to the size of the largest block freed
# so far, so whether a large array is carved from the heap, and stays resident
# after it is freed, depends on the allocation history.  That history moved
# with the size of the process environment alone: peak RSS of window-1000 read
# 129, 137 or 152 MB for one seed.  With a fixed threshold every block of
# 4 MiB or more is mapped on its own and unmapped when freed, and peak RSS
# repeats within 0.1 MB.  Set for this process and every process it starts.
MMAP_THRESHOLD = str(4 << 20)

perf = time.perf_counter


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(n_ops: int) -> int:
    """Highest whole percentile with at least 10 of n_ops operations beyond it."""
    return max(0, math.floor(100 * (1 - 10 / n_ops)))


def percentile(values, q: int) -> float:
    """The q-th percentile, linear between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    versions = {}
    for dist in ("numpy", "click"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "click": versions["click"],
        "cores": os.cpu_count(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Setup probes: fresh interpreters that import and build inputs, then exit.
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Body of a probe process: prints its phase times on the shared clock."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, OUT / "probe")
    imported = wl.setup()
    print(json.dumps({"t_start": T_START, "t_imported": imported, "t_ready": perf()}))


def measure_setup(workload: str, seed: int) -> dict:
    """Phase times of SETUP_PROBES fresh interpreters.  setup_s is scaled to
    reference speed by calibration samples taken just before and after each."""
    from workloads import calibration_s

    samples = []
    for _ in range(SETUP_PROBES):
        cal = calibration_s()
        t = perf()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        cal = (cal + calibration_s()) / 2
        if proc.returncode != 0:
            raise SystemExit(f"setup probe failed:\n{proc.stderr}")
        times = json.loads(proc.stdout.splitlines()[-1])
        samples.append((times["t_ready"] - t, times["t_start"] - t,
                        times["t_imported"] - times["t_start"], times["t_ready"] - times["t_imported"],
                        cal))
    return {
        "setup_s": median([s[0] * REFERENCE_CAL_S / s[4] for s in samples]),
        "setup_s_unscaled": median([s[0] for s in samples]),
        "interpreter_s": median([s[1] for s in samples]),
        "import_s": median([s[2] for s in samples]),
        "inputs_s": median([s[3] for s in samples]),
        "samples": samples,
    }


# ---------------------------------------------------------------------------
# One workload run.
# ---------------------------------------------------------------------------


def run_passes(wl, seconds: float, min_passes: int, tracer_factory=None, started=None):
    """Run whole passes until `seconds` have been measured and at least
    `min_passes` have run.  Returns the passes (and their tracers)."""
    passes, tracers = [], []
    started = perf() if started is None else started
    measured = 0.0
    while len(passes) < min_passes or measured < seconds:
        if passes and perf() - started + passes[-1].wall > MAX_RUN_S:
            break
        tracer = tracer_factory() if tracer_factory else None
        in_process = tracer is not None and wl.name != "cli-cold"
        if in_process:
            tracer.install()
        try:
            result = wl.run_pass(tracer)
        finally:
            if in_process:
                tracer.uninstall()
        passes.append(result)
        tracers.append(tracer)
        measured += result.wall
    return passes, tracers


def normalized(entries) -> list:
    """(call index, is operation, seconds at reference speed) per timed call.

    The machine is shared: identical passes were seen to vary by a third, with
    CPU time equal to wall time, and slow spells outlast a run.  Each call is
    therefore scaled by REFERENCE_CAL_S over the median of the five calibration
    samples nearest to it.
    """
    cals = [e[4] for e in entries]
    return [(index, is_op, secs * REFERENCE_CAL_S / median(cals[max(0, i - 2):i + 3]))
            for i, (index, is_op, _, secs, _) in enumerate(entries)]


def timing_values(passes, scale: bool) -> dict:
    """Throughput and latency percentiles, each call at its fastest timing."""
    best = {}
    for p in passes:
        calls = normalized(p.timings) if scale else [(i, o, s) for i, o, _, s, _ in p.timings]
        for index, is_op, secs in calls:
            best[index] = (is_op, min(secs, best.get(index, (is_op, secs))[1]))
    op_s = [s for is_op, s in best.values() if is_op]
    q = tail_percentile(len(op_s))
    return {
        "outcomes_per_s": passes[0].outcomes / sum(s for _, s in best.values()),
        "op_p50_ms": percentile(op_s, 50) * 1e3,
        "op_tail_ms": percentile(op_s, q) * 1e3,
        "tail_percentile": q,
        "n_ops": len(op_s),
    }


def end_to_end(wl, passes) -> tuple:
    """End-to-end values of an untraced run (all but setup_s).

    Each timed call counts with its fastest time among the run's passes,
    scaled to reference machine speed; the unscaled values are kept too.
    """
    values = timing_values(passes, scale=True)
    raw = timing_values(passes, scale=False)
    q, n = values.pop("tail_percentile"), values.pop("n_ops")
    if wl.name == "cli-cold":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values["peak_rss_mb"] = rss_kb / 1024
    best_of = f"fastest of {len(passes)} passes, at reference speed"
    details = {
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters, at reference speed",
        "outcomes_per_s": f"{passes[0].outcomes} outcomes per pass, {best_of}",
        "op_p50_ms": f"p50 of n={n} operations, {best_of}",
        "op_tail_ms": f"p{q} of n={n} operations, {best_of}",
        "peak_rss_mb": "max over child processes" if wl.name == "cli-cold" else "this process",
    }
    return values, details, {"tail_percentile": q, "n_ops": n, "unscaled": raw}


def layer_values(wl, passes, tracers, untraced, setup) -> dict:
    from spans import layer_metrics

    per_pass = [layer_metrics(t) for t in tracers]
    counts = {k for k, v in per_pass[0].items() if isinstance(v, int)}
    for other in per_pass[1:]:
        bad = [k for k in counts if other[k] != per_pass[0][k]]
        if bad:
            raise SystemExit(f"counts differ between traced passes: {bad}")
    values = {k: (v if k in counts else median([p[k] for p in per_pass]))
              for k, v in per_pass[0].items()}
    if wl.name == "cli-cold":
        procs = [t for p in passes for t in p.procs]
        values["cli.interpreter_s"] = median([t[0] for t in procs])
        values["cli.import_s"] = median([t[1] for t in procs])
        values["cli.command_s"] = median([t[2] for t in procs])
    else:
        # In-process workloads: the phases of the setup probes (command_s is
        # the input construction that follows the imports).
        values["cli.interpreter_s"] = setup["interpreter_s"]
        values["cli.import_s"] = setup["import_s"]
        values["cli.command_s"] = setup["inputs_s"]
    values["cli.malformed_not_exit2"] = untraced[0].notes.get("malformed_not_exit2", 0)
    values["trace.overhead_s"] = median([p.wall for p in passes]) - median([p.wall for p in untraced])
    return values


def write_spans(path: Path, tracer) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for span_id, name, start, end, parent, agg_s in tracer.spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                 "parent": parent, "aggregated_s": agg_s}) + "\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from spans import Tracer
    from workloads import WORKLOADS

    started = perf()
    wl = WORKLOADS[name](seed, OUT)
    wl.setup()
    failures = []
    if trace:
        # Half the time untraced, half traced: the difference is the overhead.
        untraced, _ = run_passes(wl, seconds / 2, 1, started=started)
        passes, tracers = run_passes(wl, seconds / 2, 1, Tracer, started)
        for p in passes:
            if p.report != untraced[0].report:
                raise SystemExit(f"{name}: traced report {p.report} differs from untraced "
                                 f"{untraced[0].report}")
        all_passes = untraced + passes
    else:
        passes, _ = run_passes(wl, seconds, wl.min_passes, started=started)
        all_passes = passes
    for p in all_passes[1:]:
        if p.report != all_passes[0].report:
            raise SystemExit(f"{name}: reports differ between passes of one seed: "
                             f"{all_passes[0].report} vs {p.report}")
    for i, p in enumerate(all_passes):
        failures += [f"pass {i}: {f}" for f in p.failures]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if trace:
        setup = measure_setup(name, seed)
        values = layer_values(wl, passes, tracers, untraced, setup)
        declared = spec["per_layer"]
        details, extra = {}, {}
        OUT.mkdir(parents=True, exist_ok=True)
        write_spans(OUT / f"spans-{name}-seed{seed}.jsonl.gz", tracers[0])
    else:
        # Peak memory is read before the setup probes, whose children would count.
        values, details, extra = end_to_end(wl, passes)
        setup = measure_setup(name, seed)
        values["setup_s"] = setup["setup_s"]
        extra["unscaled"]["setup_s"] = setup["setup_s_unscaled"]
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted = sum(p.attempted for p in all_passes)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures[:50],
        "metrics": metrics,
        "details": details,
        "setup_samples": setup["samples"],
        "pass_walls": [p.wall for p in all_passes],
        "report": all_passes[0].report,
        "notes": all_passes[0].notes,
        **extra,
        "env": environment(),
    }


def print_result(res: dict) -> None:
    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"passes {res['passes']}  ops attempted {res['attempted']}")
    for k, m in res["metrics"].items():
        note = res["details"].get(k, "")
        print(f"  {k:44s} {m['value']:>16.6g} {m['unit']:6s} {note}")
    if "unscaled" in res:
        raw = res["unscaled"]
        print("  unscaled wall-clock values: " + ", ".join(
            f"{k} {raw[k]:.6g}" for k in ("setup_s", "outcomes_per_s", "op_p50_ms", "op_tail_ms")))
    print(f"  {'error_rate':44s} {res['error_rate']:>16.6g} ratio  "
          f"{res['failed']} of {res['attempted']} operations wrong")
    if "malformed_not_exit2" in res["notes"]:
        print(f"  known defect: {res['notes']['malformed_not_exit2']} malformed-input probes "
              "exit with a code other than 2 (usage or input error)")
    for f in res["failures"]:
        print(f"  WRONG OUTPUT: {f}")
    env = res["env"]
    print(f"  env: commit {env['commit']} src {env['src_sha256']} python {env['python']} "
          f"numpy {env['numpy']} cores {env['cores']}")


def save(res: dict) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{res['workload']}-seed{res['seed']}-trace{res['trace']}.json"
    path.write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
    return path


def selfcheck(seed: int, seconds: float) -> int:
    """Two traced runs per workload must agree on every count; all-lemmas at the
    bundled seeds must reproduce the pinned totals."""
    from spans import Tracer
    from workloads import AllLemmas

    problems = []
    for name in ("all-lemmas", "window-1000", "cli-cold"):
        runs = [run_workload(name, seed, seconds, trace=True) for _ in range(2)]
        counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
                  for r in runs]
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        if diff:
            problems.append(f"{name}: counts differ between two runs: {diff}")
        if runs[0]["report"] != runs[1]["report"]:
            problems.append(f"{name}: reports differ between two runs")
        problems += [f"{name}: {f}" for r in runs for f in r["failures"]]
        print(f"{name}: {len(counts[0])} counts repeat" if not diff else problems[-1])
    wl = AllLemmas(None, OUT)
    wl.setup()
    tracer = Tracer()
    tracer.install()
    try:
        bundled = wl.run_pass(tracer)
    finally:
        tracer.uninstall()
    problems += [f"all-lemmas at bundled seeds: {p}" for p in
                 bundled.failures + wl.check_bundled_totals(bundled.report)]
    exhausted = tracer.counts["dynamics.profile_orbit.precision_exhausted"]
    print(f"all-lemmas at bundled seeds: {bundled.report['totals']}, "
          f"precision_exhausted {exhausted}")
    for p in problems:
        print(f"SELFCHECK FAILED: {p}")
    print("selfcheck passed" if not problems else "selfcheck failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.selfcheck:
        return selfcheck(args.seed, min(args.seconds, 1.0))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_result(res)
        print(f"  result written to {save(res).relative_to(ROOT)}")
        results.append(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    if not (SRC / "padic_henon" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}; run from a full checkout")
    if os.environ.get("MALLOC_MMAP_THRESHOLD_") != MMAP_THRESHOLD:
        # glibc reads the threshold at process start: restart this process with it.
        os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]],
                  {**os.environ, "MALLOC_MMAP_THRESHOLD_": MMAP_THRESHOLD})
    sys.path.insert(0, str(SRC))
    sys.exit(main())
