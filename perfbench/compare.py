"""Summarize benchmark results, or diff two sets of them.

    python3 perfbench/compare.py BASE NEW           # medians, change and bound per metric
    python3 perfbench/compare.py --summarize DIR -o perfbench/baseline.json

BASE and NEW are each a result file written by run.py, a directory of them
(for example perfbench/out after ten seeds), or a summary written by
--summarize.  Values are grouped by workload and by traced / untraced run;
each group reports the median and quartiles over its runs.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """{(workload, trace): {metric: (unit, [values])}} from results or a summary."""
    p = Path(path)
    files = sorted(p.glob("result-*.json")) if p.is_dir() else [p]
    groups = {}
    for f in files:
        obj = json.loads(f.read_text(encoding="utf-8"))
        if "summary" in obj:
            for key, metrics in obj["summary"].items():
                workload, trace = key.rsplit("/trace", 1)
                groups[(workload, int(trace))] = {
                    k: (m["unit"], m["values"]) for k, m in metrics.items()}
            continue
        group = groups.setdefault((obj["workload"], obj["trace"]), {})
        for k, m in obj["metrics"].items():
            group.setdefault(k, (m["unit"], []))[1].append(m["value"])
    return groups


def stats(values) -> dict:
    med = statistics.median(values)
    q1, q3 = med, med
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def summarize(paths, out: str) -> None:
    summary, envs = {}, set()
    for path in paths:
        for (workload, trace), metrics in load(path).items():
            summary[f"{workload}/trace{trace}"] = {
                k: {"unit": unit, "values": values, **stats(values)}
                for k, (unit, values) in metrics.items()}
        for f in (sorted(Path(path).glob("result-*.json")) if Path(path).is_dir() else [Path(path)]):
            env = json.loads(f.read_text(encoding="utf-8")).get("env")
            if env:
                envs.add(json.dumps(env, sort_keys=True))
    Path(out).write_text(json.dumps({"env": [json.loads(e) for e in sorted(envs)],
                                     "summary": summary}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")


def compare(base: str, new: str) -> None:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = load(base), load(new)
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        print(f"{workload}  ({'traced, per-layer' if trace else 'untraced, end-to-end'})")
        print(f"  {'metric':44s} {'base':>12s} {'new':>12s} {'change':>8s}  verdict")
        for name, (unit, base_values) in a[key].items():
            if name not in b[key]:
                continue
            sa, sb = stats(base_values), stats(b[key][name][1])
            meta = declared.get(name, {})
            change = (sb["median"] - sa["median"]) / sa["median"] if sa["median"] else 0.0
            worse = change > 0 if meta.get("better") == "lower" else change < 0
            verdict = ""
            if "bound" in meta:
                if worse and abs(change) > meta["bound"]:
                    verdict = f"WORSE than bound {meta['bound']}"
                elif max(sa["spread"], sb["spread"]) > abs(change):
                    verdict = "within spread"
                else:
                    verdict = "better" if not worse else "worse, within bound"
            elif unit == "count" and sa["median"] != sb["median"]:
                verdict = "count changed"
            print(f"  {name:44s} {sa['median']:>12.5g} {sb['median']:>12.5g} {change:>+8.1%}  {verdict}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+")
    ap.add_argument("--summarize", action="store_true")
    ap.add_argument("-o", "--output", default="summary.json")
    args = ap.parse_args()
    if args.summarize:
        summarize(args.paths, args.output)
    elif len(args.paths) == 2:
        compare(*args.paths)
    else:
        ap.error("give BASE and NEW, or --summarize with one or more paths")
    return 0


if __name__ == "__main__":
    sys.exit(main())
