"""Regenerate perfbench/reference.json, the outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/pin.py

Run it only on a commit whose outputs are known good: the file pins the
program's results, and every benchmark run is checked against it.  It takes
about a minute (the window-1000 pass dominates).
"""

import json
import random
from pathlib import Path

from padic_henon import gridcheck, verifier

from workloads import DS, WINDOW, Window1000

SAMPLED = ("transition", "escape", "sandwich")


def pin_all_lemmas() -> dict:
    reports = verifier.run_campaign(verifier.builtin_campaign("all-lemmas"))
    specs = {}
    for r in reports:
        pin = {"kind": r.spec.kind,
               "outcomes": r.passes + len(r.failures) + r.skipped,
               "vacuous": r.passes == 0}
        if r.spec.kind not in SAMPLED:  # seed-independent: pin the passes too
            pin["passes"] = r.passes
        specs[r.spec.identifier] = pin
    summary = verifier.campaign_summary(reports)
    totals = {k: summary[k] for k in ("specs", "passes", "failures", "skipped", "undefined_inverse")}
    totals["vacuous"] = sum(r.passes == 0 for r in reports)
    return {"specs": specs, "bundled_totals": totals}


def pin_window() -> dict:
    wl = Window1000(seed=0, out_dir=None)
    wl.setup()
    checks = {}
    for d, label, depth in wl.checks + wl.known_false:
        check = gridcheck.check_transition_profiles(label, d, WINDOW, depth=depth, cancel_depth=WINDOW)
        checks[f"{d}:{label}:{depth}"] = [check.profiles_checked, check.outcomes_checked,
                                          len(check.counterexamples)]
    part = gridcheck.check_partition(DS[0], WINDOW)
    agree = gridcheck.classifier_agreement(DS[0], 150, sample=500, rng=random.Random(0))
    return {"partition_cells": part.cells, "agreement_cells": agree, "checks": checks}


if __name__ == "__main__":
    out = Path(__file__).resolve().parent / "reference.json"
    ref = {"all-lemmas": pin_all_lemmas(), "window-1000": pin_window()}
    out.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
