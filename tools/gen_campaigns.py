#!/usr/bin/env python3
"""Regenerate the bundled verification campaigns in src/padic_henon/data/.

all-lemmas        every transition/escape claim at parameters where the claim
                  holds; exits 0.  24 of its 135 specs sample or scan a source
                  region with no cell in their window, and pass with 0 passes.
negative-control  deliberately falsified targets; must produce counterexamples.
known-anomalies   the two parameter corners where the classical claims fail
                  (two-step band collapse at |c| = p^-3; overlay descent at
                  |c| = p^2); kept separate so their failures are explicit.

Takes no arguments: any argument prints the usage line and exits 2 without
writing anything.
"""

import json
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "src" / "padic_henon" / "data"

SEED = 20240811


def label(regime, name, index=None):
    return {"regime": regime, "name": name, "index": index}


# Each kind's fields after "source", in file order, with their defaults; a
# field whose value is None is left out.
DEFAULTS = {
    "transition": {"depth": 1, "samples": 300, "window": 12, "seed": SEED, "expected": None},
    "exhaustive": {"depth": 1, "window": 60, "expected": None},
    "escape": {"samples": 120, "window": 8, "steps": 60, "seed": SEED, "escape_exp": None},
}


def spec(kind, ident, p, c, source, **fields):
    """One spec of `kind`, with `fields` in place of the kind's defaults."""
    defaults = DEFAULTS[kind]
    unknown = set(fields) - set(defaults)
    if unknown:
        raise TypeError(f"{kind} spec has no field {sorted(unknown)}")
    out = {"id": ident, "kind": kind, "p": p, "c": c, "source": source}
    for key, default in defaults.items():
        value = fields.get(key, default)
        if value is not None:
            out[key] = value
    return out


def all_lemmas():
    specs = []
    # --- |c| < 1 at d = -2 (every band nonempty except P5, which needs d <= -3).
    p, c = 3, "9/1"
    small = (
        [("Z", None)]
        + [("A", i) for i in range(1, 7)]
        + [("B", 1), ("B", 2)]
        + [("P", i) for i in (1, 2, 3, 4, 6)]
    )
    for name, idx in small:
        src = label("small", name, idx)
        specs.append(spec("transition", f"small-{name}{idx or ''}-step", p, c, src))
        specs.append(spec("exhaustive", f"small-{name}{idx or ''}-window", p, c, src))
    specs.append(spec("transition", "small-P5-step", p, "27/1", label("small", "P", 5)))
    specs.append(spec("exhaustive", "small-P5-window", p, "27/1", label("small", "P", 5)))
    # Two-step collapse of the flat band, where it holds (d = -2).
    specs.append(spec("transition", "small-A5-two-step", p, c, label("small", "A", 5), depth=2))
    specs.append(spec("exhaustive", "small-A5-two-step-window", p, c, label("small", "A", 5), depth=2))

    # --- |c| = 1.
    p, c = 3, "2/1"
    unit = [("F", None), ("G", None), ("H", None)] + [("M", i) for i in range(1, 7)]
    for name, idx in unit:
        src = label("unit", name, idx)
        specs.append(spec("transition", f"unit-{name}{idx or ''}-step", p, c, src))
        specs.append(spec("exhaustive", f"unit-{name}{idx or ''}-window", p, c, src))

    # --- |c| > 1 at d = 2.
    p, c = 3, "1/9"
    large = (
        [("F", None), ("G", None), ("H", None), ("J", 0)]
        + [("M", i) for i in range(1, 7)]
        + [("B", i) for i in range(1, 6)]
        + [("A", i) for i in range(1, 6)]
    )
    for name, idx in large:
        src = label("large", name, idx)
        specs.append(spec("transition", f"large-{name}{idx if idx is not None else ''}-step", p, c, src))
        specs.append(spec("exhaustive", f"large-{name}{idx if idx is not None else ''}-window", p, c, src))
    # Overlay descent where the sphere of T_n clears |c| (d = 3).
    for n in range(1, 6):
        src = label("large", "T", n)
        specs.append(spec("transition", f"large-T{n}-step", 3, "1/27", src, window=40))
        specs.append(spec("exhaustive", f"large-T{n}-window", 3, "1/27", src, window=40))
    # Empty-region skip path: the inner box is empty when |c| = p.
    specs.append(spec("transition", "large-J0-empty-at-d1", 3, "1/3", label("large", "J", 0)))

    # --- escape certification; G and A1 also meet their regions' growth laws.
    for d_c in ("1/3", "1/9"):
        for name, idx in [("F", None), ("G", None), ("H", None)] + [("M", i) for i in range(1, 5)]:
            specs.append(spec("escape", f"large-escape-{name}{idx or ''}-c{d_c.replace('/', 'over')}",
                              3, d_c, label("large", name, idx)))
    for name, idx in [("F", None), ("G", None), ("H", None)] + [("M", i) for i in range(1, 5)]:
        specs.append(spec("escape", f"unit-escape-{name}{idx or ''}", 3, "2/1", label("unit", name, idx)))
    small_escape = (
        [("A", i) for i in (1, 2, 3, 4, 6)] + [("B", 1), ("B", 2), ("P", 1), ("P", 6)]
    )
    for name, idx in small_escape:
        specs.append(spec("escape", f"small-escape-{name}{idx}", 3, "3/1", label("small", name, idx)))

    # --- worked orbits and two-sided evidence.
    specs.append({"id": "worked-orbits", "kind": "worked_orbits", "p": 5})
    specs.append({"id": "sandwich-small", "kind": "sandwich", "p": 3, "c": "3/1",
                  "samples": 60, "window": 6, "steps": 50, "seed": SEED, "escape_exp": 200})
    specs.append({"id": "sandwich-large", "kind": "sandwich", "p": 3, "c": "1/9",
                  "samples": 60, "window": 6, "steps": 60, "seed": SEED, "escape_exp": 2000})
    specs.append({"id": "sandwich-unit", "kind": "sandwich", "p": 3, "c": "2/1",
                  "samples": 60, "window": 6, "steps": 60, "seed": SEED, "escape_exp": 2000})
    return {"name": "all-lemmas", "specs": specs}


def negative_control():
    specs = [
        spec("transition", "falsified-inner-box-target", 3, "1/9", label("large", "J", 0),
             expected=[label("large", "F")]),
        spec("exhaustive", "falsified-torus-target", 3, "9/1", label("small", "Z"),
             expected=[label("small", "R")]),
    ]
    return {"name": "negative-control", "specs": specs}


def known_anomalies():
    specs = [
        spec("transition", "two-step-band-collapse-d-3", 3, "27/1", label("small", "A", 5), depth=2),
        spec("exhaustive", "two-step-band-collapse-d-3-window", 3, "27/1", label("small", "A", 5), depth=2),
        spec("transition", "overlay-descent-k2-n1", 3, "1/9", label("large", "T", 1), window=40),
        spec("exhaustive", "overlay-descent-k2-n1-window", 3, "1/9", label("large", "T", 1), window=40),
    ]
    return {"name": "known-anomalies", "specs": specs}


BUILDERS = (all_lemmas, negative_control, known_anomalies)


def main():
    DATA.mkdir(parents=True, exist_ok=True)
    for build in BUILDERS:
        obj = build()
        path = DATA / f"{obj['name']}.json"
        path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path} ({len(obj['specs'])} specs)")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print("usage: gen_campaigns.py  (no arguments; rewrites src/padic_henon/data/)", file=sys.stderr)
        sys.exit(2)
    main()
