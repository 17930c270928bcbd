"""Command-line frontend: orbits, classification, region grids, verification
campaigns, measures and fixed points.

Rationals enter as exact "num/den" strings; there is no floating-point entry
point anywhere.  Structured output is JSON (CSV for grids) with stable keys.
Exit codes: 0 on success (any orbit verdict counts as success), 1 when a
verification campaign reports failures, 2 on usage errors and malformed
campaign files.

Each command imports the modules it runs when it runs, so a process loads only
what its command needs; the bounds its options read live in `padics`.
"""

from __future__ import annotations

import itertools
import json
import sys

import click

from .padics import (
    _MAX_SAMPLES,
    _MAX_WINDOW,
    DEFAULT_BIT_BUDGET,
    MAX_BIT_BUDGET,
    MAX_STEPS,
    Point,
    PrecisionExhaustedError,
    _decimal,
    parse_rational,
    validate_odd_prime,
)


def _rational(ctx, param, value):
    if value is None:
        return None
    p = ctx.params.get("prime")
    try:
        return parse_rational(value, p)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.BadParameter(str(exc)) from None


def _parse_label(text: str, regime):
    from .regions import RegionLabel, region_branches

    text = text.strip()
    head = text.rstrip("0123456789")
    tail = text[len(head):]
    label = RegionLabel(regime, head, int(tail) if tail else None)
    try:
        region_branches(label)
    except KeyError as exc:
        raise click.BadParameter(exc.args[0], param_hint="'--region'") from None
    return label


def _print_json(obj) -> None:
    """Write `obj` to stdout as JSON indented by 1, then a newline, in batches
    of the encoder's pieces: a large report is never held as one string beside
    its objects, and one write per piece took twice as long."""
    pieces = json.JSONEncoder(indent=1).iterencode(obj)
    while batch := "".join(itertools.islice(pieces, 4096)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")
    sys.stdout.flush()


def _given(c):
    if c is None:
        raise click.UsageError("--c is required")
    return c


def _partition_d(c) -> int:
    """d = log_p|c|, which only a nonzero c has."""
    if c.is_zero:
        raise click.UsageError("c = 0 is degenerate: no region partition exists")
    return c.norm_exponent


def _prime(ctx, param, value):
    try:
        return validate_odd_prime(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None


prime_option = click.option(
    "--prime", "-p", type=int, required=True, is_eager=True, callback=_prime,
    help="Odd prime p (validated; 2 is rejected).",
)
c_option = click.option(
    "--c", "c", default=None, callback=_rational,
    help="Map parameter c as an exact 'num/den' string.",
)
format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True
)
seed_option = click.option("--seed", type=int, default=None, help="Override campaign seeds.")


@click.group()
def main():
    """Exact backward dynamics of (x, y) -> (xy + c, x) over Q_p^2."""


@main.command()
@prime_option
@c_option
@click.option("--x", "x", required=True, callback=_rational, help="x as 'num/den'.")
@click.option("--y", "y", required=True, callback=_rational, help="y as 'num/den'.")
@click.option("--steps", type=click.IntRange(1, MAX_STEPS), default=20, show_default=True)
@click.option("--direction", type=click.Choice(["backward", "forward"]), default="backward",
              show_default=True)
@click.option("--escape-exp", type=int, default=None,
              help="Escape threshold on max norm exponent (omit to disable).")
@click.option("--bit-budget", type=click.IntRange(1, MAX_BIT_BUDGET), default=DEFAULT_BIT_BUDGET,
              show_default=True)
def orbit(prime, c, x, y, steps, direction, escape_exp, bit_budget):
    """Run an orbit and print its JSON trace; exit 0 on any verdict."""
    from .dynamics import backward_orbit, forward_orbit

    runner = backward_orbit if direction == "backward" else forward_orbit
    rec = runner(Point(x, y), _given(c), steps, escape_exponent=escape_exp, bit_budget=bit_budget)
    _print_json(rec.to_json(c.norm_exponent))


@main.command()
@prime_option
@c_option
@click.option("--x", "x", default=None, callback=_rational)
@click.option("--y", "y", default=None, callback=_rational)
@click.option("--a", "a", type=int, default=None, help="Norm exponent of x (profile mode).")
@click.option("--b", "b", type=int, default=None, help="Norm exponent of y (profile mode).")
def classify_cmd(prime, c, x, y, a, b):
    """Classify a point or a norm profile into its region."""
    from .regions import classify

    d = _partition_d(_given(c))
    if x is not None and y is not None and a is None and b is None:
        profile = (x.norm_exponent, y.norm_exponent)
    elif a is not None and b is not None and x is None and y is None:
        profile = (a, b)
    else:
        raise click.UsageError("give exactly one complete pair: --x/--y or --a/--b")
    label = classify(profile, d)
    click.echo(json.dumps({"profile": list(profile), "d": d, "region": label.to_json()}))


@main.command()
@prime_option
@c_option
@click.option("--window", type=click.IntRange(min=0), default=12, show_default=True)
@format_option
def grid(prime, c, window, fmt):
    """Region label for every integer profile |a|, |b| <= window (CSV or JSON).

    Each row of a is printed as soon as it is classified, so memory stays
    flat in the window; the output is one CSV table or one JSON list."""
    import csv
    import io

    from .regions import classify

    d = _partition_d(_given(c))
    span = range(-window, window + 1)

    def row(a):
        labels = (classify((a, b), d) for b in span)
        return [(a, b, label.name, label.index) for b, label in zip(span, labels)]

    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["a", "b", "region_name", "region_index"])
        for a in span:
            writer.writerows(row(a))
            click.echo(out.getvalue(), nl=False)
            out.seek(0)
            out.truncate()
    else:
        sep = "["
        for a in span:
            # One list per row, its brackets dropped, so the rows join into one list.
            rows = [{"a": a, "b": b, "name": n, "index": i} for a, b, n, i in row(a)]
            click.echo(sep + json.dumps(rows)[1:-1], nl=False)
            sep = ", "
        click.echo("]")


@main.command()
@click.argument("campaign", required=False)
@seed_option
@click.option("--samples", type=click.IntRange(1, _MAX_SAMPLES), default=None,
              help="Override sample counts.")
@click.option("--list", "list_builtin", is_flag=True, help="List bundled campaign names.")
def verify(campaign, seed, samples, list_builtin):
    """Run a verification campaign (a JSON file or a bundled name).

    Exits 0 iff no check produced a counterexample; skipped-empty regions and
    excluded-null inverse hits are reported but do not fail the run.
    """
    import dataclasses

    from .verifier import (
        _FIELDS,
        CampaignError,
        builtin_campaign,
        builtin_campaign_names,
        campaign_summary,
        load_campaign,
        run_campaign,
    )

    if list_builtin:
        click.echo(json.dumps(builtin_campaign_names()))
        return
    if campaign is None:
        raise click.UsageError("Missing argument 'CAMPAIGN' (or give --list).")
    try:
        specs = builtin_campaign(campaign)
    except FileNotFoundError:
        try:
            specs = load_campaign(campaign)
        except OSError as exc:
            raise click.UsageError(f"cannot load campaign {campaign!r}: {exc}") from None
        except CampaignError as exc:
            raise click.UsageError(f"invalid campaign {campaign!r}: {exc}") from None
    overrides = {k: v for k, v in (("seed", seed), ("samples", samples)) if v is not None}
    # An override goes only to the kinds that read it, so every spec still reloads.
    reports = run_campaign([dataclasses.replace(spec, **{
        k: v for k, v in overrides.items() if spec.kind in _FIELDS[k].metadata["kinds"]})
        for spec in specs])
    summary = campaign_summary(reports)
    _print_json(summary)
    if not summary["ok"]:
        sys.exit(1)


# The largest number `measure --tn` prints, p^((k-1)F(n+2)), takes about 1 s at this size.
TN_MAX_BITS = 640_000  # F(n + 2) passes it for n > 64, so fib never sees a larger index
# The most bits `fixed-points` computes, as --precision times the bit length of
# p: its square roots and inverses cost by the size in bits and by c.  One CLI
# run each at the bound: 10^6 digits at p = 3 took 7.6 s and 64 MB at c = 2/9
# (1 - 4c = 3^-2, unit 1: no digit to lift), 25.0 s and 65 MB at c = -3/4;
# 32,786 digits at p = 2^61 - 1 took 60.5 s and 25 MB at 2/9, 25.9 s at -3/4.
PRECISION_MAX_BITS = 2_000_000


@main.command()
@prime_option
@c_option
@click.option("--tn", "tn", is_flag=True, help="Overlay sphere-pair measures and partial sums.")
@click.option("--k", type=click.IntRange(min=2), default=2, show_default=True,
              help="|c| = p^k for --tn.")
@click.option("--n", type=click.IntRange(min=0), default=8, show_default=True,
              help="Largest index for --tn.")
@click.option("--region", default=None, help="Region label, e.g. Z, J0, A3, C0.")
# Each row of a window measure is a fraction of W-digit powers of p, so the
# window has the campaigns' bound.
@click.option("--window", type=click.IntRange(min=0, max=_MAX_WINDOW), default=8, show_default=True)
def measure(prime, c, tn, k, n, region, window):
    """Exact Haar measures: overlay family rows, or a region's window measure."""
    from .measure import fraction_text, measure_report, tn_rows
    from .regions import regime_of_d, t_profile

    if tn and (region is not None or c is not None):
        raise click.UsageError("--tn takes neither --region nor --c: give --tn, or both --region and --c")
    ctx = click.get_current_context()
    for name in ("window",) if tn else ("k", "n"):
        if ctx.get_parameter_source(name) is not click.core.ParameterSource.DEFAULT:
            raise click.UsageError(f"--{name} is read only {'without' if tn else 'with'} --tn")
    if tn:
        if n > 64 or sum(t_profile(n, k)) * prime.bit_length() > TN_MAX_BITS:
            raise click.UsageError(f"p^((k-1)F(n+2)) passes {TN_MAX_BITS} bits; lower --n or --k")
        rows = tn_rows(n, k, prime)
        out = [
            {
                "n": row["n"],
                "exact": fraction_text(row["exact"]),
                "ball_product": _decimal(row["ball_product"].numerator),  # an integer
                "sphere_to_ball_ratio": fraction_text(row["sphere_to_ball_ratio"]),
                "partial_sum": fraction_text(row["partial_sum"]),
            }
            for row in rows
        ]
        _print_json({"k": k, "p": prime, "rows": out})
        return
    if region is None or c is None:
        raise click.UsageError("give --tn, or both --region and --c")
    d = _partition_d(c)
    label = _parse_label(region, regime_of_d(d))
    if label.name == "T" and d < 2:
        raise click.UsageError(f"overlay region {label} needs d >= 2, but --c has d = {d}")
    _print_json(measure_report(label, d, prime, window))


@main.command("fixed-points")
@prime_option
@c_option
@click.option("--precision", type=click.IntRange(min=1), default=20, show_default=True)
def fixed_points_cmd(prime, c, precision):
    """Fixed points (digit expansions, exact rationals when they exist) and the 3-cycle."""
    from .dynamics import exact_fixed_points, fixed_points, three_cycle
    from .padics import digit_view

    if _given(c).is_zero:
        raise click.UsageError("c = 0 is degenerate: 1 - q cancels at every precision")
    if precision * prime.bit_length() > PRECISION_MAX_BITS:
        raise click.BadParameter(
            f"{precision} digits at p = {prime} are {precision * prime.bit_length()} bits; "
            f"at most {PRECISION_MAX_BITS} bits ({PRECISION_MAX_BITS // prime.bit_length()} digits)",
            param_hint="'--precision'")
    try:
        pts = fixed_points(c, precision)
    except PrecisionExhaustedError as exc:
        raise click.UsageError(
            f"fixed points not certified at --precision {precision}: {exc}"
        ) from None
    exact = exact_fixed_points(c)
    cycle = three_cycle(c)
    report = {
        "count": len(pts),
        "fixed_points": [{"x": digit_view(a, prime), "y": digit_view(b, prime)} for a, b in pts],
        "exact_fixed_points": None if exact is None else [pt.to_json() for pt in exact],
        "three_cycle": [pt.to_json() for pt in cycle],
    }
    if not pts:
        report["note"] = "no fixed points in Q_p^2: 1 - 4c is not a square"
    _print_json(report)


main.add_command(classify_cmd, name="classify")

if __name__ == "__main__":
    main()
