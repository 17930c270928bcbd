"""Window-exhaustive checks over integer norm profiles, on row intervals.

These routines check whole windows |a|, |b| <= W at once: partition
exactness (every profile in exactly one region), agreement with the scalar
classifier, and profile-level transition claims including full enumeration
of the cancellation column a = d.  Every set of cells is a list of integer
intervals.  A region's cells are the rows of ``regions.region_rows``; a
transition check carries its source cells as pieces, runs of one source row
on which each backward step is affine, so ``regions.branch_interval`` decides
a target constraint on a whole piece at once.  A row that its intervals tile
passes in one scan, and one sweep over interval ends finds its holes and
overlaps.  A source row steps whole.  The target branches, in name order,
cut each piece: a branch cuts only the runs that the ones before it left,
and the runs left over fail.  The last step judges the cancellation column
with e free: a branch is convex, so two cuts along e, at the two ends of a
piece, give the e at which it covers the whole piece, and ``_column_groups``
expands only the e that no branch settles, one group per e.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .regions import (
    RegionLabel,
    Regime,
    branch_interval,
    classify,
    expected_preimage_regions,
    iter_region_labels,
    profile_in_region,
    regime_of_d,
    region_branches,
    region_rows,
    t_profile,
)

__all__ = [
    "PartitionReport",
    "check_partition",
    "classifier_agreement",
    "TransitionCounterexample",
    "TransitionCheck",
    "check_transition_profiles",
    "transition_sources",
]


def _coverage(intervals, lo: int, hi: int):
    """Segments (first, last, n) that tile lo..hi in order, n being how many of
    the intervals (nonempty, inside lo..hi) cover each cell of the segment."""
    events = sorted([(l, 1) for l, _ in intervals] + [(h + 1, -1) for _, h in intervals])
    n = 0
    for x, step in events:
        if x > lo:
            yield lo, x - 1, n
            lo = x
        n += step
    if lo <= hi:
        yield lo, hi, n


def _check_window(window: int) -> None:
    """A negative window has no cells; it must not pass as an empty check."""
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")


def _window_rows(d: int, window: int):
    """(labels, rows) with rows[a + window] the (lo, hi, label) intervals of
    every label's ``region_rows`` in row a, sorted by lo."""
    labels = list(iter_region_labels(d, window))
    rows = [[] for _ in range(2 * window + 1)]
    for label in labels:
        for a, lo, hi in region_rows(label, d, window):
            rows[a + window].append((lo, hi, label))
    for row in rows:
        row.sort(key=itemgetter(0))  # stable: ties keep label order
    return labels, rows


@dataclass
class PartitionReport:
    d: int
    window: int
    cells: int
    uncovered: list = field(default_factory=list)
    overlaps: list = field(default_factory=list)

    @property
    def exact(self) -> bool:
        return not self.uncovered and not self.overlaps


MAX_WITNESSES = 10  # the most holes, and the most overlaps, that a partition report lists
MAX_GROUP_WITNESSES = 25  # the most failing outcomes a transition check lists per frontier group


def check_partition(d: int, window: int) -> PartitionReport:
    """Certify that the declarative regions tile the window with no overlap."""
    _check_window(window)
    return _partition_report(d, window, *_window_rows(d, window), MAX_WITNESSES)


def _partition_report(d, window, labels, rows, cap) -> PartitionReport:
    """The first `cap` uncovered and overlapping cells of the rows, in scan order."""
    report = PartitionReport(d=d, window=window, cells=(2 * window + 1) ** 2)
    for a, row in enumerate(rows, -window):
        # A row tiled by its sorted intervals from -W to W needs no sweep.
        end = -window
        for lo, hi, _ in row:
            end = hi + 1 if lo == end else None
        if end == window + 1:
            continue
        for lo, hi, n in _coverage([(lo, hi) for lo, hi, _ in row], -window, window):
            if n == 1:
                continue
            found = report.uncovered if n == 0 else report.overlaps
            for b in range(lo, min(hi + 1, lo + cap - len(found))):
                names = [str(lbl) for lbl in labels if profile_in_region(lbl, a, b, d)]
                found.append({"a": a, "b": b, "labels": names})
    return report


def classifier_agreement(d: int, window: int, sample: int = 0, rng=None) -> int:
    """Check the scalar classifier against the declarative region table.

    Exhaustive over the window, whose partition must be exact; optionally
    `sample` extra random cells with |a|, |b| <= 4 * window, drawn from
    `rng`, are checked one by one.  Returns cells checked.
    """
    _check_window(window)
    if sample < 0 or (sample and rng is None):
        raise ValueError(f"sample must be >= 0 and needs an rng when positive, got {sample}")
    labels, rows = _window_rows(d, window)
    report = _partition_report(d, window, labels, rows, 1)
    if not report.exact:
        raise AssertionError(
            f"region table does not tile the window at d={d}: "
            f"uncovered {report.uncovered}, overlaps {report.overlaps}"
        )
    for a, row in enumerate(rows, -window):
        for lo, hi, label in row:
            for b in range(lo, hi + 1):
                got = classify((a, b), d)
                if got is not label and got != label:
                    raise AssertionError(
                        f"classifier disagrees with region table at ({a}, {b}), d={d}: "
                        f"{got} vs {label}"
                    )
    checked = (2 * window + 1) ** 2
    if sample:
        W2 = 4 * window
        for _ in range(sample):
            a = rng.randrange(-W2, W2 + 1)
            b = rng.randrange(-W2, W2 + 1)
            lbl = classify((a, b), d)
            if not profile_in_region(lbl, a, b, d):
                raise AssertionError(f"classifier label {lbl} fails its own inequalities at ({a}, {b})")
            checked += 1
    return checked


# ---------------------------------------------------------------------------
# Profile-level transition checks.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionCounterexample:
    source_profile: tuple
    outcome_profile: tuple
    cancellation_exponent: int | None  # e with |x - c| = p^e when a = d, else None


@dataclass
class TransitionCheck:
    source: RegionLabel
    d: int
    window: int
    depth: int
    profiles_checked: int = 0
    outcomes_checked: int = 0
    failed_outcomes: int = 0  # exact; counterexamples keeps MAX_GROUP_WITNESSES per group
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed_outcomes == 0


# A piece (a, lo, hi, a0, a1, b0, b1) is the run of source cells (a, t),
# lo <= t <= hi, of one source row, now at the profiles (a0 + a1*t, b0 + b1*t).
# A column piece is one on a = d stepped with e free: at the cancellation
# exponent e its profiles are (a0 + a1*t, e + b0 + b1*t).
# The guards of the inverse below are region-table constraints on a.
_GUARDS = [(1, 0, 1, 0, "<")], [(1, 0, 1, 0, "==")], [(1, 0, 1, 0, ">")]  # a < d, a = d, a > d


def _step_pieces(pieces, d: int):
    """One abstract backward step on pieces; the package's one profile-level inverse.

    When a != d the ultrametric gives the single profile (b, max(a, d) - b):
    (b, d - b) for a < d and (b, a - b) for a > d.  When a = d the difference
    x - c can cancel to any depth e <= d, giving (b, e - b); the branch x = c
    leaves the domain and is not enumerated.  Each part of a piece is again
    a piece, since every map is affine.  A row piece (a1 = 0, as at depth 1)
    lies on one side of a = d and steps whole; the guards cut sloped pieces.

    Returns (det, column), each in source order: the pieces off a = d, and
    the pieces on it as column pieces, with e free.  ``_column_groups``
    expands a column into one group per e that its targets do not settle.
    """
    det, column = [], []
    for sa, lo, hi, a0, a1, b0, b1 in pieces:
        if not a1:  # a row piece lies wholly on one side of a = d
            if a0 == d:
                column.append((sa, lo, hi, b0, b1, -b0, -b1))
            else:
                det.append((sa, lo, hi, b0, b1, max(a0, d) - b0, -b1))
            continue
        below, on, above = [branch_interval(g, d, a0, a1, b0, b1, lo, hi) for g in _GUARDS]
        images = [(below, (b0, b1, d - b0, -b1)), (above, (b0, b1, a0 - b0, a1 - b1))]
        for (l, h), image in sorted(images):
            if l <= h:
                det.append((sa, l, h, *image))
        l, h = on
        if l <= h:
            column.append((sa, l, h, b0, b1, -b0, -b1))
    return det, column


def _column_groups(column, branches, d: int, elo: int):
    """The column pieces at the cancellation exponents elo..d that no single
    branch settles, as (pieces, e) groups with e falling and the pieces in
    column order; an e with no piece gives no group, and with no branches
    every e is expanded.  A branch is convex, so it holds on the whole column
    piece lo..hi, whose profiles at e are (a0 + a1*t, e + b0 + b1*t), exactly
    where it holds at both end cells: one cut along e at t = lo, and one at
    t = hi inside the first."""
    groups = {}
    for sa, lo, hi, a0, a1, b0, b1 in column:
        settled = []
        for branch in branches:
            l, h = branch_interval(branch, d, a0 + a1 * lo, 0, b0 + b1 * lo, 1, elo, d)
            if l <= h and lo < hi:
                l, h = branch_interval(branch, d, a0 + a1 * hi, 0, b0 + b1 * hi, 1, l, h)
            if l <= h:
                settled.append((l, h))
        for first, last, n in _coverage(settled, elo, d):
            if not n:
                for e in range(first, last + 1):
                    groups.setdefault(e, []).append((sa, lo, hi, a0, a1, e + b0, b1))
    return [(groups[e], e) for e in sorted(groups, reverse=True)]


def _judge(check: TransitionCheck, pieces, e, branches, d: int) -> None:
    """Count the failing outcomes of one group and list its first MAX_GROUP_WITNESSES.

    The branches cut each piece in turn, each only where the ones before it
    left cells uncovered, until none is left; the runs left over fail.  A
    piece whose run and image equal the previous piece's (every row a < d
    steps to (b, d - b)) reuses its runs.
    """
    listed = 0
    last_image = None
    for sa, lo, hi, a0, a1, b0, b1 in pieces:
        image = lo, hi, a0, a1, b0, b1
        if image != last_image:
            last_image, runs = image, [(lo, hi)]
            for branch in branches:
                left = []
                for rl, rh in runs:
                    cl, ch = branch_interval(branch, d, a0, a1, b0, b1, rl, rh)
                    if cl > ch:
                        left.append((rl, rh))
                        continue
                    if rl < cl:
                        left.append((rl, cl - 1))
                    if ch < rh:
                        left.append((ch + 1, rh))
                runs = left
                if not runs:
                    break
        for first, last in runs:
            check.failed_outcomes += last - first + 1
            for t in range(first, min(last + 1, first + MAX_GROUP_WITNESSES - listed)):
                outcome = (a0 + a1 * t, b0 + b1 * t)
                check.counterexamples.append(TransitionCounterexample((sa, t), outcome, e))
                listed += 1


def check_transition_profiles(
    source: RegionLabel,
    d: int,
    window: int,
    depth: int = 1,
    cancel_depth: int | None = None,
    targets=None,
) -> TransitionCheck:
    """Exhaustively verify one transition claim on every window profile.

    Applies the abstract inverse `depth` (at least 1) times to every profile
    of the source region inside the window and requires each outcome to
    satisfy the inequalities of some expected target region.  The
    cancellation column a = d is enumerated down to e = d - cancel_depth
    (default: the window; never negative).  Each piece's cells are
    subtracted branch by branch, and the cells left over fail.  The last
    step judges its column with e free: only the e that no single branch
    settles on a whole piece are expanded.
    """
    _check_window(window)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if cancel_depth is None:
        cancel_depth = window
    if cancel_depth < 0:
        raise ValueError(f"cancel_depth must be >= 0, got {cancel_depth}")
    if targets is None:
        targets = expected_preimage_regions(source, depth=depth)
    check = TransitionCheck(source=source, d=d, window=window, depth=depth)
    if source.name == "T":
        # A single cell; checked even when it sits outside the window, since
        # exhaustiveness costs nothing here.
        a, b = t_profile(source.index, d)
        rows = ((a, b, b),)
    else:
        rows = region_rows(source, d, window)
    check.profiles_checked = sum(hi - lo + 1 for _, lo, hi in rows)

    # Each frontier group: (pieces, first cancellation exponent or None).
    elo = d - cancel_depth
    frontier = [([(a, lo, hi, a, 0, 0, 1) for a, lo, hi in rows], None)]
    for _ in range(depth - 1):
        stepped = []
        for pieces, e0 in frontier:
            det, column = _step_pieces(pieces, d)
            if det:
                stepped.append((det, e0))
            for group, e in _column_groups(column, (), d, elo):
                stepped.append((group, e if e0 is None else e0))
        frontier = stepped

    # An outcome fails where no target branch holds.  At most MAX_GROUP_WITNESSES
    # failing outcomes are listed per group: the deterministic pieces of a frontier
    # group, then its column at each e, falling.  Targets go in name order,
    # whatever their hash order.
    branches = [branch for target in sorted(targets, key=str) for branch in region_branches(target)]
    for pieces, e0 in frontier:
        det, column = _step_pieces(pieces, d)
        check.outcomes_checked += sum(piece[2] - piece[1] + 1 for piece in det)
        check.outcomes_checked += (cancel_depth + 1) * sum(piece[2] - piece[1] + 1 for piece in column)
        for group, e in [(det, e0)] + _column_groups(column, branches, d, elo):
            _judge(check, group, e if e0 is None else e0, branches, d)
    return check


def transition_sources(regime: Regime, d: int, window: int, include_t: bool = True):
    """All labels in the window that carry a depth-1 transition claim.  `regime`
    restates the regime of d, and one that differs raises ValueError."""
    if regime is not regime_of_d(d):
        raise ValueError(f"d={d} is not in regime {regime.value}")
    for label in iter_region_labels(d, window, include_t=include_t):
        try:
            expected_preimage_regions(label, depth=1)
        except KeyError:
            continue
        yield label
