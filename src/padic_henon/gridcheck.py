"""Window-exhaustive checks over integer norm profiles, vectorized with numpy.

These routines check whole windows |a|, |b| <= W at once: partition
exactness (every profile in exactly one region), agreement with the scalar
classifier, and profile-level transition claims including full enumeration
of the cancellation column a = d.  Region masks are painted from the row
intervals of ``regions.region_rows``, the one reader of the table's
constraints for window cells; transition outcomes are tested with
``profile_in_region`` on integer arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .regions import (
    RegionLabel,
    Regime,
    classify,
    expected_preimage_regions,
    iter_region_labels,
    profile_in_region,
    regime_of_d,
    region_rows,
    t_profile,
)

__all__ = [
    "region_mask",
    "PartitionReport",
    "check_partition",
    "label_grid",
    "classifier_agreement",
    "TransitionCounterexample",
    "TransitionCheck",
    "check_transition_profiles",
    "check_all_transitions",
]


def _region_box(label: RegionLabel, window: int, d: int):
    """(i0, j0, mask): the label's ``region_rows`` painted over their bounding
    box, mask[i, j] being window cell (i0 + i, j0 + j); None if empty."""
    rows = region_rows(label, d, window)
    if not rows:
        return None
    a0, b0 = rows[0][0], min(lo for _, lo, _ in rows)
    mask = np.zeros((rows[-1][0] - a0 + 1, max(hi for _, _, hi in rows) - b0 + 1), dtype=bool)
    for a, lo, hi in rows:
        mask[a - a0, lo - b0 : hi - b0 + 1] = True
    return a0 + window, b0 + window, mask


def region_mask(label: RegionLabel, window: int, d: int):
    out = np.zeros((2 * window + 1, 2 * window + 1), dtype=bool)
    box = _region_box(label, window, d)
    if box is not None:
        i0, j0, mask = box
        out[i0 : i0 + mask.shape[0], j0 : j0 + mask.shape[1]] = mask
    return out


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


def check_partition(d: int, window: int, max_witnesses: int = 10) -> PartitionReport:
    """Certify that the declarative regions tile the window with no overlap."""
    labels = list(iter_region_labels(regime_of_d(d), d, window))
    count = np.zeros((2 * window + 1, 2 * window + 1), dtype=np.uint8)
    for label in labels:
        count += region_mask(label, window, d)
    report = PartitionReport(d=d, window=window, cells=count.size)
    if (count == 1).all():
        return report
    for kind, where in (("uncovered", count == 0), ("overlaps", count > 1)):
        idx = np.argwhere(where)[:max_witnesses]
        witnesses = []
        for i, j in idx:
            a, b = int(i) - window, int(j) - window
            names = [str(lbl) for lbl in labels if profile_in_region(lbl, a, b, d)]
            witnesses.append({"a": a, "b": b, "labels": names})
        getattr(report, kind).extend(witnesses)
    return report


def label_grid(d: int, window: int):
    """(labels, id-grid) where grid[i, j] indexes the unique region of each cell.

    Requires the partition to be exact; cells are asserted covered exactly once.
    """
    regime = regime_of_d(d)
    labels = list(iter_region_labels(regime, d, window))
    grid = np.full((2 * window + 1, 2 * window + 1), -1, dtype=np.int32)
    for k, label in enumerate(labels):
        m = region_mask(label, window, d)
        if (grid[m] != -1).any():
            raise AssertionError(f"overlap while assigning {label}")
        grid[m] = k
    if (grid == -1).any():
        raise AssertionError("uncovered cells in label grid")
    return labels, grid


def classifier_agreement(d: int, window: int, sample: int = 0, rng=None) -> int:
    """Check the scalar classifier against the declarative label grid.

    Exhaustive over the window; optionally `sample` extra random cells of a
    larger implicit window are checked one by one.  Returns cells checked.
    """
    labels, grid = label_grid(d, window)
    checked = 0
    for i in range(grid.shape[0]):
        a = i - window
        row = grid[i]
        for j in range(grid.shape[1]):
            b = j - window
            if classify((a, b), d) != labels[row[j]]:
                raise AssertionError(
                    f"classifier disagrees with region table at ({a}, {b}), d={d}: "
                    f"{classify((a, b), d)} vs {labels[row[j]]}"
                )
            checked += 1
    if sample and rng is not None:
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
    failed_outcomes: int = 0  # exact; counterexamples keeps at most 25 per frontier group
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed_outcomes == 0


def _targets_mask(targets, A, B, d: int):
    out = np.zeros(A.shape, dtype=bool)
    for t in targets:
        out |= profile_in_region(t, A, B, d)
    return out


def _source_cells(label: RegionLabel, d: int, window: int):
    if label.name == "T":
        # A single cell; checked even when it sits outside the window, since
        # exhaustiveness costs nothing here.
        a, b = t_profile(label.index, d)
        return np.array([a], dtype=np.int64), np.array([b], dtype=np.int64)
    box = _region_box(label, window, d)
    if box is None:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    i0, j0, mask = box
    # Row-major order of (i, j) is lexicographic order of (a, b), and each
    # cell appears once however many branches contain it.
    ii, jj = np.nonzero(mask)
    return ii + (i0 - window), jj + (j0 - window)


def _step_profiles(A, B, SA, SB, e0, d: int, cancel_depth: int):
    """One abstract backward step on profile arrays; the package's one profile-level inverse.

    When a != d the ultrametric gives the single profile (b, max(a, d) - b).
    When a = d the difference x - c can cancel to any depth e <= d, giving
    (b, e - b); the branch x = c leaves the domain and is not enumerated.

    Yields (A', B', e, SA', SB') groups: the deterministic group plus one
    group per enumerated cancellation exponent e <= d for the a = d cells.
    SA/SB track the originating source profiles; e records the first
    cancellation exponent taken along the branch (None if none).
    """
    det = A != d
    if det.any():
        Ad, Bd = A[det], B[det]
        E = np.maximum(Ad, d)
        yield Bd, E - Bd, e0, SA[det], SB[det]
    canc = ~det
    if canc.any():
        Ac, Bc, SAc, SBc = A[canc], B[canc], SA[canc], SB[canc]
        for e in range(d, d - cancel_depth - 1, -1):
            yield Bc, e - Bc, e, SAc, SBc


def check_transition_profiles(
    source: RegionLabel,
    d: int,
    window: int,
    depth: int = 1,
    cancel_depth: int | None = None,
    targets=None,
) -> TransitionCheck:
    """Exhaustively verify one transition claim on every window profile.

    Applies the abstract inverse `depth` times to every profile of the source
    region inside the window and requires each outcome to satisfy the
    inequalities of some expected target region.  The cancellation column
    a = d is enumerated down to e = d - cancel_depth (default: the window).
    """
    if cancel_depth is None:
        cancel_depth = window
    if targets is None:
        targets = expected_preimage_regions(source, depth=depth)
    check = TransitionCheck(source=source, d=d, window=window, depth=depth)
    As, Bs = _source_cells(source, d, window)
    check.profiles_checked = int(As.size)
    if As.size == 0:
        return check

    # Each frontier entry: (A, B, first cancellation exponent, source A, source B)
    frontier = [(As, Bs, None, As, Bs)]
    for _ in range(depth):
        new_frontier = []
        for A, B, e0, SA, SB in frontier:
            for A2, B2, e, SA2, SB2 in _step_profiles(A, B, SA, SB, e0, d, cancel_depth):
                new_frontier.append((A2, B2, e0 if e0 is not None else e, SA2, SB2))
        frontier = new_frontier

    for A, B, e, SA, SB in frontier:
        ok = _targets_mask(targets, A, B, d)
        check.outcomes_checked += int(A.size)
        bad = ~ok
        failed = int(np.count_nonzero(bad))
        if failed:
            check.failed_outcomes += failed
            idx = np.argwhere(bad)[:25]
            for (k,) in idx:
                check.counterexamples.append(
                    TransitionCounterexample(
                        source_profile=(int(SA[k]), int(SB[k])),
                        outcome_profile=(int(A[k]), int(B[k])),
                        cancellation_exponent=e,
                    )
                )
    return check


def transition_sources(regime: Regime, d: int, window: int, include_t: bool = True):
    """All labels in the window that carry a depth-1 transition claim."""
    for label in iter_region_labels(regime, d, window, include_t=include_t):
        try:
            expected_preimage_regions(label, depth=1)
        except KeyError:
            continue
        if label.name == "T" and (d < 2 or label.index < 1):
            continue
        yield label


def check_all_transitions(d: int, window: int, include_t: bool = True, cancel_depth=None):
    """Run every depth-1 window transition check for this d; returns the list of checks."""
    regime = regime_of_d(d)
    checks = []
    for label in transition_sources(regime, d, window, include_t=include_t):
        checks.append(
            check_transition_profiles(label, d, window, depth=1, cancel_depth=cancel_depth)
        )
    return checks
