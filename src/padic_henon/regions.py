"""Named valuation regions of Q_p^2 and their one-step backward transitions.

A point (x, y) is classified purely through its *norm profile* (a, b) =
(log_p|x|, log_p|y|) relative to d = log_p|c|.  Three regimes exist: SMALL
(|c| < 1, d < 0), UNIT (|c| = 1, d = 0) and LARGE (|c| > 1, d > 0), each with
its own total partition of the marker-free profiles.

One catalogue names the regions.  Each regime's table lists every fixed
label once, in enumeration order; the Fibonacci-indexed families (UNIT M;
LARGE C, D, B, A, M and the overlay T) are built per index, from the first
index ``_FAMILIES`` gives; the overlay's d >= 2 is a constraint of its branch.
Every family but T is written through one linear form,
phi_k(a, b) = (-1)^(k+1) * (F(k-1)*a - F(k)*b), and the bounds a, b OP d*F(j),
for odd and even indices alike; the forward profile map (a, b) -> (a + b, a)
carries phi_k to phi_(k-1).
``region_branches``, ``iter_region_labels`` and ``expected_preimage_regions``
all read it, and each one-step transition rule is written once for every
regime it holds in.

Every region is described twice, deliberately:

* ``region_branches`` gives the verbatim defining inequalities, one
  declarative constraint tuple per <=/< choice, in the form
  ca*a + cb*b OP cd*d + c1 (plus golden-ratio comparisons, which are exact
  integer sign computations).
* ``classify`` is an independent decision tree with an ascending index
  search for the Fibonacci-indexed families.  The search slides a window of
  consecutive Fibonacci numbers along by additions.  In LARGE it tests the
  rungs only from the first one that can hold the profile, where a <=
  d*F(2n+3) or b <= d*F(2n+1), so a call costs about one rung.  Every label
  it returns is one shared frozen instance per distinct label, built before
  the call: the fixed labels at import, each family member on first use.

One evaluator, ``branches_hold``, reads a list of table branches at a profile
and stops at the first branch that holds; ``profile_in_region`` is it on one
region's branches.  Its golden test is ``fib.golden_below``,
while ``classify`` keeps ``fib.golden_cmp``, so the agreement check also
compares two independent golden tests.

``branch_interval`` cuts a branch along an affine segment t -> (a, b): every
constraint holds on an interval of t with exact integer ends.  A linear one
takes one floor division by the rounding rule ``_ROUNDING``; a golden one
ends at the floor of its crossing with beta*b = a, from one ``isqrt`` and
confirmed by ``golden_below``.  The grid checker cuts its transition pieces
with it.  ``region_rows`` cuts each branch once for all its window rows, by
the same rule per row and by the Beatty bound floor(a/beta) for a golden
constraint.  Boundaries along the irrational line |y| = |x|^(1/beta) are
never attained by integer profiles, which is what makes the index search
terminate.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import isqrt

from .fib import fib, golden_below, golden_cmp
from .padics import Point, _with_norm, validate_odd_prime

__all__ = [
    "Regime",
    "RegionLabel",
    "EmptyRegionError",
    "regime_of_d",
    "classify",
    "region_branches",
    "eval_constraint",
    "branches_hold",
    "profile_in_region",
    "iter_region_labels",
    "branch_interval",
    "region_rows",
    "region_profiles",
    "region_sampler",
    "sample_in_region",
    "t_profile",
    "expected_preimage_regions",
]


class Regime(str, Enum):
    SMALL = "small"  # |c| < 1
    UNIT = "unit"  # |c| = 1
    LARGE = "large"  # |c| > 1


def regime_of_d(d: int) -> Regime:
    if d < 0:
        return Regime.SMALL
    if d == 0:
        return Regime.UNIT
    return Regime.LARGE


@dataclass(frozen=True)
class RegionLabel:
    """Identifier (regime, name, index); index is present exactly for indexed families."""

    regime: Regime
    name: str
    index: int | None = None

    def __str__(self):
        return self.name if self.index is None else f"{self.name}{self.index}"

    def to_json(self) -> dict:
        return {"regime": self.regime.value, "name": self.name, "index": self.index}

    @classmethod
    def from_json(cls, obj: dict) -> "RegionLabel":
        return cls(Regime(obj["regime"]), obj["name"], obj.get("index"))


class EmptyRegionError(ValueError):
    """The requested region contains no admissible profile for these parameters."""


# ---------------------------------------------------------------------------
# Declarative region table.
#
# A linear constraint is (ca, cb, cd, c1, op) meaning  ca*a + cb*b  OP  cd*d + c1
# with op one of "<", "<=", "==", ">=", ">".  GOLDEN_BELOW / GOLDEN_ABOVE stand
# for beta*b < a and beta*b > a (that is, beta*(-b) < -a).  A region is a
# union (list) of conjunction branches (lists of constraints).
# ---------------------------------------------------------------------------

GOLDEN_BELOW = ("golden", -1)
GOLDEN_ABOVE = ("golden", 1)

_SMALL_TABLE = {
    ("Z", None): [[(1, 0, 0, 0, "=="), (0, 1, 0, 0, "==")]],
    ("R", None): [[(1, 0, 1, 0, "=="), (0, 1, 1, 0, "==")]],
    ("A", 1): [[(1, 0, 1, 0, "<="), (0, 1, 0, 0, ">=")]],
    ("A", 2): [[(1, 0, 0, 0, ">="), (0, 1, 1, 0, "<=")]],
    ("A", 3): [[(1, 0, 0, 0, ">"), (0, 1, 0, 0, "==")]],
    ("A", 4): [[(1, 0, 0, 0, "=="), (0, 1, 0, 0, ">")]],
    ("A", 5): [[(1, 0, 0, 0, ">="), (0, 1, 1, 0, ">"), (0, 1, 0, 0, "<")]],
    ("A", 6): [[(1, 0, 1, 0, ">"), (1, 0, 0, 0, "<"), (0, 1, 0, 0, ">=")]],
    ("B", 1): [[(1, 0, 0, 0, ">"), (0, 1, 0, 0, ">"), GOLDEN_BELOW]],
    ("B", 2): [[(1, 0, 0, 0, ">"), (0, 1, 0, 0, ">"), GOLDEN_ABOVE]],
    ("P", 1): [[(1, 0, 1, 0, "<"), (0, 1, 1, 0, "<=")]],
    ("P", 2): [[(1, 0, 1, 0, ">"), (1, 0, 0, 0, "<"), (0, 1, 1, 0, "<=")]],
    ("P", 3): [[(1, 0, 1, 0, "<"), (0, 1, 1, 0, ">"), (0, 1, 0, 0, "<")]],
    ("P", 4): [[(1, 0, 1, 0, ">"), (1, 0, 0, 0, "<"), (0, 1, 1, 0, ">"), GOLDEN_BELOW]],
    ("P", 5): [[(1, 0, 1, 0, ">"), (1, 0, 0, 0, "<"), GOLDEN_ABOVE, (0, 1, 0, 0, "<")]],
    # Read as |x| = |c| and (|y| < |c| or |c| < |y| < 1): the grouping that
    # makes the partition exact.
    ("P", 6): [
        [(1, 0, 1, 0, "=="), (0, 1, 1, 0, "<")],
        [(1, 0, 1, 0, "=="), (0, 1, 1, 0, ">"), (0, 1, 0, 0, "<")],
    ],
}


_UNIT_TABLE = {
    ("C", 0): [
        [(1, 0, 0, 0, "=="), (0, 1, 0, 0, "<=")],
        [(1, 0, 0, 0, "<="), (0, 1, 0, 0, "==")],
    ],
    ("F", None): [[(1, 0, 0, 0, "<"), (0, 1, 0, 0, "<")]],
    ("G", None): [[(1, 0, 0, 0, "<="), (0, 1, 0, 0, ">")]],
    ("H", None): [[(1, 0, 0, 0, ">"), (0, 1, 0, 0, "<=")]],
}


_LARGE_TABLE = {
    ("F", None): [[(1, 0, 1, 0, "<"), (0, 1, 0, 0, "<")]],
    ("G", None): [[(1, 0, 1, 0, "<="), (0, 1, 1, 0, ">")]],
    ("H", None): [[(1, 0, 1, 0, ">"), (0, 1, 0, 0, "<=")]],
    ("J", 0): [[(1, 0, 1, 0, "<"), (0, 1, 0, 0, ">"), (0, 1, 1, 0, "<")]],
    ("C", 0): [
        [(1, 0, 1, 0, "<"), (0, 1, 0, 0, "==")],
        [(1, 0, 1, 0, "<"), (0, 1, 1, 0, "==")],
        [(1, 0, 1, 0, "=="), (0, 1, 1, 0, "<=")],
    ],
}

# Every fixed label, once, in enumeration order.
_TABLES = {Regime.SMALL: _SMALL_TABLE, Regime.UNIT: _UNIT_TABLE, Regime.LARGE: _LARGE_TABLE}

# The indexed families of each regime, in enumeration order, with their first
# index: ``region_branches`` rejects any below it.
_FAMILIES = {
    Regime.SMALL: {},
    Regime.UNIT: {"M": 1},
    Regime.LARGE: {"C": 1, "D": 2, "B": 1, "A": 1, "M": 1, "T": 0},
}
_MAX_INDEX = 10_000  # F(10,000) has about 2,090 digits; no enumerable window reaches it


def _phi(k: int, op: str, cd: int = 1):
    """The constraint phi_k OP cd*d, k >= -1, where phi_k(a, b) =
    (-1)^(k+1) * (F(k-1)*a - F(k)*b).  The forward profile map
    Phi(a, b) = (a + b, a) carries it down an index: phi_k o Phi = phi_(k-1)."""
    s = 1 if k % 2 else -1
    return (s * fib(k - 1), -s * fib(k), cd, 0, op)


def _a(op: str, j: int):
    return (1, 0, fib(j), 0, op)  # a OP d*F(j)


def _b(op: str, j: int):
    return (0, 1, fib(j), 0, op)  # b OP d*F(j)


# Each family member is built once and shared, like the fixed tables above.
@lru_cache(maxsize=None)
def _family_branches(regime: Regime, name: str, i: int):
    if regime is Regime.UNIT:  # M_i: the band between two Fibonacci slopes
        return [[_phi(i - 2, ">", 0), _phi(i - 1, ">", 0), _phi(i, "<=", 0)]]
    if name == "C":
        return [[_a(">", i - 1), _a("<=", i + 1), _phi(i, "==")]]
    if name == "D":
        return [[_a(">", i - 1), _a("<", i), _phi(i - 2, "==")]]
    if name == "M":
        if i % 2:
            return [[_a(">", i - 1), _b(">", i - 2), _b("<=", i), _phi(i, ">")]]
        return [[_a(">", i - 1), _a("<=", i + 1), _phi(i, ">")]]
    if name == "T":  # the norm sphere pair scaled by (d - 1), only for d >= 2
        return [[
            (1, 0, fib(i + 1), -fib(i + 1), "=="),
            (0, 1, fib(i), -fib(i), "=="),
            (0, 0, 1, -2, "<="),
        ]]
    if (name == "B") == (i % 2 == 0):  # the upper shell half: B_i, i even; A_i, i odd
        return [[_a(">", i), _a("<=", i + 1), _phi(i - 1, ">"), _phi(i + 1, "<")]]
    return [[_a(">", i), _a("<", i + 1), _phi(i - 1, "<"), _phi(i, "<")]]  # the lower half


def region_branches(label: RegionLabel):
    """The region's defining inequalities as a union of conjunction branches:
    its regime's table entry, else its member of an indexed family, whose
    index must be at least the family's first and at most _MAX_INDEX."""
    regime, name, i = label.regime, label.name, label.index
    branches = _TABLES[regime].get((name, i))
    if branches is not None:
        return branches
    first = _FAMILIES[regime].get(name)
    if first is None or i is None:
        raise KeyError(f"unknown {regime.name} region {label}")
    if i < first:
        raise KeyError(f"{name} family starts at index {first}")
    if i > _MAX_INDEX:
        raise KeyError(f"{name} family index {i} is above {_MAX_INDEX}")
    return _family_branches(regime, name, i)


_OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq, ">=": operator.ge, ">": operator.gt}


def eval_constraint(con, a: int, b: int, d: int) -> bool:
    """One table constraint at the profile (a, b)."""
    if con[0] == "golden":
        return golden_below(a, b) if con[1] < 0 else golden_below(-a, -b)
    ca, cb, cd, c1, op = con
    return _OPS[op](ca * a + cb * b, cd * d + c1)


def branches_hold(branches, a: int, b: int, d: int) -> bool:
    """True at the first of `branches` whose constraints all hold at (a, b),
    each branch left at its first failure."""
    for branch in branches:
        for con in branch:
            if not eval_constraint(con, a, b, d):
                break
        else:
            return True
    return False


def profile_in_region(label: RegionLabel, a: int, b: int, d: int) -> bool:
    """The declarative inequalities of `label` at (a, b)."""
    return branches_hold(region_branches(label), a, b, d)


# ---------------------------------------------------------------------------
# The classifier: an independent decision tree over (a, b, d).
# ---------------------------------------------------------------------------

# Labels are frozen values, so the classifier hands out one shared instance
# per distinct label; there are logarithmically many in |a|.
_label = lru_cache(maxsize=None)(RegionLabel)


class _Family(dict):
    """One indexed family's shared labels by index, each fetched from
    ``_label`` on first use, so a lookup hashes only the index."""

    def __init__(self, regime: Regime, name: str):
        super().__init__()
        self.regime, self.name = regime, name

    def __missing__(self, i: int) -> RegionLabel:
        label = self[i] = _label(self.regime, self.name, i)
        return label


# The fixed labels, in table order, are built at import; the families'
# members on first use, for any index.
(_SZ, _SR, _SA1, _SA2, _SA3, _SA4, _SA5, _SA6, _SB1, _SB2,
 _SP1, _SP2, _SP3, _SP4, _SP5, _SP6) = (_label(Regime.SMALL, *key) for key in _SMALL_TABLE)
_UC0, _UF, _UG, _UH = (_label(Regime.UNIT, *key) for key in _UNIT_TABLE)
_LF, _LG, _LH, _LJ0, _LC0 = (_label(Regime.LARGE, *key) for key in _LARGE_TABLE)
_UM = _Family(Regime.UNIT, "M")
_LC, _LD, _LB, _LA, _LM = (_Family(Regime.LARGE, name) for name in "CDBAM")


def classify(profile, d: int) -> RegionLabel:
    """Total classification of a norm profile into exactly one region.

    `profile` is (a, b) with None marking a zero coordinate.  b = None (y = 0)
    yields the distinguished OutsideQ label; a = None (x = 0) is treated as
    a = -infinity, for which min(d, 0) - 1 stands in: the tree compares such
    an a only with d and 0.  d = log_p|c| must be an integer, so c = 0 has no
    regime partition.
    """
    a, b = profile
    if b is None:
        return _label(regime_of_d(d), "OutsideQ", None)
    if a is None:
        a = min(d, 0) - 1
    if d < 0:
        return _classify_small(a, b, d)
    if d == 0:
        return _classify_unit(a, b)
    return _classify_large(a, b, d)


def _classify_small(a: int, b: int, d: int) -> RegionLabel:
    if b > 0:
        if a <= d:
            return _SA1
        if a < 0:
            return _SA6
        if a == 0:
            return _SA4
        return _SB1 if golden_cmp(b, a) < 0 else _SB2
    if b == 0:
        if a <= d:
            return _SA1
        if a < 0:
            return _SA6
        if a == 0:
            return _SZ
        return _SA3
    if b <= d:
        if a >= 0:
            return _SA2
        if a == d:
            return _SR if b == d else _SP6
        if a < d:
            return _SP1
        return _SP2
    # d < b < 0
    if a >= 0:
        return _SA5
    if a == d:
        return _SP6
    if a < d:
        return _SP3
    return _SP4 if golden_cmp(b, a) < 0 else _SP5


def _classify_unit(a: int, b: int) -> RegionLabel:
    if b > 0:
        if a <= 0:
            return _UG
    elif b == 0:
        return _UH if a > 0 else _UC0
    else:
        if a > 0:
            return _UH
        return _UC0 if a == 0 else _UF
    # a, b > 0: Fibonacci bands around the golden line, searched outward.
    if b >= a:
        return _UM[1]
    if 2 * b <= a:
        return _UM[2]
    # F(2n-2)..F(2n+2), slid two indices per step.
    n = 1
    f2n_2, f2n_1, f2n, f2n1, f2n2 = 1, 1, 2, 3, 5
    while f2n_2 <= 3 * (a + b):
        if a * f2n <= b * f2n1 and b * f2n_1 < a * f2n_2:
            return _UM[2 * n + 1]
        if a * f2n_1 < b * f2n and b * f2n2 <= a * f2n1:
            return _UM[2 * n + 2]
        n += 1
        f2n_2, f2n_1, f2n = f2n, f2n1, f2n2
        f2n1 = f2n_1 + f2n
        f2n2 = f2n + f2n1
    raise RuntimeError(f"band search failed for profile ({a}, {b})")  # pragma: no cover


def _classify_large(a: int, b: int, d: int) -> RegionLabel:
    if a < d:
        if b < 0:
            return _LF
        if b == 0 or b == d:
            return _LC0
        if b < d:
            return _LJ0
        return _LG
    if a == d:
        return _LG if b > d else _LC0
    if b <= 0:
        return _LH
    # F(2n-2)..F(2n+3), slid two indices per step.  Each test of rung n
    # needs a <= d*F(2n+3) or b <= d*F(2n+1), so the search starts at the
    # first rung where one of the two holds: no rung it passes can match.
    n = 0
    f2n_2, f2n_1, f2n, f2n1, f2n2, f2n3 = 1, 0, 1, 1, 2, 3
    while True:
        if a <= d * f2n3 or b <= d * f2n1:
            if a > d * f2n and d * f2n_1 < b <= d * f2n1 and a * f2n - b * f2n1 > d:
                return _LM[2 * n + 1]
            if d * f2n1 < a <= d * f2n3 and b * f2n2 - a * f2n1 > d:
                return _LM[2 * n + 2]
            if d * f2n < a <= d * f2n2 and a * f2n - b * f2n1 == d:
                return _LC[2 * n + 1]
            if d * f2n1 < a <= d * f2n3 and b * f2n2 - a * f2n1 == d:
                return _LC[2 * n + 2]
            if n >= 1 and d * f2n < a < d * f2n1 and a * f2n_2 - b * f2n_1 == d:
                return _LD[2 * n + 1]
            if d * f2n1 < a < d * f2n2 and b * f2n - a * f2n_1 == d:
                return _LD[2 * n + 2]
            if n >= 1 and d * f2n < a <= d * f2n1 and a * f2n - b * f2n1 < d and b * f2n_1 - a * f2n_2 < -d:
                return _LB[2 * n]
            if d * f2n1 < a < d * f2n2 and a * f2n - b * f2n1 < d and b * f2n - a * f2n_1 < d:
                return _LB[2 * n + 1]
            if d * f2n1 < a <= d * f2n2 and b * f2n - a * f2n_1 > d and b * f2n2 - a * f2n1 < d:
                return _LA[2 * n + 1]
            if d * f2n2 < a < d * f2n3 and a * f2n - b * f2n1 < d and b * f2n2 - a * f2n1 < d:
                return _LA[2 * n + 2]
        n += 1
        f2n_2, f2n_1, f2n, f2n1 = f2n, f2n1, f2n2, f2n3
        f2n2 = f2n + f2n1
        f2n3 = f2n1 + f2n2
        if d * f2n > a and d * f2n_1 > b:
            raise RuntimeError(
                f"partition hole at profile ({a}, {b}), d={d}"
            )  # pragma: no cover


# ---------------------------------------------------------------------------
# Region enumeration and sampling.
# ---------------------------------------------------------------------------


def iter_region_labels(d: int, window: int, include_t: bool = False):
    """All region labels that can meet the window |a|, |b| <= window: the
    table of the regime of d, then its indexed families.

    A family is enumerated until Fibonacci growth pushes it past the window;
    one extra (possibly empty) index is included for safety.  The overlay
    family T is enumerated only on request, and only for d >= 2.  The labels
    are the shared instances that ``classify`` returns.
    """
    regime = regime_of_d(d)
    yield from (_label(regime, name, i) for name, i in _TABLES[regime])
    for name, i in _FAMILIES[regime].items():
        if name == "T" and not (include_t and d >= 2):
            continue
        scale, shift = (1, -1) if regime is Regime.UNIT else (d - 1, 1) if name == "T" else (d, -2)
        while scale * fib(i + shift) <= window:
            yield _label(regime, name, i)
            i += 1

def t_profile(n: int, d: int):
    """The unique norm profile of the n-th overlay sphere pair, defined for d >= 2."""
    if d < 2:
        raise EmptyRegionError(f"overlay family requires d >= 2, got d={d}")
    if n < 0:
        raise ValueError("n must be >= 0")
    return ((d - 1) * fib(n + 1), (d - 1) * fib(n))


_FLIP = {"<": ">", "<=": ">=", "==": "==", ">=": "<=", ">": "<"}

# The one op-to-rounding rule: coef*t OP rhs with coef > 0 holds for
# t >= (rhs + down) // coef + 1 and t <= (rhs + up) // coef, a side whose
# shift is None being unbounded; == bounds both sides.
_ROUNDING = {"<": (None, -1), "<=": (None, 0), "==": (-1, 0), ">=": (-1, None), ">": (0, None)}


def _golden_crossing(a0: int, a1: int, b0: int, b1: int) -> int:
    """floor(t) at the t where a0 + a1*t = beta*(b0 + b1*t), (a1, b1) != (0, 0):
    t = (2a0 - b0 - b0*sqrt5) / (b1 - 2a1 + b1*sqrt5) = (p + q*sqrt5) / m, and
    one ``isqrt`` gives floor(q*sqrt5) exactly, sqrt5 being irrational."""
    u, v = 2 * a0 - b0, b1 - 2 * a1
    p, q, m = u * v + 5 * b0 * b1, -(u * b1 + b0 * v), v * v - 5 * b1 * b1
    if m < 0:
        p, q, m = -p, -q, -m
    r = isqrt(5 * q * q)
    return (p + (r if q >= 0 else -r - 1)) // m


def _golden_last(a0: int, a1: int, b0: int, b1: int) -> int:
    """The last t with beta*B < A at (A, B) = (a0 + a1*t, b0 + b1*t), where
    A - beta*B falls in t: the floor of the crossing, ``_golden_crossing``,
    where ``golden_below`` confirms it; else the crossing is an integer t, at
    (A, B) = (0, 0), and the last t is one before it."""
    t = _golden_crossing(a0, a1, b0, b1)
    return t if golden_below(a0 + a1 * t, b0 + b1 * t) else t - 1


def _golden_row(a: int) -> int:
    """The largest b with beta*b < a: the Beatty value floor(a/beta), or -1
    at a = 0."""
    return _golden_last(a, 0, 0, 1)


def _golden_cut(sign: int, a0: int, a1: int, b0: int, b1: int, lo: int, hi: int):
    """lo..hi cut to the t with beta*B < A (sign -1) or beta*B > A (sign 1) at
    (A, B) = (a0 + a1*t, b0 + b1*t); the second is the first on (-A, -B).

    A - beta*B is affine in t.  Where it falls, the test holds up to
    ``_golden_last``; where it grows, t -> -t makes it fall, and the test
    holds from minus the last t of the mirrored segment.
    """
    if sign > 0:
        a0, a1, b0, b1 = -a0, -a1, -b0, -b1
    if not (a1 or b1):  # constant: the test holds everywhere or nowhere
        return (lo, hi) if golden_below(a0, b0) else (lo, lo - 1)
    if golden_below(a1, b1):
        return max(lo, -_golden_last(a0, -a1, b0, -b1)), hi
    return lo, min(hi, _golden_last(a0, a1, b0, b1))


def branch_interval(branch, d: int, a0: int, a1: int, b0: int, b1: int, lo: int, hi: int):
    """The t in lo..hi at which one branch holds at (a, b) = (a0 + a1*t, b0 + b1*t),
    as (lo', hi'), empty when lo' > hi'.

    A linear constraint reads coef*t OP rhs, made coef > 0 by flipping, and
    cuts inline by ``_ROUNDING`` (a constant one keeps or empties); golden
    ones are applied last, on the interval the linear ones leave.
    """
    goldens = ()  # allocated only for a branch with a golden constraint
    for con in branch:
        if lo > hi:
            return lo, hi
        if con[0] == "golden":
            goldens += (con[1],)
            continue
        ca, cb, cd, c1, op = con
        coef, rhs = ca * a1 + cb * b1, cd * d + c1 - ca * a0 - cb * b0
        if coef < 0:
            coef, rhs, op = -coef, -rhs, _FLIP[op]
        elif not coef:
            if not _OPS[op](0, rhs):
                return lo, lo - 1
            continue
        down, up = _ROUNDING[op]
        if up is not None:
            q = (rhs + up) // coef
            if q < hi:
                hi = q
        if down is not None:
            q = (rhs + down) // coef + 1
            if q > lo:
                lo = q
    for sign in goldens:
        if lo > hi:
            break
        lo, hi = _golden_cut(sign, a0, a1, b0, b1, lo, hi)
    return lo, hi


def region_rows(label: RegionLabel, d: int, window: int):
    """The region's cells with |a|, |b| <= window as sorted rows (a, lo, hi).

    Each branch is cut once for all of its rows.  ``branch_interval`` cuts
    its pure-a constraints to a range of rows and its pure-b ones to a range
    of b.  Each two-variable constraint then bounds b in every row at once,
    one floor division per row by ``_ROUNDING``, and a golden one by the
    row's Beatty bound ``_golden_row``; a branch without either gives whole
    rows.  A row is the union of its branches' intervals of b, merged where
    they overlap or touch, so two intervals of one row are at least two apart.
    A label from a regime other than that of d raises ValueError.
    """
    if regime_of_d(d) is not label.regime:
        raise ValueError(f"d={d} is not in regime {label.regime.value}")
    rows = []
    branches = region_branches(label)
    for branch in branches:
        # Pure-a constraints (cb = 0) bound the rows and pure-b ones (ca = 0)
        # the columns; a golden sign is neither.
        pure_a = [con for con in branch if con[1] == 0]
        pure_b = [con for con in branch if con[0] == 0 and con[1] != 0]
        blo, bhi = branch_interval(pure_b, d, 0, 0, 0, 1, -window, window)
        if blo > bhi:
            continue
        alo, ahi = branch_interval(pure_a, d, 0, 1, 0, 0, -window, window)
        a_range = range(alo, ahi + 1)
        los, his = [blo] * len(a_range), [bhi] * len(a_range)
        for con in branch:
            if con[0] == "golden":
                if con[1] < 0:  # b <= the row's bound
                    his = list(map(min, his, map(_golden_row, a_range)))
                else:  # -b <= the bound of row -a
                    los = list(map(max, los, [-_golden_row(-a) for a in a_range]))
                continue
            ca, cb, cd, c1, op = con
            if not (ca and cb):
                continue
            # cb*b OP cd*d + c1 - ca*a along row a, made cb > 0 by flipping.
            rhs = cd * d + c1
            if cb < 0:
                ca, cb, rhs, op = -ca, -cb, -rhs, _FLIP[op]
            down, up = _ROUNDING[op]
            if up is not None:
                his = list(map(min, his, [(rhs + up - ca * a) // cb for a in a_range]))
            if down is not None:
                los = list(map(max, los, [(rhs + down - ca * a) // cb + 1 for a in a_range]))
        rows += [(a, lo, hi) for a, lo, hi in zip(a_range, los, his) if lo <= hi]
    if len(branches) == 1:  # one interval per row, already in order
        return tuple(rows)
    rows.sort()
    out = []
    for a, lo, hi in rows:
        if out and out[-1][0] == a and lo <= out[-1][2] + 1:
            out[-1] = (a, out[-1][1], max(hi, out[-1][2]))
        else:
            out.append((a, lo, hi))
    return tuple(out)


# maxsize=0 memoizes nothing: a cell tuple at W = 1000 takes about 100 MB, and
# a sampled check builds its region once.  The decorator stays because the
# benchmark calls `cache_clear` and the tests call `__wrapped__`.
@lru_cache(maxsize=0)
def region_profiles(label: RegionLabel, d: int, window: int):
    """All integer profiles of the region with |a|, |b| <= window, in the order
    of a scan over a, then b: ``region_rows`` expanded."""
    return tuple((a, b) for a, lo, hi in region_rows(label, d, window) for b in range(lo, hi + 1))


def region_sampler(
    label: RegionLabel,
    d: int,
    p: int,
    window: int,
    digit_count: int,
    rng: random.Random,
):
    """Yield exact points whose profiles are uniform over the region's window slice.

    The inputs are checked and the region's cells looked up once, at the first
    point; each point then draws one cell and a unit of each norm from `rng`,
    and nothing ahead of the point it yields.  The draws are those of
    ``rng.randrange(len(cells))`` and two ``sample_with_norm`` calls, read
    from ``rng.getrandbits`` as randrange reads them.  The first point of each
    cell is re-classified as a self-check; a mismatch would mean the sampler
    and classifier disagree and raises immediately.  Every later point of the
    cell has the same profile, so it has the same label.
    """
    if digit_count < 1:
        raise ValueError("digit_count must be >= 1")
    validate_odd_prime(p)
    profiles = region_profiles(label, d, window)
    if not profiles:
        raise EmptyRegionError(f"region {label} has no profile with window {window} (d={d})")
    # The overlay is no partition label, so its one cell is never classified.
    checked = set(profiles) if label.name == "T" else set()
    getrandbits, count = rng.getrandbits, len(profiles)
    bits = count.bit_length()
    width = p**digit_count - 1
    while True:
        i = getrandbits(bits)
        while i >= count:
            i = getrandbits(bits)
        a, b = cell = profiles[i]
        pt = Point(_with_norm(a, p, getrandbits, width), _with_norm(b, p, getrandbits, width))
        if cell not in checked:
            got = classify(pt.profile(), d)
            if got != label:
                raise AssertionError(f"sampler/classifier mismatch: wanted {label}, got {got}")
            checked.add(cell)
        yield pt


def sample_in_region(
    label: RegionLabel,
    d: int,
    p: int,
    window: int,
    digit_count: int,
    rng: random.Random,
) -> Point:
    """One exact point of the region's window slice: the first of ``region_sampler``."""
    return next(region_sampler(label, d, p, window, digit_count, rng))


# ---------------------------------------------------------------------------
# The transition table.
# ---------------------------------------------------------------------------


_SMALL_TRANSITIONS = {
    ("Z", None): [("Z", None)],
    ("A", 1): [("A", 2)],
    ("A", 2): [("A", 1)],
    ("A", 3): [("A", 4)],
    ("A", 4): [("A", 2), ("A", 5)],
    ("A", 5): [("A", 6)],
    ("A", 6): [("A", 2), ("A", 5)],
    ("B", 1): [("B", 2)],
    ("B", 2): [("B", 1), ("A", 2), ("A", 3), ("A", 5)],
    ("P", 1): [("A", 1)],
    ("P", 2): [("A", 1)],
    ("P", 3): [("P", 4), ("P", 5)],
    ("P", 4): [("P", 5), ("A", 6)],
    ("P", 5): [("P", 4)],
    # Both |y| sub-cases of the boundary column, taken together.
    ("P", 6): [("P", 1), ("P", 2), ("P", 3), ("P", 4), ("P", 5), ("A", 1)],
}


def expected_preimage_regions(label: RegionLabel, depth: int = 1) -> frozenset:
    """The admissible regions of f^(-depth) of the region, per the transition claims.

    Depth 2 exists only for the SMALL band A5.  A label that names no region
    raises ``region_branches``' KeyError; regions without a one-step claim
    (R, T0 and the boundary C/D families) raise KeyError too.
    """
    region_branches(label)
    regime, name, i = label.regime, label.name, label.index
    if depth == 2:
        if regime is Regime.SMALL and (name, i) == ("A", 5):
            return frozenset({RegionLabel(regime, "A", 2)})
        raise KeyError(f"no depth-2 claim for {label}")
    if depth != 1:
        raise ValueError("depth must be 1 or 2")
    if regime is Regime.SMALL:
        keys = _SMALL_TRANSITIONS.get((name, i))
    elif name in ("F", "G", "H"):  # the unbounded bands cycle F -> G -> H -> G
        keys = [("H" if name == "G" else "G", None)]
    elif name == "M":
        if i == 1:
            keys = [("H" if regime is Regime.UNIT else "G", None)]
        elif i % 2 or regime is Regime.UNIT:
            keys = [("M", i - 1)]
        else:  # LARGE M_{2n+2}: H and every odd band M_1, ..., M_{2n+1}
            keys = [("H", None)] + [("M", k) for k in range(1, i, 2)]
    elif name in ("B", "A"):
        # B_i and A_i lie in the Fibonacci shell j in {i, i + 1}, odd for B
        # and even for A.  f^-1 maps it into the shell j - 1: J0 when j = 1,
        # else the other family's members j - 2 and j - 1 (there is no B0).
        j = i if i % 2 == (name == "B") else i + 1
        other = "A" if name == "B" else "B"
        keys = [("J", 0)] if j == 1 else [(other, k) for k in (j - 2, j - 1) if k >= 1]
    elif (name, i) == ("J", 0):
        keys = [("J", 0)]
    elif name == "T" and i >= 1:
        keys = [("T", i - 1)]
    else:
        keys = None
    if keys is None:
        raise KeyError(f"no transition claim for {label}")
    return frozenset(RegionLabel(regime, n, k) for n, k in keys)
