"""Exact-arithmetic toolkit for the backward dynamics of f(x, y) = (xy + c, x) on Q_p^2.

Modules:
    padics    exact rationals in Q_p, certified residues and their digit view,
              Hensel square roots
    fib       Fibonacci values, Cassini-type identities, golden-ratio comparisons
    dynamics  the map, its inverse, orbits with fate verdicts, fixed points
    regions   valuation-region classifier, samplers and the transition table
    gridcheck window-exhaustive partition and transition verification (row intervals)
    measure   exact Haar measures of balls, spheres and region windows
    verifier  sampling campaigns and structured verification reports
    cli       command-line frontend
"""

from .padics import (
    NonSquareError,
    PadicRational,
    Point,
    TruncatedPadic,
    is_square,
    sample_with_norm,
    sqrt,
)
from .fib import cassini, cassini2, fib, golden_cmp
from .regions import (
    EmptyRegionError,
    Regime,
    RegionLabel,
    classify,
    expected_preimage_regions,
    sample_in_region,
)
from .dynamics import (
    BitBudgetError,
    MapParams,
    OrbitRecord,
    PrecisionExhaustedError,
    UndefinedInverseError,
    backward_orbit,
    backward_profile_orbit,
    exact_fixed_points,
    fixed_points,
    forward,
    forward_orbit,
    inverse,
    three_cycle,
)

__version__ = "0.1.0"

__all__ = [
    "PadicRational",
    "TruncatedPadic",
    "Point",
    "NonSquareError",
    "is_square",
    "sqrt",
    "sample_with_norm",
    "fib",
    "cassini",
    "cassini2",
    "golden_cmp",
    "Regime",
    "RegionLabel",
    "EmptyRegionError",
    "classify",
    "expected_preimage_regions",
    "sample_in_region",
    "MapParams",
    "OrbitRecord",
    "UndefinedInverseError",
    "BitBudgetError",
    "PrecisionExhaustedError",
    "forward",
    "inverse",
    "backward_orbit",
    "backward_profile_orbit",
    "forward_orbit",
    "fixed_points",
    "exact_fixed_points",
    "three_cycle",
    "__version__",
]
