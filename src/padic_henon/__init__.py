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

The names below load their home module on first access (PEP 562), so that
`import padic_henon` and each CLI command load only the modules they use.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Each public name's home module.
_HOMES = {
    **dict.fromkeys(["PadicRational", "digit_view", "Point", "NonSquareError",
                     "PrecisionExhaustedError", "is_square", "sqrt", "sample_with_norm"], "padics"),
    **dict.fromkeys(["fib", "cassini", "cassini2", "golden_cmp"], "fib"),
    **dict.fromkeys(["Regime", "RegionLabel", "EmptyRegionError", "classify",
                     "expected_preimage_regions", "sample_in_region"], "regions"),
    **dict.fromkeys(["OrbitRecord", "UndefinedInverseError", "BitBudgetError", "forward",
                     "inverse", "backward_orbit", "backward_profile_orbit", "forward_orbit",
                     "fixed_points", "exact_fixed_points", "three_cycle"], "dynamics"),
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Loading a submodule binds it on the package; the function `fib` keeps
        # the name that its module `fib` would otherwise take.
        if not (name == "fib" and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
