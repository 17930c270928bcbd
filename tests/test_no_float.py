"""The package computes without floating point.

An AST scan of every module under src/padic_henon rejects float literals,
calls of float() and round(), imports of numpy, and any use of a `math`
function other than the integer ones.  The one float the package may hold is
a report's `wall_time`, a timing field that no result depends on.
"""

import ast
from pathlib import Path

import pytest

import padic_henon

PACKAGE = Path(padic_henon.__file__).resolve().parent
INTEGER_MATH = {"isqrt", "gcd", "lcm", "comb", "perm", "factorial"}
TIMING_FIELDS = {"wall_time"}


def _timing_values(tree) -> set:
    """ids of the nodes assigned to a timing field, where a float is allowed."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id if isinstance(t, ast.Name) else getattr(t, "attr", None) for t in targets}
            if names & TIMING_FIELDS:
                allowed.update(id(n) for n in ast.walk(node.value))
    return allowed


def float_uses(source: str) -> list:
    """(line, what) for every floating-point use the rule forbids."""
    tree = ast.parse(source)
    allowed = _timing_values(tree)
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("float", "round"):
                found.append((node.lineno, f"call of {node.func.id}()"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    found.append((node.lineno, f"import {alias.name}"))
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[0]
            if module == "numpy":
                found.append((node.lineno, f"from {node.module} import"))
            elif module == "math":
                for alias in node.names:
                    if alias.name not in INTEGER_MATH:
                        found.append((node.lineno, f"from math import {alias.name}"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math" and node.attr not in INTEGER_MATH:
                found.append((node.lineno, f"math.{node.attr}"))
    return found


MODULES = sorted(PACKAGE.glob("*.py"))


def test_package_modules_found():
    names = {path.name for path in MODULES}
    assert {"padics.py", "dynamics.py", "regions.py", "verifier.py", "cli.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_no_float(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5",
        "x = 1e3",
        "y = float(3)",
        "y = round(7, 2)",
        "import numpy as np",
        "import numpy.linalg",
        "from numpy import zeros",
        "from math import sqrt",
        "from math import log2, isqrt",
        "import math\ny = math.floor(3)",
        "wall = 0.0",
        "def f(report):\n    report.margin = 0.25",
    ],
)
def test_scan_flags_each_float_use(source):
    assert float_uses(source)


@pytest.mark.parametrize(
    "source",
    [
        "from math import isqrt, gcd",
        "import math\ny = math.isqrt(10)",
        "class R:\n    wall_time: float = 0.0",
        "def f(report, t0, now):\n    report.wall_time = now() - t0",
        "q = 7 // 2",
    ],
)
def test_scan_passes_integer_code_and_timing(source):
    assert float_uses(source) == []
