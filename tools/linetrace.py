#!/usr/bin/env python3
"""List the lines of src/padic_henon that the tier-1 tests never run.

Runs the tier-1 suite in this process under a `sys.settrace` line tracer, then
prints each executable line of the package that no test ran, as
`path:line  source`, and their count.  Code that tests run in a subprocess
(the CLI's `__main__` call, for one) is not seen.  Tracing makes the suite
several times slower, so this is a tool to run by hand, not a CI step:

    python3 tools/linetrace.py [pytest arguments]
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "padic_henon"


def executable(code) -> set:
    """The lines of `code` and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable(const)
    return lines


def main(args) -> int:
    files = {str(path): path for path in sorted(SRC.glob("*.py"))}
    ran = {name: set() for name in files}

    def trace(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return trace

    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    missed = 0
    for name, path in files.items():
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable(compile("\n".join(text), name, "exec")) - ran[name]):
            print(f"{path.relative_to(ROOT)}:{line}  {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} lines of {SRC.relative_to(ROOT)} never run")
    return int(code)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
