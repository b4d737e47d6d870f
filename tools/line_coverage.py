"""Lines of ``src/gge_thermo`` that the test suite never runs, with the standard library alone.

Runs pytest in this process under ``sys.settrace`` and ``threading.settrace`` (so the sweep's
worker threads count too), tracing lines only in frames whose code lives in the package, then
prints, per module, the executable lines (those of each code object's ``co_lines``) that never
ran.  pytest's own summary is printed as it is.  A report, not a gate: it exits 0 whatever the
tests do.  Tracing slows the suite and allocates memory, so a test that bounds memory or
time may fail under it.

    python tools/line_coverage.py [pytest arguments]
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gge_thermo"


def executable_lines(code: types.CodeType) -> set[int]:
    """The lines of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as ``a, b-c, ...``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    import pytest

    prefix, paths, hits = str(PACKAGE) + os.sep, {}, {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in paths:     # the module's real path, or None outside the package
            real = os.path.realpath(name)
            paths[name] = real if real.startswith(prefix) else None
        if paths[name] is None:
            return None
        ran = hits.setdefault(paths[name], set())
        ran.add(frame.f_lineno)

        def line(frame, event, arg):
            ran.add(frame.f_lineno)
            return line
        return line

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print("\nlines never run:")
    for path in sorted(PACKAGE.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        missed = sorted(executable_lines(code) - hits.get(os.path.realpath(path), set()))
        print(f"  {path.name}: {ranges(missed) if missed else 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
