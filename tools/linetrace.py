"""Statement trace of the test suite: which lines of `src/v2xric` no test reaches.

Runs the non-slow Tier-1 tests in this process under `sys.settrace`, records
every line executed in a frame whose file lies under `src/v2xric`, and prints
each executable line that none of them reached, as `path:line: source`.
Executable lines are the line numbers of every code object compiled from the
package's files. Work done in child processes (a subprocess test, sweep
workers) is not traced, so the lines only they run are listed too.

Usage, from anywhere:

    python3 tools/linetrace.py [extra pytest arguments]

Needs only the standard library and pytest. Exits with pytest's status.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "v2xric"


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every instruction compiled from `path`."""
    lines: set[int] = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module starts at 0
        pending.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def trace_tests(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with the tracer on; returns its exit status and the lines
    reached, by file."""
    prefix = str(PACKAGE) + "/"
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        reached.setdefault(filename, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))  # trace this checkout, not an installed copy
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-m", "not slow", "-p", "no:cacheprovider",
                              "--rootdir", str(ROOT), str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), reached


def main(argv: list[str]) -> int:
    status, reached = trace_tests(argv)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - reached.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable line(s) of {PACKAGE.relative_to(ROOT)} reached by no test")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
