"""Statements of src/didlab that no Tier-1 test executes.

    PYTHONPATH=src python tests/uncovered.py

runs the Tier-1 suite in this process under sys.settrace (threads too) and
prints one "path:line  statement" line for each statement of src/didlab
that no test executed, then a count per module.  A statement counts when
any line of it that holds bytecode ran: for a compound statement (if, for,
def, ...) those are its header lines, for any other statement all of its
lines.  Docstrings and other statements without bytecode are not listed.

didlab is imported after the tracer is on, so its module-level statements
count too.  Processes that tests start are not traced, and the hypothesis
tests' random examples can add or drop a rarely taken branch between runs.
The suite runs 1.3-4x slower than without the tracer; its own exit status
goes to stderr, and a failing test does not stop the listing.

Uses only the standard library and pytest; pytest does not collect it.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "didlab"


def _code_lines(code) -> set[int]:
    """The lines that hold bytecode in code and the code objects inside it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(path: Path) -> list[tuple[int, set[int]]]:
    """(first line, lines with bytecode) of each statement in path."""
    text = path.read_text(encoding="utf-8")
    executable = _code_lines(compile(text, str(path), "exec"))
    out = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.stmt):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        lines = executable.intersection(range(first, max(first, last) + 1))
        if lines:
            out.append((node.lineno, lines))
    return sorted(out, key=lambda s: s[0])


def main() -> int:
    sources = {str(p): p for p in sorted(SRC.glob("*.py"))}
    hit: dict[str, set[int]] = {name: set() for name in sources}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename in hit:
            hit[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"pytest exit status {int(status)}", file=sys.stderr)

    per_module = Counter()
    for name, path in sources.items():
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, code_lines in _statements(path):
            if not code_lines & hit[name]:
                rel = path.relative_to(ROOT)
                print(f"{rel}:{lineno}  {lines[lineno - 1].strip()}")
                per_module[rel.name] += 1
    for module, k in sorted(per_module.items()):
        print(f"{module}: {k}")
    print(f"total: {sum(per_module.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
