"""List each statement of ``src/fedgate`` that no tier-1 test runs.

Run from anywhere; any arguments are pytest's, and the default is the whole of
``tests/``::

    python scripts/unreached.py
    python scripts/unreached.py tests/test_data.py -x

Before ``fedgate`` is imported, a ``sys.settrace`` hook starts recording the
line events of every frame whose code lives under ``src/fedgate``; then pytest
runs in this process. One thread drives a desk, so the hook of the one thread
sees every statement a test runs in-process. The hook is not set on the one
other thread ``src/`` starts, a large fleet's evaluation worker, which runs
only ``FleetScores._fill``, a method the calling thread runs too. Code a test
runs in a subprocess (the CLI and script tests) is not traced. A small pytest
plugin files the lines run so far under each test function as it ends, and
under ``OUTSIDE`` as the next one starts, so that ``scripts/mutants.py`` can
run a mutant against only the tests that ran its statement.

Every statement counts except a docstring, ``pass``, ``global``, ``nonlocal``
and an annotation without a value in a function body, none of which compiles
to code of its own. A statement is run when any line of its header raised a
line event: every line of a simple statement, and a compound statement's lines
up to its body.

Each statement that did not run is printed as ``module:line qualname: text``,
where ``qualname`` names the enclosing function or class (``<module>`` at the
top level) and ``text`` is the statement, or a compound statement's header, as
``ast.unparse`` writes it. The script exits 1 when a test fails, or unless the
statements that did not run are exactly the keys of ``ALLOWED``, which are
``(module, qualname, text)`` with no line number, so that an edit elsewhere in
the module keeps them; each value says why its statement stays.

The hook slows tier-1 about 1.7 times (70 s against 41 s for 714 tests on a
2-CPU host), so this sweep is not part of tier-1; ``tests/test_unreached.py``
runs it over one small test file.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "fedgate"
OUTSIDE = ""  # the key, among the tests, of the lines run outside any test

ALLOWED = {
    ("fedgate/access/legacy.py", "<module>", "from ..desk import Desk"): (
        "names the desk for type checkers only: the access layer is handed a desk and imports "
        "nothing above it at run time"
    ),
    ("fedgate/cli.py", "<module>", "sys.exit(main())"): (
        "runs only under ``python -m fedgate.cli``; the fedgate console script and the tests "
        "call main directly"
    ),
}

_COMPOUND = (
    ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try, ast.TryStar,
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Match,
)
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_NO_CODE = (ast.Pass, ast.Global, ast.Nonlocal)


def _is_docstring(node: ast.stmt, first: bool) -> bool:
    return first and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def _header(node: ast.stmt) -> tuple[range, str]:
    """The lines whose events count for ``node``, and its text."""
    if not isinstance(node, _COMPOUND):
        return range(node.lineno, node.end_lineno + 1), ast.unparse(node)
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
    inner = node.cases[0].pattern if isinstance(node, ast.Match) else node.body[0]
    bare = type(node)(**{**vars(node), "body": [], "orelse": [], "handlers": [], "finalbody": [], "cases": []})
    text = " ".join(line.strip() for line in ast.unparse(bare).splitlines())
    return range(first, max(inner.lineno, first + 1)), text


def statements(path: Path) -> list[tuple[int, str, str, range, ast.stmt]]:
    """``(line, qualname, text, header lines, node)`` for each counted statement in ``path``."""
    found = []

    def walk(body: list[ast.stmt], qualname: str, in_function: bool) -> None:
        for i, node in enumerate(body):
            if isinstance(node, _NO_CODE) or _is_docstring(node, i == 0):
                continue
            if isinstance(node, ast.AnnAssign) and node.value is None and in_function:
                continue
            lines, text = _header(node)
            found.append((node.lineno, qualname, text, lines, node))
            if isinstance(node, _DEFINITIONS):
                inner = node.name if qualname == "<module>" else f"{qualname}.{node.name}"
                walk(node.body, inner, not isinstance(node, ast.ClassDef))
                continue
            for field in ("body", "orelse", "finalbody"):
                walk(getattr(node, field, []), qualname, in_function)
            for clause in [*getattr(node, "handlers", []), *getattr(node, "cases", [])]:
                walk(clause.body, qualname, in_function)

    walk(ast.parse(path.read_text(encoding="utf-8")).body, "<module>", False)
    return found


def record(pytest_args: list[str]) -> tuple[int, dict[str, dict[str, set[int]]]]:
    """Run pytest with ``pytest_args`` under the hook: its exit code, and, for
    each test function (``path::name``, parameters stripped), the lines it ran
    in each file under ``src/fedgate``, by real path. Lines run outside any
    test, such as a module's body on import during collection, are under
    ``OUTSIDE``."""
    ran: dict[str, bytearray] = {}  # by code file name: one byte per line, set once the line runs
    real: dict[str, str | None] = {}  # each code file name seen: its real path if under src/fedgate
    by_test: dict[str, dict[str, set[int]]] = {}
    prefix = str(PACKAGE) + os.sep

    # One shared line hook that sets a byte, not a closure per call: a test
    # that bounds its heap peak with ``tracemalloc`` sees nothing the hook allocates.
    def on_line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename][frame.f_lineno] = 1
        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in real:
            path = os.path.realpath(filename)
            real[filename] = path if path.startswith(prefix) else None
            if real[filename]:
                ran[filename] = bytearray(Path(path).read_bytes().count(b"\n") + 2)
        return on_line if real[filename] else None

    def file_under(test: str) -> None:
        for filename, flags in ran.items():
            lines = [m.start() for m in re.finditer(b"\x01", flags)]
            if lines:
                by_test.setdefault(test, {}).setdefault(real[filename], set()).update(lines)
                flags[:] = bytes(len(flags))

    sys.path.insert(0, str(SRC))
    sys.settrace(on_call)
    try:
        import pytest

        class PerTest:
            """Files the lines run so far under ``OUTSIDE`` as a test starts, and under the test as it ends."""

            @pytest.hookimpl(wrapper=True)
            def pytest_runtest_protocol(self, item):
                file_under(OUTSIDE)
                try:
                    return (yield)
                finally:
                    file_under(f"{item.path}::{item.nodeid.partition('::')[2].partition('[')[0]}")

        code = pytest.main(pytest_args, plugins=[PerTest()])
    finally:
        sys.settrace(None)
    file_under(OUTSIDE)
    return int(code), by_test


def unreached(by_test: dict[str, dict[str, set[int]]]) -> list[tuple[str, int, str, str]]:
    """``(module, line, qualname, text)`` for each statement of ``src/fedgate`` no line of whose header ran in any test or outside one."""
    ran: dict[str, set[int]] = {}
    for files in by_test.values():
        for path, lines in files.items():
            ran.setdefault(path, set()).update(lines)
    missed = []
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = ran.get(os.path.realpath(path), set())
        module = path.relative_to(SRC).as_posix()
        for line, qualname, text, header, _ in statements(path):
            if lines.isdisjoint(header):
                missed.append((module, line, qualname, text))
    return missed


def main(argv: list[str]) -> int:
    code, by_test = record(argv or [str(ROOT / "tests")])
    missed = unreached(by_test)
    print(f"\n{len(missed)} statements of src/fedgate ran under no test:")
    for module, line, qualname, text in missed:
        print(f"{module}:{line} {qualname}: {text}")
    keys = {(module, qualname, text) for module, _, qualname, text in missed}
    for key in sorted(set(ALLOWED) - keys):
        print(f"allowed, but ran: {':'.join(key)}")
    if code != 0:
        print(f"pytest exited {code}")
    return 0 if code == 0 and keys == set(ALLOWED) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
