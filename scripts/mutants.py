"""Make one mutant at a time of each module of ``src/fedgate`` and run it against the tests that reach it.

Run from anywhere. Arguments before ``--`` name modules as the sweep prints
them (every module by default); those after it are pytest's, and the default
is the whole of ``tests/``::

    python scripts/mutants.py
    python scripts/mutants.py fedgate/clock.py fedgate/keys.py
    python scripts/mutants.py fedgate/access/ratelimit.py -- tests/test_access.py

Each mutant makes one change to one place:

- a comparison swapped: ``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
  ``in``/``not in``, ``is``/``is not``;
- every ``and`` of one expression made ``or``, or every ``or`` made ``and``;
- one ``not`` dropped;
- an ``if`` with no ``else`` whose body is one ``raise`` or ``return``
  turned off, as ``if False and (test):``.

The script copies the repository, without ``.git``, caches or bytecode, into a
temporary directory, and makes every mutant there, never in the working
tree. First it runs the tests once in this process under
``scripts/unreached.py``'s line hook, which notes the test functions that run
each line. Then, one mutant at a time, it edits the copy's text in place, so
line numbers hold, and runs ``pytest -x`` over the test functions (parameters
stripped) that ran a header line of the mutated statement, or over all the
tests when the statement ran only outside a test, as a module's body does on
import; the file is restored in a ``finally``. A failed test or an
interruption (exit 1 or 2), or a run longer than twice the recorded run plus
30 s, kills the mutant. Any other exit, a pass included, sends the mutant on
to all the tests: the recorder cannot see what a test runs in a subprocess
(``tests/test_scripts.py``, ``tests/test_unreached.py``), and pytest exits 4
when a named test's module fails to import. There any exit but 0 kills it,
since the unmutated tests passed with the same arguments: pytest's own error
(exit 3), when a module's import exits as the ``__main__`` guard turned
around does, comes from the mutant too.

Every run leaves out ``tests/test_mutants.py``, which checks this script and
its table against the source: a mutant of a statement ``EQUIVALENT`` names
would fail that check, not a test of ``src/fedgate``. Each run sets
``PYTHONDONTWRITEBYTECODE=1``: ``==`` to ``!=`` keeps a file's size, so a
``.pyc`` written in the same mtime second would run the stale code. Each run
fixes Hypothesis's seed, and the copy's example database is removed after it,
so that a verdict repeats. Statements that ``scripts/unreached.py``'s
``ALLOWED`` names are skipped.

Each survivor is printed as ``module:line qualname: text [operator]``, with
``qualname`` and ``text`` as ``scripts/unreached.py`` writes them. The script
exits 1 when the unmutated tests fail, a mutant does not compile or its
statement ran under no test, or unless the survivors of the swept modules are
exactly the keys of ``EQUIVALENT``, which are ``(module, qualname, text,
operator)``; each value says why no test can tell that mutant from the code.
One key covers every like swap in one statement.

Sweeping the 534 mutants of every module against tier-1 took 42 minutes on
a 2-CPU host (2,520 s), or 20 minutes as two runs over halves of the modules
side by side (1,184 and 1,215 s), so the sweep is not part of tier-1;
``tests/test_mutants.py`` runs it over one small module and a probe test.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from functools import cache
from itertools import accumulate
from pathlib import Path

from unreached import ALLOWED, OUTSIDE, PACKAGE, ROOT, SRC, record, statements

EQUIVALENT = {
    ("fedgate/access/pending.py", "PendingTable.try_insert", "if len(born) > self._peak:", "> -> >="): (
        "at equality it stores len(born) as the peak, which is the peak already"
    ),
    ("fedgate/fl/datagen.py", "generate_partitions", "positive = margins > 0", "> -> >="): (
        "a margin is a dot product of standard normal draws, exactly 0 only on a tie: the demo's and the tests' "
        "fleets, and the bench's for seeds 1-30, keep every bit under this mutant"
    ),
    (
        "fedgate/fl/datagen.py",
        "generate_partitions",
        "positive = u < 0.5 + spec.label_skew * (np.arange(first, first + c)[:, None] / (k - 1) - 0.5)",
        "< -> <=",
    ): "u is a uniform draw, equal to its client's share only on a tie; no fleet of the demo, the tests or the bench changes",
    (
        "fedgate/fl/datagen.py",
        "generate_partitions",
        "y[...] = positive ^ (y < spec.label_noise) if noise else positive",
        "< -> <=",
    ): "y is a uniform draw, equal to label_noise only on a tie; no fleet of the demo, the tests or the bench changes",
    ("fedgate/fl/training.py", "local_train", "if checked and (not np.isfinite(grad).all()):", "and -> or"): (
        "an unchecked pass then also notes a non-finite gradient, but such a row stays non-finite to the "
        "epoch's end, so the epoch fails the peak test and its checked replay notes the same detail first"
    ),
    ("fedgate/fl/training.py", "local_train", "if checked or (peak <= DIVERGENCE_LIMIT).all():", "<= -> <"): (
        "a row exactly at the limit then causes a replay, which notes nothing for it and ends with the same weights"
    ),
    ("fedgate/fl/training.py", "FleetScores._fill", "np.equal(hits, labels >= 0.5, out=hits)", ">= -> >"): (
        "a logistic label is 0 or 1 in every program's data, and on those the two comparisons agree"
    ),
}

SWAPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.In: ("in", "not in"),
    ast.NotIn: ("not in", "in"), ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"),
}
BODIES = {"body", "orelse", "finalbody", "handlers", "cases"}
IGNORED = shutil.ignore_patterns(".git", ".bench_*", ".hypothesis", ".pytest_cache", "__pycache__", "*.pyc")
PYTEST = ["-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
# The sweep's own tests judge no mutant: their key check reads the mutated source,
# so a mutant of a statement that EQUIVALENT names would fail it.
OWN_TESTS = Path("tests") / "test_mutants.py"

Edit = tuple[int, int, str]  # (first offset, end offset, replacement), in characters of the module's text


def _own_expressions(node: ast.stmt):
    """Every expression a statement runs itself: a compound statement's header, not its body."""
    for name, value in ast.iter_fields(node):
        if name not in BODIES:
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    yield from ast.walk(child)


@cache
def _line_starts(text: str) -> list[int]:
    return [0, *accumulate(len(line) for line in text.splitlines(keepends=True))]


def mutants(text: str, node: ast.stmt) -> list[tuple[int, str, list[Edit]]]:
    """``(line, operator, edits)`` for each mutant of statement ``node`` of the module ``text``."""
    starts = _line_starts(text)

    def at(line: int, byte_column: int) -> int:
        return starts[line - 1] + len(text[starts[line - 1]:starts[line]].encode()[:byte_column].decode())

    def between(first: ast.expr, second: ast.expr, new: str) -> Edit:
        """The operator between two operands, replaced by ``new``: all the text between them
        but spaces, parentheses and comments (none can stand inside an f-string)."""
        begin, end = at(first.end_lineno, first.end_col_offset), at(second.lineno, second.col_offset)
        words = [m.span() for m in re.finditer(r"#[^\n]*|[^\s()\\]+", text[begin:end]) if m[0][0] != "#"]
        return (begin + words[0][0], begin + words[-1][1], new)

    found = []
    for expr in _own_expressions(node):
        if isinstance(expr, ast.Compare):
            operands = [expr.left, *expr.comparators]
            for i, op in enumerate(expr.ops):
                old, new = SWAPS[type(op)]
                found.append((expr.lineno, f"{old} -> {new}", [between(operands[i], operands[i + 1], new)]))
        elif isinstance(expr, ast.BoolOp):
            old, new = ("and", "or") if isinstance(expr.op, ast.And) else ("or", "and")
            edits = [between(a, b, new) for a, b in zip(expr.values, expr.values[1:])]
            found.append((expr.lineno, f"{old} -> {new}", edits))
        elif isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
            word = at(expr.lineno, expr.col_offset)
            found.append((expr.lineno, "drop not", [(word, word + len("not"), "")]))
    if isinstance(node, ast.If) and not node.orelse and len(node.body) == 1 and isinstance(node.body[0], (ast.Raise, ast.Return)):
        test = node.test
        start, end = at(test.lineno, test.col_offset), at(test.end_lineno, test.end_col_offset)
        found.append((node.lineno, "drop if", [(start, start, "False and ("), (end, end, ")")]))
    return sorted(found, key=lambda m: (m[0], m[2][0]))


def apply(text: str, edits: list[Edit]) -> str:
    for first, end, new in sorted(edits, reverse=True):
        text = text[:first] + new + text[end:]
    return text


def _in_copy(arg: str, copy: Path) -> str:
    """A pytest argument that names a path under the repository, made to name it in the copy."""
    path, sep, rest = arg.partition("::")
    if arg.startswith("-") or not Path(path).exists():
        return arg
    real = Path(path).resolve()
    return str(copy / real.relative_to(ROOT)) + sep + rest if real.is_relative_to(ROOT) else arg


def run(args: list[str], copy: Path, timeout: float) -> int | None:
    """The exit code of ``pytest`` over ``args`` in the copy, or None when it ran past ``timeout``."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(copy / "src")}
    ignore = f"--ignore={copy / OWN_TESTS}"
    command = [sys.executable, "-m", "pytest", *PYTEST, ignore, *(_in_copy(arg, copy) for arg in args)]
    try:
        return subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None
    finally:
        shutil.rmtree(copy / ".hypothesis", ignore_errors=True)


def main(argv: list[str]) -> int:
    split = argv.index("--") if "--" in argv else len(argv)
    chosen, pytest_args = argv[:split], argv[split + 1:] or [str(ROOT / "tests")]
    modules = chosen or [p.relative_to(SRC).as_posix() for p in sorted(PACKAGE.rglob("*.py"))]
    started = time.monotonic()
    code, by_test = record([*PYTEST[1:], f"--ignore={ROOT / OWN_TESTS}", *pytest_args])
    timeout = 2 * (time.monotonic() - started) + 30
    if code != 0:
        print(f"pytest exited {code} on the unmutated code")
        return 1
    failed, killed = False, 0
    survivors: dict[tuple[str, str, str, str], int] = {}
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        for module in modules:
            path, target = SRC / module, copy / "src" / module
            text = path.read_text(encoding="utf-8")
            tally = {"killed": 0, "survived": 0}
            real = os.path.realpath(path)
            ran = {test: files[real] for test, files in by_test.items() if real in files}
            for _, qualname, stmt, header, node in statements(path):
                if (module, qualname, stmt) in ALLOWED:
                    continue
                reached = [test for test, lines in ran.items() if not lines.isdisjoint(header)]
                subset = [test for test in reached if test != OUTSIDE]
                for site, operator, edits in mutants(text, node):
                    key, mutant = (module, qualname, stmt, operator), apply(text, edits)
                    where = f"{module}:{site} {qualname}: {stmt} [{operator}]"
                    try:
                        compile(mutant, str(path), "exec")
                    except SyntaxError:
                        print(f"does not compile: {where}")
                        failed = True
                        continue
                    if not reached:
                        print(f"ran under no test: {where}")
                        failed = True
                        continue
                    target.write_text(mutant, encoding="utf-8")
                    try:
                        code = run(subset or pytest_args, copy, timeout)
                        if subset and code not in (None, 1, 2):  # not a failed test, an interruption or a timeout
                            code = run(pytest_args, copy, timeout)
                    finally:
                        target.write_text(text, encoding="utf-8")
                    verdict = "killed" if code != 0 else "survived"
                    tally[verdict] += 1
                    if verdict == "survived":
                        survivors[key] = site
                        print(f"survived: {where}", flush=True)
            print(f"{module}: {tally['killed']} killed, {tally['survived']} survived", flush=True)
            killed += tally["killed"]
    swept = {key for key in EQUIVALENT if key[0] in modules}
    print(f"\n{killed} mutants killed in {time.monotonic() - started:.0f} s; {len(survivors)} survived the tests:")
    for (module, qualname, stmt, operator), site in survivors.items():
        mark = "equivalent" if (module, qualname, stmt, operator) in EQUIVALENT else "not in EQUIVALENT"
        print(f"{module}:{site} {qualname}: {stmt} [{operator}] ({mark})")
    for key in sorted(swept - set(survivors)):
        print(f"equivalent, but killed: {key[0]} {key[1]}: {key[2]} [{key[3]}]")
    return 1 if failed or set(survivors) != swept else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
