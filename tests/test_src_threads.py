"""One thread drives a desk.

No table in ``src/`` takes a lock: the registry, chain, gateway tables, job
queue and node registry are each read and written by the one thread that
drives the desk. This test is the check that stands in for those locks. It
walks ``src/``, ``bench/``, ``scripts/`` and ``tests/`` with ``ast`` and
fails on any import of a module that starts threads, processes or an event
loop, submodules included. A change that adds a second thread must bring
synchronisation back to every table that thread touches, and remove the
module from this list in the same change.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "bench", "scripts", "tests")
CONCURRENCY = ("threading", "_thread", "multiprocessing", "concurrent.futures", "asyncio")


def _concurrent(module: str) -> bool:
    return any(module == name or module.startswith(name + ".") for name in CONCURRENCY)


def concurrency_imports(root: Path) -> list[str]:
    """``path:line module`` for each import of a concurrency module under ``root``."""
    found = []
    for tree in TREES:
        for path in sorted((root / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                    # ``from concurrent import futures`` imports the submodule by name
                    modules = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
                else:
                    continue
                hits = [m for m in modules if _concurrent(m)]
                if hits:
                    found.append(f"{path.relative_to(root).as_posix()}:{node.lineno} {hits[0]}")
    return found


def test_no_tree_imports_a_concurrency_module():
    assert concurrency_imports(ROOT) == []


def test_the_guard_sees_every_import_form(tmp_path):
    lines = [
        "import threading",
        "import os, _thread as t",
        "import multiprocessing.pool",
        "from concurrent.futures import ThreadPoolExecutor",
        "from concurrent import futures",
        "from asyncio import run",
        "import concurrent",
        "from threadpoolctl import threadpool_limits",
        "from . import threading",
    ]
    for tree in TREES:
        (tmp_path / tree).mkdir()
    (tmp_path / "tests" / "probe.py").write_text("\n".join(lines) + "\n")
    assert concurrency_imports(tmp_path) == [
        "tests/probe.py:1 threading",
        "tests/probe.py:2 _thread",
        "tests/probe.py:3 multiprocessing.pool",
        "tests/probe.py:4 concurrent.futures",
        "tests/probe.py:5 concurrent.futures",
        "tests/probe.py:6 asyncio",
    ]
