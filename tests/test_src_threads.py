"""One thread drives a desk.

No table in ``src/`` takes a lock: the registry, chain, gateway tables, job
queue and node registry are each read and written by the one thread that
drives the desk. This test is the check that stands in for those locks. It
walks ``src/``, ``bench/``, ``scripts/`` and ``tests/`` with ``ast`` and
fails on any import of a module that starts threads, processes or an event
loop, submodules included, unless ``ALLOWED`` names that module in that file
and says why no table is shared with the thread it starts. A change that adds
a second thread must bring synchronisation back to every table that thread
touches, or show that it touches none, and name the import here in the same
change.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "bench", "scripts", "tests")
CONCURRENCY = ("threading", "_thread", "multiprocessing", "concurrent.futures", "asyncio")

ALLOWED = {
    "src/fedgate/fl/training.py concurrent.futures": (
        "a large fleet's FleetScores keeps one worker thread for its job, which runs numpy on its "
        "own half of the evaluation's rows, touches no desk table, and is joined each round"
    ),
}


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
    found = [entry.partition(":")[0] + " " + entry.partition(" ")[2] for entry in concurrency_imports(ROOT)]
    assert sorted(found) == sorted(ALLOWED)


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


def test_importing_the_service_loads_no_thread_pool():
    # only a fleet that splits imports concurrent.futures, where it makes its worker
    code = "import sys, fedgate.service; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.stdout == "False\n", run.stderr
