"""No program reads a raw array address.

A fleet is row ranges of one locked pool, and every consumer works from each
client's start and size: the scores' batched runs, the cohort's gather and
the filters are index arithmetic. An address (``ndarray.ctypes``,
``__array_interface__``, ``byte_bounds``) would let a consumer guess at
memory layout that the starts and sizes already state. This test walks ``src/`` with ``ast`` and fails on an
import of ``ctypes`` and on any use of those names, as an attribute, a bare
name or a string (``getattr``).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_NAMES = ("ctypes", "__array_interface__", "byte_bounds")


def address_reads(root: Path) -> list[str]:
    """``path:line name`` for each use of an address name under ``root``."""
    found = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").partition(".")[0]] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            hits = [n for n in names if n in ADDRESS_NAMES]
            if hits:
                found.add((path.relative_to(root).as_posix(), node.lineno, hits[0]))
    return [f"{path}:{line} {name}" for path, line, name in sorted(found)]


def test_no_module_under_src_reads_an_array_address():
    assert address_reads(SRC) == []


def test_the_guard_sees_every_form(tmp_path):
    lines = [
        "import ctypes",
        "from ctypes import c_void_p",
        "start = x.ctypes.data",
        "start = x.__array_interface__['data'][0]",
        "low, high = np.byte_bounds(x)",
        "from numpy.lib.array_utils import byte_bounds",
        "start = getattr(x, 'ctypes').data",
        "import numpy.ctypeslib",
        "n = x.strides",
    ]
    (tmp_path / "probe.py").write_text("\n".join(lines) + "\n")
    assert address_reads(tmp_path) == [
        "probe.py:1 ctypes",
        "probe.py:2 ctypes",
        "probe.py:3 ctypes",
        "probe.py:4 __array_interface__",
        "probe.py:5 byte_bounds",
        "probe.py:6 byte_bounds",
        "probe.py:7 ctypes",
    ]
