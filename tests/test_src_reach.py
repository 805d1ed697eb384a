"""``src/`` keeps no public name that no program reaches.

The test walks ``src/`` with ``ast`` and lists every public function and
class, and every public method and property of a class, whose name no code
in ``src/``, ``bench/`` or ``scripts/`` uses: as an attribute or a string
(``bench/tracing.py`` names what it wraps by string), or, for a top-level
function or class, also as a bare name. A local variable that shares a
method's spelling is no use of the method. An import is not a use. The list must equal ``KEPT``, which gives, for each name no
program reaches, why it stays.

It matches by name, not by binding: a method called ``get`` counts as used
wherever any ``.get`` is called. So it catches only a name that appears
nowhere else, and a dead name that shares its spelling with a live one
passes unseen.

Each package's ``__init__`` imports exactly the names that code outside the
package (in ``src/``, ``bench/`` or ``scripts/``) imports through it, each
from the package module that defines it, and ``src/`` holds no ``__all__``:
tests import everything else from the defining module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

KEPT = {
    "fedgate/access/ratelimit.py:SlidingWindowLimiter.tracked_keys": (
        "the one reading of the limiter's key bound, which the bound test checks"
    ),
    "fedgate/identity/registry.py:DidRegistry.replay_log": "the one validator of identity.jsonl",
    "fedgate/service/nodes.py:NodeRegistry.active_server": (
        "the failover tests read which server node serves"
    ),
    "fedgate/service/nodes.py:NodeRegistry.serving_node": (
        "the failover tests read which node serves a client"
    ),
}


def public_definitions(root: Path) -> dict[str, str]:
    """``module:qualname`` to name, for each public top-level def and class member."""
    found = {}
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[f"{module}:{node.name}"] = node.name
            for member in node.body if isinstance(node, ast.ClassDef) else []:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    found[f"{module}:{node.name}.{member.name}"] = member.name
    return found


def used_names(roots: list[Path]) -> tuple[set[str], set[str]]:
    """Every bare name in ``roots``, and every attribute and string."""
    names, attributes = set(), set()
    for root in roots:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    attributes.add(node.value)
    return names, attributes


def unreached(root: Path) -> set[str]:
    names, attributes = used_names([root / "src", root / "bench", root / "scripts"])
    return {
        key
        for key, name in public_definitions(root / "src").items()
        if name not in attributes and ("." in key.partition(":")[2] or name not in names)
    }


def test_every_public_name_in_src_is_reached_or_kept():
    assert unreached(ROOT) == set(KEPT)


PACKAGES = ("access", "fl", "identity", "ledger", "service")


def _module_parts(path: Path, root: Path) -> list[str]:
    parts = list(path.relative_to(root).with_suffix("").parts)
    return parts[:-1] if parts[-1] == "__init__" else parts


def imported_modules(path: Path, root: Path):
    """``(module, names)`` for each ``from … import`` in ``path``, relative ones
    resolved against its place under ``root``."""
    package = _module_parts(path, root)
    if path.name != "__init__.py":
        package = package[:-1]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            yield ".".join([*base, *filter(None, [node.module])]), [a.name for a in node.names]


def imported_through_packages(root: Path) -> dict[str, set[str]]:
    """Per package, the names that ``src/`` outside it, ``bench/`` and ``scripts/``
    import through its ``__init__``."""
    wanted = {package: set() for package in PACKAGES}
    for top in ("src", "bench", "scripts"):
        base = root / "src" if top == "src" else root
        for path in sorted((root / top).rglob("*.py")):
            home = _module_parts(path, base)[:2]
            for module, names in imported_modules(path, base):
                package = module.removeprefix("fedgate.")
                if package in wanted and home != ["fedgate", package]:
                    wanted[package].update(names)
    return wanted


def top_level_names(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def reexports(init: Path) -> dict[str, str]:
    """Each name ``init`` imports, to the module it names; ``init`` must hold
    nothing but its docstring and ``from .module import …`` lines."""
    found = {}
    for node in ast.parse(init.read_text()).body[1:]:
        assert isinstance(node, ast.ImportFrom) and node.level == 1 and node.module, (
            f"{init}: {ast.unparse(node)}"
        )
        found.update((alias.name, node.module) for alias in node.names)
    return found


def test_each_package_reexports_what_programs_import_through_it_from_where_it_is_defined():
    exported = {}
    for package in PACKAGES:
        init = SRC / "fedgate" / package / "__init__.py"
        exported[package] = reexports(init)
        for name, module in exported[package].items():
            assert name in top_level_names(init.parent / f"{module}.py"), (
                f"fedgate.{package} re-exports {name}, which .{module} does not define"
            )
    assert {p: set(names) for p, names in exported.items()} == imported_through_packages(ROOT)


def test_src_holds_no_all_list():
    assert [p for p in SRC.rglob("*.py") if "__all__" in p.read_text()] == []
