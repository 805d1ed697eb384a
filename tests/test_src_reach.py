"""``src/`` keeps no public name that no program reaches.

The test walks ``src/`` with ``ast`` and lists every public function and
class, and every public method and property of a class, whose name no code
in ``src/``, ``bench/`` or ``scripts/`` uses: as a name, an attribute, or a
string (``bench/tracing.py`` names what it wraps by string). The names an
``__init__`` re-exports do not count as uses. The list must equal ``KEPT``,
which gives, for each name no program reaches, why it stays.

It matches by name, not by binding: a method called ``get`` counts as used
wherever any ``.get`` is called. So it catches only a name that appears
nowhere else, and a dead name that shares its spelling with a live one
passes unseen.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

KEPT = {
    "fedgate/access/ratelimit.py:SlidingWindowLimiter.tracked_keys": (
        "the one reading of the limiter's key bound, which the bound test checks"
    ),
    "fedgate/fl/datagen.py:read_manifest": "the reader of the manifest write_dataset writes",
    "fedgate/identity/registry.py:DidRegistry.replay_log": "the one validator of identity.jsonl",
    "fedgate/scenario.py:replay_ledger": "the replay check of events.jsonl against chain.jsonl",
    "fedgate/service/jobs.py:total_weighted_completion": "the oracle of acceptance criterion 09",
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


def used_names(roots: list[Path]) -> set[str]:
    """Every name, attribute and string in ``roots``, leaving out ``__all__`` lists."""
    names = set()
    for root in roots:
        for path in root.rglob("*.py"):
            for top in ast.parse(path.read_text()).body:
                if isinstance(top, ast.Assign) and "__all__" in map(ast.unparse, top.targets):
                    continue  # a re-export list names what it exports; it uses nothing
                for node in ast.walk(top):
                    if isinstance(node, ast.Name):
                        names.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        names.add(node.attr)
                    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                        names.add(node.value)
    return names


def unreached(root: Path) -> set[str]:
    used = used_names([root / "src", root / "bench", root / "scripts"])
    return {key for key, name in public_definitions(root / "src").items() if name not in used}


def test_every_public_name_in_src_is_reached_or_kept():
    assert unreached(ROOT) == set(KEPT)
