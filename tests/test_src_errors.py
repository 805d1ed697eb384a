"""``src/`` declares one exception type per handling.

The test walks ``src/`` with ``ast`` and lists every exception class. The
list must equal ``KEPT``, which names, for each type, the code outside the
tests that catches it by name, and each attribute a type sets beyond its
message must be read off the caught error there. A new exception that only a
test catches fails here: raise its base class, which already has the same
handling, and let the test match the message. So does an attribute that only
a test reads.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

KEPT = {
    "fedgate/errors.py:FedGateError": "JobExecutor.run marks the job failed",
    "fedgate/errors.py:ValidationError": "cli.main exits 2; ServiceApi.handle answers 400",
    "fedgate/identity/registry.py:AlreadyRegisteredError": (
        "import_legacy_accounts reports a taken DID or profile hash as skipped"
    ),
    "fedgate/identity/registry.py:UnknownDidError": (
        "bench/desk.py's document_lookup reads it as no document; the gateway and "
        "the claim check look up with Resolver.find, which raises nothing"
    ),
    "fedgate/ledger/contracts.py:ContractNotFoundError": "ServiceApi.handle answers 404",
    "fedgate/service/facade.py:UnauthorizedTokenError": "ServiceApi.handle answers 401",
    "fedgate/service/facade.py:UnknownJobError": "ServiceApi.handle answers 404",
    "fedgate/service/api.py:ApiError": "carries the status ServiceApi.handle answers",
}


def _parsed(root: Path):
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(root).as_posix(), ast.parse(path.read_text())


def exception_classes(root: Path) -> dict[str, ast.ClassDef]:
    """Every class under ``root`` that derives from a built-in exception, by ``module:name``."""
    classes = {
        f"{module}:{node.name}": node
        for module, tree in _parsed(root)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    exceptions: dict[str, ast.ClassDef] = {}
    grown = True
    while grown:
        names = {key.split(":")[1] for key in exceptions}
        grown = False
        for key, node in classes.items():
            bases = {ast.unparse(base).split(".")[-1] for base in node.bases}
            builtin = any(
                isinstance(getattr(builtins, b, None), type)
                and issubclass(getattr(builtins, b), BaseException)
                for b in bases
            )
            if key not in exceptions and (builtin or bases & names):
                exceptions[key] = node
                grown = True
    return exceptions


def caught_by_name(roots: list[Path]) -> set[str]:
    """Names in an ``except`` clause, also through a module-level tuple of exception types."""
    tuples, caught = {}, set()
    for root in roots:
        for _, tree in _parsed(root):
            for node in tree.body:
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
                    for target in node.targets:
                        tuples[ast.unparse(target)] = [ast.unparse(e) for e in node.value.elts]
            for node in ast.walk(tree):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                    caught.update(ast.unparse(kind).split(".")[-1] for kind in kinds)
    return caught | {name for key in caught & tuples.keys() for name in tuples[key]}


def test_src_declares_exactly_the_kept_exception_types():
    found = exception_classes(SRC)
    assert set(found) == set(KEPT)


def read_off_caught(roots: list[Path]) -> dict[str, set[str]]:
    """For each name in an ``except ... as error`` clause, the attributes its body reads off ``error``."""
    read: dict[str, set[str]] = {}
    for root in roots:
        for _, tree in _parsed(root):
            for node in ast.walk(tree):
                if isinstance(node, ast.ExceptHandler) and node.type is not None and node.name:
                    attributes = {
                        n.attr
                        for statement in node.body
                        for n in ast.walk(statement)
                        if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == node.name
                    }
                    kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                    for kind in kinds:
                        read.setdefault(ast.unparse(kind).split(".")[-1], set()).update(attributes)
    return read


def set_by_init(node: ast.ClassDef) -> set[str]:
    """The attributes the class's ``__init__`` sets on ``self``."""
    return {
        target.attr
        for method in node.body
        if isinstance(method, ast.FunctionDef) and method.name == "__init__"
        for n in ast.walk(method)
        if isinstance(n, ast.Assign)
        for target in n.targets
        if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "self"
    }


def test_each_kept_type_is_caught_outside_the_tests_or_carries_data():
    roots = [SRC, ROOT / "bench", ROOT / "scripts"]
    caught, read = caught_by_name(roots), read_off_caught(roots)
    for key, node in exception_classes(SRC).items():
        assert node.name in caught, f"{key}: {KEPT.get(key)}"
        unread = set_by_init(node) - read.get(node.name, set())
        assert not unread, f"{key}: no code outside the tests reads {sorted(unread)}"
