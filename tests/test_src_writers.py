"""``src/`` restates no record's camelCase key map by hand.

``fedgate.errors.to_camel_dict`` writes a dataclass record under the
camelCase of its constructor's field names, the keys ``from_camel_keys``
reads it from. The test walks ``src/`` with ``ast`` and lists each method of
a class that returns a dict literal whose keys are exactly the camelCase of
the class's field names (the names its body annotates, less those declared
``field(init=False)``): such a method restates the map that rule derives.
The list must be empty. A record whose JSON is not the camelCase of its
fields (``GrantToken``'s ``tokenDigest``, ``PublicKeyEntry``'s
``publicKeyHex``) keeps its own writer and is not listed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(word.title() for word in rest)


def constructor_fields(cls: ast.ClassDef) -> set[str]:
    """The camelCase of each name ``cls`` annotates, but those set with ``field(init=False)``."""
    names = set()
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            value = node.value
            off = isinstance(value, ast.Call) and any(
                k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
                for k in value.keywords
            )
            if not off:
                names.add(camel(node.target.id))
    return names


def restated_maps(tree: ast.AST, module: str) -> list[str]:
    """``module:Class.method`` for each method that returns its class's key map as a literal."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        wanted = constructor_fields(cls)
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            for node in ast.walk(method):
                literal = node.value if isinstance(node, ast.Return) else None
                if not isinstance(literal, ast.Dict) or not wanted:
                    continue
                keys = [k.value if isinstance(k, ast.Constant) else None for k in literal.keys]
                if None not in keys and set(keys) == wanted:
                    found.append(f"{module}:{cls.name}.{method.name}")
    return found


def test_no_method_in_src_restates_its_records_camel_key_map():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += restated_maps(ast.parse(path.read_text()), path.relative_to(SRC).as_posix())
    assert found == []


def test_the_check_sees_a_restated_map_and_passes_another_form():
    source = '''
@dataclass(frozen=True)
class Record:
    claim_type: str
    signature: bytes
    digest: str = field(init=False)

    def to_dict(self):
        return {"claimType": self.claim_type, "signature": self.signature.hex()}

    def other_form(self):
        return {"claimType": self.claim_type, "signatureHex": self.signature.hex()}

    def with_digest(self):
        return {"digest": self.digest, **self.to_dict()}
'''
    assert restated_maps(ast.parse(source), "m.py") == ["m.py:Record.to_dict"]
