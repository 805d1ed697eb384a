"""No numpy generator is built per client.

Seeding a numpy generator hashes its seed through a ``SeedSequence``, which
cost more than half of a minibatch round's shuffles when ``local_train`` built
one ``default_rng`` per client. The round's orders now come from one SplitMix64
array pass per size group (``training.epoch_orders``). This test walks ``src/``
with ``ast`` and fails on any call of ``default_rng``, ``SeedSequence``,
``Generator`` or ``PCG64`` that a ``for`` or ``while`` loop or a comprehension
repeats: a generator built once per round or per job is fine, one per client
or per item is not. Its runtime twin trains a minibatch cohort with the first
two patched to raise.
"""

import ast
from pathlib import Path

import numpy as np

from fedgate.fl import FederationConfig, LossSpec
from fedgate.fl.data import as_fleet
from fedgate.fl.training import local_train

from support import make_partition

SRC = Path(__file__).resolve().parent.parent / "src"
GENERATOR_NAMES = ("default_rng", "SeedSequence", "Generator", "PCG64")


def _repeated_parts(node: ast.AST) -> list[ast.AST]:
    """The children of a loop or comprehension that run once per item."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [*node.body, *node.orelse]
    if isinstance(node, ast.While):
        return [node.test, *node.body, *node.orelse]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        first, *rest = node.generators
        elements = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
        return [*elements, first.target, *first.ifs, *rest]
    return []


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def generators_built_in_loops(root: Path) -> list[str]:
    """``path:line name`` for each generator-building call a loop repeats under ``root``."""
    found = set()
    for path in root.rglob("*.py"):
        for loop in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            for part in _repeated_parts(loop):
                for node in ast.walk(part):
                    if isinstance(node, ast.Call) and _called_name(node) in GENERATOR_NAMES:
                        found.add((path.relative_to(root).as_posix(), node.lineno, _called_name(node)))
    return [f"{path}:{line} {name}" for path, line, name in sorted(found)]


def test_no_module_under_src_builds_a_generator_in_a_loop():
    assert generators_built_in_loops(SRC) == []


def test_the_guard_sees_every_loop(tmp_path):
    lines = [
        "rng = np.random.default_rng(seed)",  # once: allowed
        "for s in np.random.default_rng(seed).permutation(n):",  # the iterable runs once
        "    g = np.random.Generator(np.random.PCG64(s))",
        "while np.random.SeedSequence(s).entropy:",
        "    pass",
        "orders = [default_rng([s]).permuted(e) for s in seeds]",
        "table = {s: SeedSequence(s) for s in seeds}",
        "pairs = (x for s in default_rng(0).integers(9, size=3)",  # the first iterable runs once
        "         for x in default_rng(s).random(2))",
        "for s in seeds:",
        "    pass",
        "else:",
        "    last = default_rng(s)",
    ]
    (tmp_path / "probe.py").write_text("\n".join(lines) + "\n")
    assert generators_built_in_loops(tmp_path) == [
        "probe.py:3 Generator",
        "probe.py:3 PCG64",
        "probe.py:4 SeedSequence",
        "probe.py:6 default_rng",
        "probe.py:7 SeedSequence",
        "probe.py:9 default_rng",
        "probe.py:13 default_rng",
    ]


def test_a_minibatch_round_builds_no_generator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy generator was built")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    config = FederationConfig(
        total_rounds=1,
        total_clients=3,
        subset_size=3,
        local_epochs=3,
        learning_rate=0.1,
        loss=LossSpec(kind="logistic", feature_dim=2, bias=True),
        batch_mode="minibatch",
        batch_size=2,
    )
    parts = [
        make_partition(f"c{i}", np.full((n, 2), 0.5 * i), (np.arange(n) % 2).astype(float))
        for i, n in enumerate([5, 7, 5])
    ]
    trained = local_train(np.zeros(3), as_fleet(parts), config, [1, 2**64 - 1, 3], {})
    assert trained.shape == (3, 3) and np.isfinite(trained).all()
