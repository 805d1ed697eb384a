"""``src/`` keeps no default that only a test would take.

The test walks every function in ``src/`` with ``ast`` and lists each
parameter that has a default. The list must equal ``ALLOWED``, which names,
for each default, the caller that is not a test and takes it (or, for the
few kept on purpose, why it stays). A new default that only a test takes
fails here: give the test the value it needs instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_GATEWAY_LIMIT = "fedgate.desk.build_desk passes no limits for the demo and import-legacy"
_PROVISION = "bench/traffic.py provisions the training fleet from its client ids alone"
_HANDLE = "run_demo and bench/traffic.py send requests without some of the three"
_RUN_FEDERATION = "acceptance criteria 01 and 02 call run_federation with none; their bodies stay"

ALLOWED = {
    "fedgate/access/workflows.py:AccessGateway.__init__(contract_path_per_minute)": _GATEWAY_LIMIT,
    "fedgate/access/workflows.py:AccessGateway.__init__(front_desk_per_minute)": _GATEWAY_LIMIT,
    "fedgate/access/workflows.py:AccessGateway.__init__(pending_capacity)": _GATEWAY_LIMIT,
    "fedgate/access/workflows.py:AccessGateway.__init__(pending_ttl_seconds)": _GATEWAY_LIMIT,
    "fedgate/cli.py:main(argv)": "the fedgate console script calls main() with no arguments",
    "fedgate/desk.py:Desk.deploy_policy(requirements)": "run_demo deploys the membership policy",
    "fedgate/errors.py:check_integer(minimum)": "the LossSpec, FederationConfig, FaultEvent and DataFilter checks take 1",
    "fedgate/fl/federation.py:run_federation(observer)": _RUN_FEDERATION,
    "fedgate/fl/federation.py:run_federation(eligibility)": _RUN_FEDERATION,
    "fedgate/service/api.py:ServiceApi.handle(query)": _HANDLE,
    "fedgate/service/api.py:ServiceApi.handle(headers)": _HANDLE,
    "fedgate/service/api.py:ServiceApi.handle(body)": _HANDLE,
    "fedgate/service/nodes.py:NodeRegistry.provision(standby_clients)": _PROVISION,
    "fedgate/service/nodes.py:NodeRegistry.provision(standby_servers)": _PROVISION,
    "fedgate/service/nodes.py:NodeRegistry.provision(faults)": _PROVISION,
}


def defaulted_parameters(root: Path) -> list[str]:
    found = []
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                name = getattr(child, "name", None)
                if isinstance(child, ast.FunctionDef):
                    args = child.args
                    positional = args.posonlyargs + args.args
                    with_default = positional[len(positional) - len(args.defaults) :]
                    with_default += [
                        a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                    ]
                    qualname = ".".join([*scope, name])
                    found.extend(f"{module}:{qualname}({a.arg})" for a in with_default)
                visit(child, [*scope, name] if name else scope)

        visit(ast.parse(path.read_text()), [])
    return found


def test_every_default_in_src_has_a_caller_outside_the_tests():
    found = defaulted_parameters(SRC)
    assert len(found) == len(set(found)) == 15
    assert set(found) == set(ALLOWED)
