"""``src/`` keeps no default that only a test would take.

The test walks ``src/`` with ``ast`` and lists each function parameter that
has a default and each dataclass field that its constructor takes with a
default. The list must equal ``ALLOWED``, which names, for each default, the
caller that is not a test and takes it (or, for the few kept on purpose, why
it stays). A new default that only a test takes
fails here: give the test the value it needs instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_GATEWAY_LIMIT = "fedgate.desk.build_desk passes no limits for the demo and import-legacy"
_PROVISION = "bench/traffic.py provisions the training fleet from its client ids alone"
_HANDLE = "run_demo and bench/traffic.py send requests without some of the three"
_RUN_FEDERATION = "acceptance criteria 01 and 02 call run_federation with none; their bodies stay"
_DEMO_FEDERATION = "fedgate.scenario.DEFAULT_FEDERATION gives no such value"
_BODY = "from_camel_keys reads a POST /jobs body or a scenario config that omits the key"
_JOB_RECORD = "JobQueue.submit makes each record with its job id, spec and time alone"
_OUTCOME = "fedgate.access.workflows' refusal outcomes and contracts.GRANTED carry no such value"
_SCENARIO = "fedgate demo builds ScenarioConfig() when no --config is given"
_FILTER = "ServiceApi answers a POST /jobs without a dataFilter with DataFilter()"

ALLOWED = {
    "fedgate/access/workflows.py:AccessGateway.__init__(contract_path_per_minute)": _GATEWAY_LIMIT,
    "fedgate/access/workflows.py:AccessGateway.__init__(front_desk_per_minute)": _GATEWAY_LIMIT,
    "fedgate/access/workflows.py:AccessGateway.__init__(pending_capacity)": _GATEWAY_LIMIT,
    "fedgate/access/workflows.py:AccessGateway.__init__(pending_ttl_seconds)": _GATEWAY_LIMIT,
    "fedgate/cli.py:main(argv)": "the fedgate console script calls main() with no arguments",
    "fedgate/errors.py:check_integer(minimum)": "the LossSpec, FederationConfig, FaultEvent and DataFilter checks take 1",
    "fedgate/fl/federation.py:run_federation(observer)": _RUN_FEDERATION,
    "fedgate/fl/federation.py:run_federation(eligibility)": _RUN_FEDERATION,
    "fedgate/service/api.py:ServiceApi.handle(query)": _HANDLE,
    "fedgate/service/api.py:ServiceApi.handle(headers)": _HANDLE,
    "fedgate/service/api.py:ServiceApi.handle(body)": _HANDLE,
    "fedgate/service/nodes.py:NodeRegistry.provision(standby_clients)": _PROVISION,
    "fedgate/service/nodes.py:NodeRegistry.provision(standby_servers)": _PROVISION,
    "fedgate/service/nodes.py:NodeRegistry.provision(faults)": _PROVISION,
    "fedgate/desk.py:Desk._nonces": "build_desk makes the Desk from its eight wired parts alone",
    "fedgate/fl/config.py:LossSpec.bias": "fedgate.scenario.DEFAULT_FEDERATION's logistic loss has no bias",
    "fedgate/fl/config.py:FederationConfig.rng_seed": _BODY,
    "fedgate/fl/config.py:FederationConfig.batch_mode": _DEMO_FEDERATION,
    "fedgate/fl/config.py:FederationConfig.batch_size": _DEMO_FEDERATION,
    "fedgate/fl/config.py:FederationConfig.weighting": _DEMO_FEDERATION,
    "fedgate/fl/config.py:FederationConfig.initial_weights": _DEMO_FEDERATION,
    "fedgate/fl/datagen.py:SyntheticSpec.label_noise": "fedgate gen-data and the demo's dataset add no label noise",
    "fedgate/identity/document.py:DidDocument.claims": "DidDocument.for_key and bench/desk.py register documents with no claim",
    "fedgate/identity/document.py:DidDocument.version": "DidDocument.for_key and bench/desk.py register first versions",
    "fedgate/ledger/contracts.py:AccessOutcome.missing": _OUTCOME,
    "fedgate/ledger/contracts.py:AccessOutcome.grant": _OUTCOME,
    "fedgate/ledger/contracts.py:AccessOutcome.tx_id": _OUTCOME,
    "fedgate/scenario.py:ScenarioConfig.users": _SCENARIO,
    "fedgate/scenario.py:ScenarioConfig.qualified_users": _SCENARIO,
    "fedgate/scenario.py:ScenarioConfig.scheme": _SCENARIO,
    "fedgate/scenario.py:ScenarioConfig.federation": _SCENARIO,
    "fedgate/scenario.py:ScenarioConfig.fault_schedule": _SCENARIO,
    "fedgate/scenario.py:ScenarioConfig.standby_clients": _SCENARIO,
    "fedgate/scenario.py:ScenarioConfig.standby_servers": _SCENARIO,
    "fedgate/scenario.py:ScenarioConfig.seed": _SCENARIO,
    "fedgate/scenario.py:ScenarioConfig.out_dir": _SCENARIO,
    "fedgate/service/api.py:Response.content_type": "ServiceApi answers every route but a job's metrics in JSON",
    "fedgate/service/jobs.py:DataFilter.client_ids": _FILTER,
    "fedgate/service/jobs.py:DataFilter.feature_names": _FILTER,
    "fedgate/service/jobs.py:DataFilter.max_samples_per_client": _FILTER,
    "fedgate/service/jobs.py:JobRecord.state": _JOB_RECORD,
    "fedgate/service/jobs.py:JobRecord.metrics_address": _JOB_RECORD,
    "fedgate/service/jobs.py:JobRecord.model_address": _JOB_RECORD,
    "fedgate/service/jobs.py:JobRecord.cause": _JOB_RECORD,
    "fedgate/service/jobs.py:JobRecord.rounds_executed": _JOB_RECORD,
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    heads = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(getattr(h, "id", getattr(h, "attr", None)) == "dataclass" for h in heads)


def _constructor_default(value: ast.expr | None) -> bool:
    """Whether a field's right-hand side gives the constructor a default."""
    if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"):
        return value is not None
    options = {k.arg: k.value for k in value.keywords}
    in_init = not (isinstance(options.get("init"), ast.Constant) and options["init"].value is False)
    return in_init and ("default" in options or "default_factory" in options)


def defaulted_fields(root: Path) -> list[str]:
    found = []
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found.extend(
                    f"{module}:{node.name}.{item.target.id}"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and _constructor_default(item.value)
                )
    return found


def test_every_default_in_src_has_a_caller_outside_the_tests():
    parameters, fields = defaulted_parameters(SRC), defaulted_fields(SRC)
    assert len(parameters) == len(set(parameters)) == 14
    assert len(fields) == len(set(fields)) == 31
    assert set(parameters + fields) == set(ALLOWED)


def test_the_field_walk_sees_every_way_a_dataclass_field_takes_a_default(tmp_path):
    code = """if True:
        @dataclasses.dataclass(frozen=True)
        class Record:
            plain: int
            fixed: int = 0
            factory: list = field(default_factory=list)
            hidden: str = field(repr=False)
            derived: int = field(init=False)
            derived_with_default: int = field(init=False, default=0)
            given: tuple = field(default=())
            shown: str = field(init=True, default="")
            note: ClassVar[int]

        class NotARecord:
            fixed: int = 0
    """
    (tmp_path / "walked.py").write_text(code)
    assert defaulted_fields(tmp_path) == [
        "walked.py:Record.fixed", "walked.py:Record.factory", "walked.py:Record.given", "walked.py:Record.shown"
    ]
