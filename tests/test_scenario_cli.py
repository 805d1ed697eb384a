import dataclasses
import hashlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from fedgate.access import SCHEME_CONTRACT_LOOKUP, SCHEME_USER_LOOKUP
from fedgate.access.legacy import import_legacy_accounts, read_accounts_csv
from fedgate.canonical import canonical_json_bytes
from fedgate.cli import build_parser, main
from fedgate.clock import SimulatedClock
from fedgate.desk import build_desk
from fedgate.errors import ValidationError
from fedgate.fl import (
    CsvMetricsWriter,
    DatasetPartition,
    FederationConfig,
    LossSpec,
    RoundMetrics,
    load_partitions,
    run_federation,
)
from fedgate.fl.data import as_fleet
from fedgate.identity import DidRegistry
from fedgate.ledger import Chain, load_chain, verify_chain_file
from fedgate.scenario import DEFAULT_FEDERATION, START_TIME, ScenarioConfig, run_demo
from fedgate.service import FaultEvent, NodeRegistry
from fedgate.service.jobs import DataFilter

from support import read_metrics_csv, receipt


def demo_config(tmp_path, name="demo", **overrides):
    return ScenarioConfig(out_dir=str(tmp_path / name), **overrides)


# ---------------------------------------------------------------- scenario


# Every file ``run_demo`` writes, so that none comes back or goes unnoticed.
DEMO_FILES = [
    "artifacts/job-0001/metrics.csv",
    "artifacts/job-0001/model.json",
    "chain.jsonl",
    "data/client_000.csv",
    "data/client_001.csv",
    "data/client_002.csv",
    "data/manifest.json",
    "identity.jsonl",
    "summary.json",
]


def test_default_scenario_happy_path(tmp_path):
    summary = run_demo(demo_config(tmp_path))
    out = tmp_path / "demo"
    assert summary["exitCode"] == 0
    assert [d["decision"] for d in summary["decisions"]] == ["granted", "denied"]
    assert summary["job"]["state"] == "completed"
    assert (out / summary["job"]["model"]).exists()
    ok, _ = verify_chain_file(out / "chain.jsonl")
    assert ok
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()) == DEMO_FILES


# sha256 of the seed-7 demo's ledger-side artifacts and its summary. They hold
# no floating point values (the summary keeps decisions, tx ids, the block
# count, the job state and relative paths), so the digests are the same on
# every machine; a change that moves one of them changes a chain payload, an
# identity record or the story's outcome.
LEDGER_DIGESTS = {
    "contract_lookup": {
        "chain.jsonl": "4ed329bdabd1c15fe79edcc8d5ad5a4742d45957f580b83827dbd359e91bbbb5",
        "identity.jsonl": "89733ab3a1e9c4b9570914759a40d146cfcc3b51b0bdaaedb5a7dfba9dc70634",
        "summary.json": "4981f6160bbc0c78586f01c493e18590a90d29a9b903a18e761e8949aa4dcd52",
    },
    "user_lookup": {
        "chain.jsonl": "064c10e95972f4a66a5e3732dce8d7bc46da1559c9be8d3265238e84498dda3d",
        "identity.jsonl": "89733ab3a1e9c4b9570914759a40d146cfcc3b51b0bdaaedb5a7dfba9dc70634",
        "summary.json": "314275abfbae80bd3896876ce70bf4a29cada7a6843b3d58bf2b8b41980a30d8",
    },
}


@pytest.mark.parametrize("scheme", sorted(LEDGER_DIGESTS))
def test_seed_7_ledger_artifacts_are_pinned(tmp_path, scheme):
    summary = run_demo(demo_config(tmp_path, seed=7, scheme=scheme))
    assert summary["exitCode"] == 0
    digests = {
        name: hashlib.sha256((tmp_path / "demo" / name).read_bytes()).hexdigest()
        for name in LEDGER_DIGESTS[scheme]
    }
    assert digests == LEDGER_DIGESTS[scheme]


def test_denial_lands_on_chain(tmp_path):
    summary = run_demo(demo_config(tmp_path))
    denial = next(d for d in summary["decisions"] if d["decision"] == "denied")
    blocks = load_chain(tmp_path / "demo/chain.jsonl")
    tx_ids = [tx.tx_id for block in blocks for tx in block.transactions]
    assert denial["txId"] in tx_ids
    assert denial["missing"] == ["consortium_member"]


def test_no_qualified_users_exits_nonzero(tmp_path):
    summary = run_demo(demo_config(tmp_path, users=1, qualified_users=0))
    assert summary["exitCode"] == 1
    assert "job" not in summary
    assert [d["decision"] for d in summary["decisions"]] == ["denied"]
    denial_txs = [
        tx
        for block in load_chain(tmp_path / "demo/chain.jsonl")
        for tx in block.transactions
        if tx.kind == "access_denial"
    ]
    assert len(denial_txs) == 1


def test_same_seed_twice_is_byte_identical(tmp_path):
    run_demo(demo_config(tmp_path, "one", seed=11))
    run_demo(demo_config(tmp_path, "two", seed=11))
    first, second = tmp_path / "one", tmp_path / "two"
    model = "artifacts/job-0001/model.json"
    assert (first / model).read_bytes() == (second / model).read_bytes()
    assert (first / "chain.jsonl").read_bytes() == (second / "chain.jsonl").read_bytes()
    for name in ("identity.jsonl", "summary.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    run_demo(demo_config(tmp_path, "three", seed=12))
    assert (first / model).read_bytes() != (tmp_path / "three" / model).read_bytes()


# The four seed-7 stories of scripts/run_demo.py.
DEMO_VARIANTS = {
    "scheme-a": {},
    "scheme-b": {"scheme": "user_lookup"},
    "client-failover": {"fault_schedule": (FaultEvent(3, "node-001"),), "standby_clients": 1},
    "server-failover": {"fault_schedule": (FaultEvent(3, "server-0"),), "standby_servers": 1},
}


@pytest.fixture(scope="module")
def seed_7_demos(tmp_path_factory):
    """The out dir of each seed-7 story, run once for the tests that only read it."""
    root = tmp_path_factory.mktemp("seed-7")
    for name, variant in DEMO_VARIANTS.items():
        assert run_demo(demo_config(root, name, seed=7, **variant))["exitCode"] == 0
    return {name: root / name for name in DEMO_VARIANTS}


def test_every_log_line_is_canonical_json(seed_7_demos):
    for out in seed_7_demos.values():
        for name in ("chain.jsonl", "identity.jsonl"):
            lines = (out / name).read_bytes().splitlines(keepends=True)
            assert lines and all(canonical_json_bytes(json.loads(line)) + b"\n" == line for line in lines)
        for name in ("summary.json", "artifacts/job-0001/model.json", "data/manifest.json"):
            data = (out / name).read_bytes()
            assert data == canonical_json_bytes(json.loads(data)) + b"\n", name


# sha256 of the canonical JSON of the seed-7 model.json's ``config`` block, and
# the contractId of the seed-7 policy, as its deploy_contract payload holds it:
# the job config and the contract body are written by the records' own writers.
SEED_7_CONFIG_DIGEST = "307b1f917f681004b8db8a17b0a84795436796e0dc3149a68f5e277240cdf14b"
SEED_7_CONTRACT_ID = "d8d6802f75531349c90e7b4b48d08a16e573f03e874a04a9b20c2e300cc7d60c"


@pytest.mark.parametrize("story", ["scheme-a", "scheme-b"])
def test_seed_7_job_config_and_contract_id_are_pinned(seed_7_demos, story):
    out = seed_7_demos[story]
    model = json.loads((out / "artifacts/job-0001/model.json").read_bytes())
    assert hashlib.sha256(canonical_json_bytes(model["config"])).hexdigest() == SEED_7_CONFIG_DIGEST
    deployed = [
        json.loads(tx.payload)
        for block in load_chain(out / "chain.jsonl")
        for tx in block.transactions
        if tx.kind == "deploy_contract"
    ]
    assert [payload["contractId"] for payload in deployed] == [SEED_7_CONTRACT_ID]


def test_identity_log_replay_names_a_repeated_registration(seed_7_demos, tmp_path):
    lines = (seed_7_demos["scheme-a"] / "identity.jsonl").read_bytes().splitlines(keepends=True)
    path = tmp_path / "identity.jsonl"
    path.write_bytes(b"".join(lines) + lines[0])
    with pytest.raises(ValidationError, match=f"line {len(lines) + 1}: did:efed:owner-0 is already registered"):
        DidRegistry.replay_log(path, receipt)


def test_identity_log_replay_names_a_skipped_version(seed_7_demos, tmp_path):
    lines = (seed_7_demos["scheme-a"] / "identity.jsonl").read_bytes().splitlines(keepends=True)
    number, entry = next((n, json.loads(line)) for n, line in enumerate(lines, 1) if b'"op":"update"' in line)
    entry["document"]["version"] += 1
    lines[number - 1] = canonical_json_bytes(entry) + b"\n"
    path = tmp_path / "identity.jsonl"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValidationError, match=f"line {number}: .*version must step 1 -> 2, got 3"):
        DidRegistry.replay_log(path, receipt)


def test_run_demo_returns_the_summary_it_writes(tmp_path):
    for name, variant in DEMO_VARIANTS.items():
        summary = run_demo(demo_config(tmp_path, name, seed=7, **variant))
        assert summary == json.loads((tmp_path / name / "summary.json").read_bytes())


def test_scheme_b_demo_reaches_same_decisions(tmp_path):
    a = run_demo(demo_config(tmp_path, "a", scheme="contract_lookup"))
    b = run_demo(demo_config(tmp_path, "b", scheme="user_lookup"))
    assert a["exitCode"] == b["exitCode"] == 0
    assert [d["decision"] for d in a["decisions"]] == [
        d["decision"] for d in b["decisions"]
    ]


def test_demo_with_client_fault_and_standby(tmp_path):
    config = demo_config(
        tmp_path,
        fault_schedule=(FaultEvent(3, "node-001"),),
        standby_clients=1,
    )
    summary = run_demo(config)
    assert summary["exitCode"] == 0
    model = json.loads((tmp_path / "demo" / summary["job"]["model"]).read_text())
    assert [a["kind"] for a in model["failover"]] == ["client-swap"]


@pytest.mark.parametrize("name, kinds", [("client-failover", ["client-swap"]), ("server-failover", ["server-swap"])])
def test_model_failover_log_is_the_fleet_actions(tmp_path, monkeypatch, name, kinds):
    fleets = []
    provision = NodeRegistry.provision

    def provision_and_keep(*args):
        fleets.append(provision(*args))
        return fleets[-1]

    monkeypatch.setattr(NodeRegistry, "provision", staticmethod(provision_and_keep))
    summary = run_demo(demo_config(tmp_path, seed=7, **DEMO_VARIANTS[name]))
    model = json.loads((tmp_path / "demo" / summary["job"]["model"]).read_bytes())
    (fleet,) = fleets
    assert [a["kind"] for a in fleet.actions] == kinds
    assert model["failover"] == fleet.actions


def test_scenario_config_invariants():
    with pytest.raises(ValidationError):
        ScenarioConfig(scheme="wishful_thinking")
    with pytest.raises(ValidationError):
        ScenarioConfig(qualified_users=5)


def test_scenario_config_bounds_are_inclusive():
    # every user may be qualified, and a fault may fall in the last round
    last = DEFAULT_FEDERATION.total_rounds
    config = ScenarioConfig(users=2, qualified_users=2, fault_schedule=(FaultEvent(last, "node-000"),))
    assert (config.qualified_users, config.fault_schedule[0].round_index) == (config.users, last)


PAST_T = [{"roundIndex": 9, "nodeId": "node-000"}]
TWICE = [{"roundIndex": 3, "nodeId": "node-001"}, {"roundIndex": 5, "nodeId": "node-001"}]


@pytest.mark.parametrize(
    "raw, message, written",
    [
        ({"faultSchedule": PAST_T}, "beyond T=8", None),
        ({"qualifiedUsers": 0, "faultSchedule": PAST_T}, "beyond T=8", None),
        ({"faultSchedule": [{"roundIndex": 2, "nodeId": "node-999"}]}, "unknown node", ["data"]),
        ({"faultSchedule": TWICE, "standbyClients": 1}, "names node 'node-001' twice", ["data"]),
        ({"faultSchedule": [{"roundIndex": 2, "nodeId": 1}]}, "fault node ids must be strings, got 1", None),
    ],
    ids=["beyond-final-round", "beyond-final-round-nobody-granted", "unknown-node", "repeated-node", "numeric-node"],
)
def test_bad_fault_schedule_exits_2_before_the_ledger_is_written(
    tmp_path, capsys, raw, message, written
):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "demo"
    assert main(["demo", "--config", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    if written is None:  # refused when the config is read
        assert not out.exists()
    else:
        assert sorted(p.name for p in out.iterdir()) == written


def test_cli_demo_whose_faults_take_every_client_fails_its_job(tmp_path, capsys):
    raw = {"faultSchedule": [{"roundIndex": 3, "nodeId": f"node-00{i}"} for i in range(3)]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "demo"
    assert main(["demo", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[-2] == "job: failed"
    job = json.loads((out / "summary.json").read_text())["job"]
    assert (job["state"], job["cause"], job["roundsExecuted"]) == ("failed", "no eligible clients to select from", 2)


def test_a_demo_that_loses_its_server_names_no_model(tmp_path):
    summary = run_demo(demo_config(tmp_path, fault_schedule=(FaultEvent(4, "server-0"),)))
    assert summary["exitCode"] == 1
    assert summary["job"] == {
        "jobId": "job-0001",
        "state": "failed",
        "cause": "server failed with no standby",
        "roundsExecuted": 3,
        "metrics": "artifacts/job-0001/metrics.csv",
        "model": None,
    }
    assert not (tmp_path / "demo" / "artifacts/job-0001/model.json").exists()


def test_cli_demo_scheme_flag_picks_the_workflow(tmp_path):
    for scheme in (SCHEME_USER_LOOKUP, SCHEME_CONTRACT_LOOKUP):
        out = tmp_path / scheme
        assert main(["demo", "--out", str(out), "--scheme", scheme]) == 0
        summary = json.loads((out / "summary.json").read_bytes())
        assert summary == run_demo(demo_config(tmp_path, f"{scheme}-in-process", scheme=scheme))
        assert summary["scheme"] == scheme


def test_cli_demo_idle_standby_fault_keeps_the_job_running(tmp_path):
    raw = {
        "faultSchedule": [
            {"roundIndex": 3, "nodeId": "standby-client-0"},
            {"roundIndex": 5, "nodeId": "node-001"},
        ],
        "standbyClients": 1,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "demo"
    assert main(["demo", "--config", str(path), "--out", str(out)]) == 0
    model = json.loads((out / "artifacts/job-0001/model.json").read_text())
    assert [a["kind"] for a in model["failover"]] == ["standby-lost", "client-excluded"]


@pytest.mark.parametrize(
    "raw",
    [
        {"owners": 3},
        [],
        {"faultSchedule": [{"roundIndex": 2}]},
        {"seed": 1.5},
        {"qualifiedUser": 0},
        {"faultSchedule": [{"roundIndex": 2, "nodeId": "server-0", "node": "server-0"}]},
        {"faultSchedule": 5},
    ],
    ids=[
        "owners-key",
        "not-an-object",
        "fault-without-node",
        "fractional-seed",
        "qualified-users-typo",
        "fault-event-extra-key",
        "fault-schedule-not-a-list",
    ],
)
def test_cli_demo_malformed_config_exits_2(tmp_path, capsys, raw):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main(["demo", "--config", str(path), "--out", str(tmp_path / "demo")]) == 2
    assert "invalid input" in capsys.readouterr().err
    # Refused while the config is read, so no artifact directory is made.
    assert not (tmp_path / "demo").exists()


def test_cli_demo_refuses_a_config_that_is_not_utf_8(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_bytes(json.dumps({"seed": 3}).encode("utf-16-le"))
    assert main(["demo", "--config", str(path), "--out", str(tmp_path / "demo")]) == 2
    assert "cannot read scenario config" in capsys.readouterr().err
    assert not (tmp_path / "demo").exists()


# The demo's fixed values are module constants, not config keys.
@pytest.mark.parametrize(
    "key, value",
    [
        ("issuers", 1),
        ("samplesPerClient", 40),
        ("separability", 2.0),
        ("labelSkew", 0.0),
        ("startTime", 1_000_000),
        ("service", "fl-study"),
    ],
)
def test_cli_demo_refuses_a_fixed_value_as_an_unknown_key(tmp_path, capsys, key, value):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({key: value}))
    assert main(["demo", "--config", str(path), "--out", str(tmp_path / "demo")]) == 2
    err = capsys.readouterr().err
    assert "unknown keys" in err and repr(key) in err
    assert not (tmp_path / "demo").exists()


def test_scenario_config_from_dict_reads_the_file_keys():
    raw = {
        "seed": 42,
        "scheme": "user_lookup",
        "faultSchedule": [{"roundIndex": 2, "nodeId": "server-0"}],
        "standbyServers": 1,
    }
    assert ScenarioConfig.from_dict(raw) == ScenarioConfig(
        seed=42,
        scheme="user_lookup",
        fault_schedule=(FaultEvent(2, "server-0"),),
        standby_servers=1,
    )
    assert ScenarioConfig.from_dict({}) == ScenarioConfig()


def test_config_readers_refuse_unknown_keys_and_default_absent_ones():
    federation = DEFAULT_FEDERATION.to_dict()
    spoiled = [
        (ScenarioConfig, {"qualifiedUser": 0}),
        (ScenarioConfig, {"faultSchedule": [{"roundIndex": 1, "nodeId": "server-0", "at": 1}]}),
        (FederationConfig, {**federation, "weightng": "uniform"}),
        (LossSpec, {"kind": "logistic", "featureDim": 2, "Bias": True}),
        (DataFilter, {"featurenames": ["x0"]}),
    ]
    for reader, raw in spoiled:
        with pytest.raises(ValidationError, match="unknown keys"):
            reader.from_dict(raw)
    required = ("totalRounds", "totalClients", "subsetSize", "localEpochs", "learningRate")
    minimal = {key: federation[key] for key in required}
    minimal["loss"] = {"kind": "logistic", "featureDim": 2}
    assert FederationConfig.from_dict(minimal) == dataclasses.replace(DEFAULT_FEDERATION, rng_seed=0)
    assert FederationConfig.from_dict(federation) == DEFAULT_FEDERATION
    assert DataFilter.from_dict({}) == DataFilter()


# --------------------------------------------------------------------- cli


def _not_utf8(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode().replace(b"?", b"\xff"))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["import-legacy", str(tmp), "--out", str(tmp / "out")],
        lambda tmp: ["import-legacy", _not_utf8(tmp, "a.csv", "username,role\n?,r\n")],
        lambda tmp: ["gen-data", "--out", _not_utf8(tmp, "taken", "")],
        lambda tmp: ["demo", "--config", _not_utf8(tmp, "s.json", '{"seed": ?}')],
    ],
    ids=["import-a-directory", "import-non-utf8", "gen-data-over-a-file", "demo-non-utf8-config"],
)
def test_cli_unusable_input_exits_2_with_one_line(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_gen_data_names_a_non_finite_separability(tmp_path, capsys, value):
    out = tmp_path / "ds"
    assert main(["gen-data", "--out", str(out), "--separability", value]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "separability must be a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--separability", "-0.5", "separability must be >= 0"),
        ("--label-skew", "1.5", "label_skew must lie in [0, 1]"),
        ("--label-skew", "-0.25", "label_skew must lie in [0, 1]"),
    ],
    ids=["negative-separability", "skew-above-one", "negative-skew"],
)
def test_cli_gen_data_refuses_a_flag_out_of_its_range(tmp_path, capsys, flag, value, message):
    out = tmp_path / "ds"
    assert main(["gen-data", "--out", str(out), flag, value]) == 2
    assert capsys.readouterr().err == f"invalid input: {message}\n"
    assert not out.exists()


def test_cli_demo_and_verify_chain(tmp_path):
    out = tmp_path / "demo"
    assert main(["demo", "--out", str(out), "--seed", "5"]) == 0
    assert main(["verify-chain", str(out / "chain.jsonl")]) == 0


def test_cli_demo_same_seed_byte_identical_models(tmp_path):
    main(["demo", "--out", str(tmp_path / "r1"), "--seed", "5"])
    main(["demo", "--out", str(tmp_path / "r2"), "--seed", "5"])
    one = (tmp_path / "r1/artifacts/job-0001/model.json").read_bytes()
    two = (tmp_path / "r2/artifacts/job-0001/model.json").read_bytes()
    assert one == two


def test_cli_demo_config_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"users": 3, "qualifiedUsers": 2, "outDir": "ignored"}))
    out = tmp_path / "demo"
    assert main(["demo", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["decisions"]) == 3
    assert main(["demo", "--config", str(tmp_path / "nope.json")]) == 2


def test_cli_verify_chain_explains_a_seed_7_denial(tmp_path, capsys):
    summary = run_demo(demo_config(tmp_path, seed=7))
    chain_path = tmp_path / "demo/chain.jsonl"
    before = sorted((p.name, p.read_bytes()) for p in (tmp_path / "demo").iterdir() if p.is_file())
    (denial,) = [
        (block, tx, json.loads(tx.payload))
        for block in load_chain(chain_path)
        for tx in block.transactions
        if tx.kind == "access_denial"
    ]
    block, tx, payload = denial
    capsys.readouterr()
    assert main(["verify-chain", str(chain_path), "--explain", payload["requestRef"]]) == 0
    out = capsys.readouterr().out
    for text in (
        f"request {payload['requestRef']}: denied",
        f"tx: {tx.tx_id}",
        "holder: did:efed:user-1",
        "service: fl-study",
        f"contract: {payload['contractId']}",
        "missing claims: consortium_member",
        f"block: {block.height} at time {block.timestamp}",
    ):
        assert text in out
    # summary.json names a decision only by its txId, which explains it the same way.
    (denied,) = [d for d in summary["decisions"] if d["decision"] == "denied"]
    assert main(["verify-chain", str(chain_path), "--explain", denied["txId"]]) == 0
    assert capsys.readouterr().out == out
    assert main(["verify-chain", str(chain_path), "--explain", "0" * 32]) == 1
    assert "no access decision has requestRef or txId" in capsys.readouterr().out
    after = sorted((p.name, p.read_bytes()) for p in (tmp_path / "demo").iterdir() if p.is_file())
    assert after == before


def test_cli_verify_chain_explain_refuses_a_malformed_decision_payload(tmp_path, capsys):
    chain = Chain(clock=SimulatedClock(start=START_TIME))
    chain.record("access_denial", {"requestRef": "r1"}, submitter="did:efed:user-0")
    path = chain.write_chain(tmp_path / "chain.jsonl")
    assert main(["verify-chain", str(path), "--explain", "r1"]) == 2
    assert "block 1 holds a malformed access_denial payload" in capsys.readouterr().err


def test_cli_verify_chain_detects_bit_flip(tmp_path):
    out = tmp_path / "demo"
    main(["demo", "--out", str(out), "--seed", "5"])
    chain_path = out / "chain.jsonl"
    raw = bytearray(chain_path.read_bytes())
    # flip one bit of a key name inside the payload string, keeping the JSON parseable
    offset = raw.index(b'"payload"') + 20
    assert raw[offset : offset + 1].isalpha()
    raw[offset] ^= 0x01
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_bytes(bytes(raw))
    assert main(["verify-chain", str(tampered)]) == 1
    assert main(["verify-chain", str(tmp_path / "missing.jsonl")]) == 2


def test_cli_gen_data_single_client_and_determinism(tmp_path):
    out = tmp_path / "ds"
    assert (
        main(
            ["gen-data", "--out", str(out), "--clients", "1", "--samples", "6", "--seed", "3"]
        )
        == 0
    )
    csvs = sorted(p.name for p in out.glob("client_*.csv"))
    assert csvs == ["client_000.csv"]

    again = tmp_path / "ds2"
    main(["gen-data", "--out", str(again), "--clients", "1", "--samples", "6", "--seed", "3"])
    assert (out / "client_000.csv").read_bytes() == (again / "client_000.csv").read_bytes()

    assert main(["gen-data", "--out", str(tmp_path / "bad"), "--clients", "0"]) == 2


def test_gen_data_high_separability_is_centrally_learnable(tmp_path):
    out = tmp_path / "ds"
    main(
        [
            "gen-data",
            "--out",
            str(out),
            "--clients",
            "4",
            "--samples",
            "50",
            "--separability",
            "4.0",
            "--seed",
            "6",
        ]
    )
    parts = load_partitions(out)
    pooled = DatasetPartition(
        client_id="all",
        features=np.vstack([p.features for p in parts]),
        labels=np.concatenate([p.labels for p in parts]),
    )
    config = FederationConfig(
        total_rounds=1,
        total_clients=1,
        subset_size=1,
        local_epochs=300,
        learning_rate=1.0,
        loss=LossSpec(kind="logistic", feature_dim=2),
        rng_seed=0,
    )
    captured = []
    run_federation(config, as_fleet([pooled]), observer=captured.append)
    assert captured[-1].train_accuracy >= 0.99


def test_read_metrics_csv_refuses_with_validation_error(tmp_path):
    header = "round,global_loss,train_accuracy,selected_clients\n"
    for name, text in [
        ("header", "wrong,header\n"),
        ("short", header + "1,0.5\n"),
        ("non-number", header + "1,half,0.5,a\n"),
        ("oversized-field", header + "1,0.5,0.5," + "a" * 200_000 + "\n"),
    ]:
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        with pytest.raises(ValidationError):
            read_metrics_csv(path)
    path = tmp_path / "not-utf8.csv"
    path.write_bytes(header.encode() + b"1,0.5,0.5,\xff\n")
    with pytest.raises(ValidationError):
        read_metrics_csv(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda data: data.replace(b"\r\n", b"\r\n\r\n"),
        lambda data: data.replace(b",0.75,", b", 0.75,"),
        lambda data: data.replace(b",0.75,", b",0.750,"),
        lambda data: data.replace(b"\r\n2,", b"\r\n02,"),
        lambda data: data.replace(b"a;b", b"a;;b"),
    ],
    ids=["doubled-line-ends", "leading-space", "trailing-zero", "padded-round", "empty-client"],
)
def test_read_metrics_csv_refuses_a_row_its_writer_never_writes(tmp_path, edit):
    path = tmp_path / "metrics.csv"
    with CsvMetricsWriter(path) as writer:
        writer(RoundMetrics(1, 0.5, 0.75, ("a", "b")))
        writer(RoundMetrics(2, 0.25, 1.0, ("c",)))
    assert [m.round_index for m in read_metrics_csv(path)] == [1, 2]
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValidationError, match="line [23]"):
        read_metrics_csv(path)


@pytest.mark.parametrize(
    "edit, line",
    [
        (lambda data: data.replace(b"\r\n", b"\n"), 1),
        (lambda data: data.replace(b",0.75,", b',"0.75",'), 2),
        (lambda data: data.removesuffix(b"\r\n"), 3),
    ],
    ids=["bare-line-feeds", "quoted-number", "no-final-line-end"],
)
def test_read_metrics_csv_refuses_line_ends_and_quotes_its_writer_never_writes(tmp_path, edit, line):
    path = tmp_path / "metrics.csv"
    with CsvMetricsWriter(path) as writer:
        writer(RoundMetrics(1, 0.5, 0.75, ("a", "b")))
        writer(RoundMetrics(2, 0.25, 1.0, ("c",)))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValidationError, match=f"line {line} is not as its writer writes it"):
        read_metrics_csv(path)


@pytest.mark.parametrize("command", ["verify-chain"])
def test_seed_is_refused_where_it_does_nothing(tmp_path, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--seed", "1", str(tmp_path / "input")])
    assert exit_info.value.code == 2


def quickstart_commands() -> list[list[str]]:
    """The arguments of each ``fedgate`` line of README's Quickstart block, each
    ``<...>`` placeholder a token and a trailing ``#`` comment dropped."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Quickstart", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [re.sub(r"<[^>]*>", "token", line) for line in block.splitlines() if line.startswith("fedgate ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


def test_every_quickstart_command_parses():
    commands = quickstart_commands()
    assert {argv[0] for argv in commands} == {"demo", "verify-chain", "gen-data", "import-legacy"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # an unknown command or flag exits 2


def test_cli_import_legacy(tmp_path):
    accounts = tmp_path / "accounts.csv"
    accounts.write_text("username,role\nada,analyst\ngrace,admin\n")
    out = tmp_path / "legacy"
    assert main(["import-legacy", str(accounts), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [r["status"] for r in report] == ["imported", "imported"]
    assert report[0]["did"] == "did:efed:legacy-ada"
    ok, _ = verify_chain_file(out / "chain.jsonl")
    assert ok

    malformed = tmp_path / "broken.csv"
    malformed.write_text("who,what\nada,analyst\n")
    assert main(["import-legacy", str(malformed), "--out", str(out)]) == 2
    assert main(["import-legacy", str(tmp_path / "ghost.csv")]) == 2


# A fixed accounts file in which "ada" comes twice, so the second row is
# skipped; sha256 of what `fedgate import-legacy --seed 7` writes for it. No
# file holds a float, so the digests are the same on every machine.
LEGACY_ACCOUNTS = "username,role\nada,analyst\ngrace,admin\nada,auditor\nalan turing,researcher\n"
LEGACY_DIGESTS = {
    "chain.jsonl": "c0bb1dd00c14063ffc7f1b6e9e7509ef0c1bcbac113aeb7aa2cbdfce2081a85a",
    "identity.jsonl": "b6d69eea64a82588948ff65f02d0e03dc18b649aa781198b49021e9fc0535995",
    "report.json": "2757531d24cb1d6cab2cf79a1abfd127650b074b826ec968f9cf1f60b52483e0",
}


def _import_legacy_seed_7(tmp_path):
    accounts = tmp_path / "accounts.csv"
    accounts.write_text(LEGACY_ACCOUNTS)
    out = tmp_path / "legacy"
    assert main(["import-legacy", str(accounts), "--out", str(out), "--seed", "7"]) == 0
    return accounts, out


def test_cli_import_legacy_seed_7_artifacts_are_pinned(tmp_path):
    _, out = _import_legacy_seed_7(tmp_path)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in LEGACY_DIGESTS}
    assert digests == LEGACY_DIGESTS
    report = json.loads((out / "report.json").read_bytes())
    assert [r["status"] for r in report] == ["imported", "imported", "skipped", "imported"]


def test_cli_import_legacy_without_a_seed_writes_the_seed_7_artifacts(tmp_path, capsys):
    accounts = tmp_path / "accounts.csv"
    accounts.write_text(LEGACY_ACCOUNTS)
    out = tmp_path / "legacy"
    assert main(["import-legacy", str(accounts), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"imported 3 of 4 accounts into {out}\n"
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in LEGACY_DIGESTS} == LEGACY_DIGESTS


def test_import_legacy_accounts_returns_the_report_rows(tmp_path):
    accounts, out = _import_legacy_seed_7(tmp_path)
    desk = build_desk(7, SimulatedClock(start=START_TIME), frozenset({"did:efed:importer"}))
    issuer = desk.claim_issuer(desk.register("importer", desk.keypair("importer", 0)))
    rows = import_legacy_accounts(read_accounts_csv(accounts), desk, issuer)
    assert rows == json.loads((out / "report.json").read_bytes())


def test_cli_import_legacy_names_the_line_of_an_oversized_field(tmp_path, capsys):
    accounts = tmp_path / "accounts.csv"
    accounts.write_text("username,role\nada,analyst\n" + "g" * 200_000 + ",admin\n")
    assert main(["import-legacy", str(accounts), "--out", str(tmp_path / "out")]) == 2
    [err] = capsys.readouterr().err.splitlines()
    assert "accounts.csv line 3: field larger than field limit" in err


def test_cli_import_legacy_refuses_usernames_that_share_a_did(tmp_path, capsys):
    accounts = tmp_path / "accounts.csv"
    accounts.write_text("username,role\nalice smith,doctor\nalice-smith,nurse\n")
    out = tmp_path / "legacy"
    assert main(["import-legacy", str(accounts), "--out", str(out)]) == 2
    assert "'alice smith' and 'alice-smith'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_legacy_takes_an_account_named_issuer(tmp_path):
    accounts = tmp_path / "accounts.csv"
    accounts.write_text("username,role\nissuer,admin\nada,analyst\n")
    out = tmp_path / "legacy"
    assert main(["import-legacy", str(accounts), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [(r["did"], r["status"]) for r in report] == [
        ("did:efed:legacy-issuer", "imported"),
        ("did:efed:legacy-ada", "imported"),
    ]
