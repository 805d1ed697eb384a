import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgate.errors import ValidationError
from fedgate.fl import (
    DatasetPartition,
    FederationConfig,
    LossSpec,
    SyntheticSpec,
    generate_partitions,
    load_partitions,
    read_metrics_csv,
    write_dataset,
)
from fedgate.service import (
    DataFilter,
    FaultEvent,
    JobQueue,
    JobSpec,
    JobStateError,
    NodeRegistry,
    apply_filter,
    summarize_partitions,
    total_weighted_completion,
    wsjf_order,
)
from fedgate.service.facade import RejectedConfigError

from support import Stack


def fleet_partitions(n_clients=4, samples=30, seed=5):
    spec = SyntheticSpec(
        n_clients=n_clients,
        samples_per_client=samples,
        feature_dim=2,
        separability=2.0,
        seed=seed,
    )
    parts, _ = generate_partitions(spec)
    return parts


def job_config(**overrides):
    base = dict(
        total_rounds=5,
        total_clients=4,
        subset_size=2,
        local_epochs=1,
        learning_rate=0.5,
        loss=LossSpec(kind="logistic", feature_dim=2),
        rng_seed=9,
    )
    base.update(overrides)
    return FederationConfig(**base)


def job_spec(config=None, runtime=10.0, weight=1.0, data_filter=None):
    return JobSpec(
        holder="did:efed:t",
        config=config or job_config(),
        estimated_runtime=runtime,
        priority_weight=weight,
        data_filter=data_filter or DataFilter(),
    )


# ---------------------------------------------------------------- metadata


def test_histograms_match_source_csvs(tmp_path):
    spec = SyntheticSpec(
        n_clients=3, samples_per_client=40, feature_dim=2, separability=1.0, seed=8
    )
    write_dataset(spec, tmp_path)
    parts = load_partitions(tmp_path)
    meta = summarize_partitions(parts, "fl-study", preview_rows=4)
    assert len(meta.clients) == 3
    for summary in meta.clients:
        # independent recount straight from the persisted CSV
        path = tmp_path / f"client_{summary.client_id}.csv"
        labels = [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]]
        counted = {}
        for raw in labels:
            key = str(int(float(raw)))
            counted[key] = counted.get(key, 0) + 1
        assert summary.label_histogram == counted
        assert sum(summary.label_histogram.values()) == summary.sample_count == 40


def test_histogram_keys_each_label_value_like_a_per_sample_count():
    labels = np.array([0.5, -0.0, 0.0, 2.0, 0.5, 1e20, -1.25, 2.0])
    part = DatasetPartition(client_id="h", features=np.zeros((8, 1)), labels=labels)
    (summary,) = summarize_partitions([part], "fl-study").clients
    assert summary.label_histogram == {"0.5": 2, "0": 2, "2": 2, str(10**20): 1, "-1.25": 1}
    assert all(type(count) is int for count in summary.label_histogram.values())
    json.dumps(summary.to_dict())


def test_preview_is_bounded_and_rounded():
    parts = fleet_partitions()
    meta = summarize_partitions(parts, "fl-study", preview_rows=6, round_digits=2)
    assert len(meta.preview) == 6
    # round-robin: first rows come from distinct clients
    assert [r["clientId"] for r in meta.preview[:4]] == ["000", "001", "002", "003"]
    for row in meta.preview:
        for v in row["features"]:
            assert v == round(v, 2)
    total_rows = sum(p.size for p in parts)
    assert len(meta.preview) < total_rows


def test_preview_zero_is_allowed():
    meta = summarize_partitions(fleet_partitions(), "fl-study", preview_rows=0)
    assert meta.preview == ()


# ------------------------------------------------------------------- queue


def test_wsjf_prefers_short_job():
    q = JobQueue()
    slow = q.submit(job_spec(runtime=10.0, weight=1.0), now=1)
    fast = q.submit(job_spec(runtime=2.0, weight=1.0), now=2)
    assert q.schedule_next() is fast
    # the ordering minimizes total weighted completion time
    jobs = [slow.spec, fast.spec]
    assert total_weighted_completion(jobs, [1, 0]) < total_weighted_completion(jobs, [0, 1])


def test_wsjf_ties_break_fifo():
    q = JobQueue()
    first = q.submit(job_spec(runtime=4.0, weight=2.0), now=1)
    q.submit(job_spec(runtime=2.0, weight=1.0), now=2)  # same ratio
    assert q.schedule_next() is first


def test_job_ids_are_monotone():
    q = JobQueue()
    ids = [q.submit(job_spec(), now=i).job_id for i in range(3)]
    assert ids == ["job-0001", "job-0002", "job-0003"]


def test_state_machine_disallows_skips_and_reversals():
    q = JobQueue()
    record = q.submit(job_spec(), now=0)
    with pytest.raises(JobStateError):
        record.transition("completed", 1)
    record.transition("running", 1)
    with pytest.raises(JobStateError):
        record.transition("queued", 2)
    record.transition("completed", 2)
    with pytest.raises(JobStateError):
        record.transition("running", 3)
    assert [(a, b) for _, a, b in record.transitions] == [
        ("queued", "running"),
        ("running", "completed"),
    ]


def test_spec_validation():
    with pytest.raises(ValidationError):
        job_spec(runtime=0.0)
    with pytest.raises(ValidationError):
        job_spec(weight=-1.0)


@settings(max_examples=25, deadline=None)
@given(
    runtimes=st.lists(
        st.floats(min_value=0.5, max_value=50.0), min_size=1, max_size=5
    ),
    data=st.data(),
)
def test_wsjf_beats_every_permutation(runtimes, data):
    weights = [
        data.draw(st.floats(min_value=0.1, max_value=10.0)) for _ in runtimes
    ]
    jobs = [job_spec(runtime=r, weight=w) for r, w in zip(runtimes, weights)]
    ours = total_weighted_completion(jobs, wsjf_order(jobs))
    best = min(
        total_weighted_completion(jobs, list(perm))
        for perm in itertools.permutations(range(len(jobs)))
    )
    assert ours <= best + 1e-9


# ------------------------------------------------------------------ filter


def test_apply_filter_clients_features_samples():
    parts = fleet_partitions()
    out = apply_filter(parts, DataFilter(client_ids=("001", "003")))
    assert [p.client_id for p in out] == ["001", "003"]

    out = apply_filter(parts, DataFilter(feature_names=("x1",)))
    assert all(p.feature_dim == 1 for p in out)

    out = apply_filter(parts, DataFilter(max_samples_per_client=7))
    assert all(p.size == 7 for p in out)

    with pytest.raises(ValidationError):
        apply_filter(parts, DataFilter(client_ids=("ghost",)))


# ------------------------------------------------------------------- nodes


def test_node_registry_invariants():
    registry = NodeRegistry.provision(["a", "b"], standby_clients=1, standby_servers=1)
    assert registry.active_server == "server-0"
    assert registry.serving_node("a") == "node-a"
    from fedgate.service import Node

    with pytest.raises(ValidationError):
        registry.add_node(Node("server-1", "server"))
    with pytest.raises(ValidationError):
        registry.add_node(Node("node-a2", "client", client_id="a"))


def test_client_failover_swap_and_exclusion():
    registry = NodeRegistry.provision(["a", "b"], standby_clients=1)
    action = registry.fail("node-a", 3)
    assert action.kind == "client-swap"
    assert registry.serving_node("a") == "standby-client-0"
    assert registry.eligible_clients(5, frozenset({"a", "b"})) == {"a", "b"}

    action = registry.fail("node-b", 4)
    assert action.kind == "client-excluded"
    assert registry.eligible_clients(3, frozenset({"a", "b"})) == {"a", "b"}
    assert registry.eligible_clients(4, frozenset({"a", "b"})) == {"a"}
    assert registry.eligible_clients(9, frozenset({"a", "b"})) == {"a"}


def test_server_failover_and_loss():
    registry = NodeRegistry.provision(["a"], standby_servers=1)
    action = registry.fail("server-0", 2)
    assert action.kind == "server-swap"
    assert registry.active_server == "standby-server-0"
    action = registry.fail("standby-server-0", 3)
    assert action.kind == "server-lost"
    assert registry.active_server is None


def test_idle_standby_failure_is_never_promoted():
    registry = NodeRegistry.provision(["a"], standby_clients=1, standby_servers=1)
    action = registry.fail("standby-client-0", 2)
    assert (action.kind, action.replacement, action.client_id) == ("standby-lost", None, None)
    assert registry.serving_node("a") == "node-a"
    assert registry.fail("node-a", 3).kind == "client-excluded"

    action = registry.fail("standby-server-0", 2)
    assert (action.kind, action.replacement) == ("standby-lost", None)
    assert registry.active_server == "server-0"
    action = registry.fail("server-0", 4)
    assert action.kind == "server-lost"
    assert registry.active_server is None


# ---------------------------------------------------------------- executor


def submitted_job(tmp_path, config=None, **spec_kwargs):
    from fedgate.service import JobExecutor

    parts = fleet_partitions()
    executor = JobExecutor(parts, tmp_path, clock=lambda: 777)
    q = JobQueue()
    record = q.submit(job_spec(config=config, **spec_kwargs), now=0)
    return executor, record


def test_happy_job_completes_with_artifacts(tmp_path):
    executor, record = submitted_job(tmp_path)
    executor.run(record)
    assert record.state == "completed"
    assert record.rounds_executed == 5
    rows = read_metrics_csv(record.metrics_address)
    assert [m.round_index for m in rows] == [1, 2, 3, 4, 5]
    artifact = json.loads(open(record.model_address).read())
    assert artifact["state"] == "completed"
    assert len(artifact["weights"]) == 2
    assert artifact["roundsExecuted"] == 5
    assert artifact["finalLoss"] == rows[-1].global_loss


def test_zero_learning_rate_terminates_early(tmp_path):
    config = job_config(total_rounds=50, learning_rate=0.0)
    executor, record = submitted_job(tmp_path, config=config)
    executor.run(record)
    assert record.state == "terminated_early"
    # one round to set the baseline, then ten stagnant rounds
    assert record.rounds_executed == 11
    assert "improvement" in record.cause


def test_divergent_job_fails_with_cause(tmp_path):
    config = job_config(total_rounds=10, learning_rate=1e9)
    executor, record = submitted_job(tmp_path, config=config)
    executor.run(record)
    assert record.state == "failed"
    assert record.model_address is None
    assert "diverged" in record.cause or "magnitude" in record.cause


def test_fault_beyond_total_rounds_rejected(tmp_path):
    executor, record = submitted_job(tmp_path)
    with pytest.raises(ValidationError):
        executor.run(record, fault_schedule=[FaultEvent(9, "node-000")])
    assert record.state == "queued"


def run_reference(tmp_path, config):
    executor, record = submitted_job(tmp_path / "ref", config=config)
    executor.run(record)
    return json.loads(open(record.model_address).read())["weights"]


def test_client_standby_preserves_model_bits(tmp_path):
    config = job_config(total_rounds=20)
    reference = run_reference(tmp_path, config)
    executor, record = submitted_job(tmp_path / "faulty", config=config)
    executor.run(
        record,
        fault_schedule=[FaultEvent(5, "node-001")],
        standby_clients=1,
    )
    assert record.state == "completed"
    weights = json.loads(open(record.model_address).read())["weights"]
    assert weights == reference  # exact float repr equality via JSON round-trip
    assert np.array(weights).tobytes() == np.array(reference).tobytes()


def test_no_standby_excludes_client_from_later_rounds(tmp_path):
    config = job_config(total_rounds=20, subset_size=3)
    executor, record = submitted_job(tmp_path, config=config)
    executor.run(record, fault_schedule=[FaultEvent(5, "node-001")])
    assert record.state == "completed"
    for metrics in read_metrics_csv(record.metrics_address):
        if metrics.round_index >= 5:
            assert "001" not in metrics.selected_clients


def test_server_standby_resumes_bit_exact(tmp_path):
    config = job_config(total_rounds=20)
    reference = run_reference(tmp_path, config)
    executor, record = submitted_job(tmp_path / "faulty", config=config)
    executor.run(
        record,
        fault_schedule=[FaultEvent(5, "server-0")],
        standby_servers=1,
    )
    assert record.state == "completed"
    assert record.rounds_executed == 20
    weights = json.loads(open(record.model_address).read())["weights"]
    assert weights == reference
    artifact = json.loads(open(record.model_address).read())
    assert [a["kind"] for a in artifact["failover"]] == ["server-swap"]


def test_server_loss_without_standby_fails_job(tmp_path):
    config = job_config(total_rounds=20)
    executor, record = submitted_job(tmp_path, config=config)
    executor.run(record, fault_schedule=[FaultEvent(5, "server-0")])
    assert record.state == "failed"
    assert "server" in record.cause
    assert record.rounds_executed == 4  # rounds before the fault round


@pytest.mark.parametrize(
    "schedule, kinds",
    [
        ([FaultEvent(1, "server-0")], ["server-swap"]),
        # the client is listed first, yet server faults apply first within a round
        ([FaultEvent(5, "node-001"), FaultEvent(5, "server-0")], ["server-swap", "client-swap"]),
    ],
    ids=["server-round-1", "server-and-client-round-5"],
)
def test_server_takeover_in_one_pass_is_bit_exact(tmp_path, schedule, kinds):
    config = job_config(total_rounds=20)
    reference = run_reference(tmp_path, config)
    executor, record = submitted_job(tmp_path / "faulty", config=config)
    executor.run(record, fault_schedule=schedule, standby_clients=1, standby_servers=1)
    assert (record.state, record.rounds_executed) == ("completed", 20)
    artifact = json.loads(open(record.model_address).read())
    assert [a["kind"] for a in artifact["failover"]] == kinds
    assert np.array(artifact["weights"]).tobytes() == np.array(reference).tobytes()


def test_idle_standby_fault_keeps_the_job_running(tmp_path):
    config = job_config(total_rounds=20)
    reference = run_reference(tmp_path, config)
    executor, record = submitted_job(tmp_path / "faulty", config=config)
    executor.run(
        record,
        fault_schedule=[FaultEvent(3, "standby-client-0"), FaultEvent(5, "node-001")],
        standby_clients=1,
    )
    assert (record.state, record.rounds_executed) == ("completed", 20)
    artifact = json.loads(open(record.model_address).read())
    assert [a["kind"] for a in artifact["failover"]] == ["standby-lost", "client-excluded"]
    assert artifact["weights"] != reference  # the dead standby did not adopt node-001


class CountingRegistry(NodeRegistry):
    calls = 0

    def eligible_clients(self, round_index, all_ids):
        self.calls += 1
        return super().eligible_clients(round_index, all_ids)


@pytest.mark.parametrize("standby_servers, rounds", [(1, 20), (0, 4)])
def test_eligibility_is_asked_once_per_executed_round(tmp_path, standby_servers, rounds):
    executor, record = submitted_job(tmp_path, config=job_config(total_rounds=20))
    registry = CountingRegistry.provision(["000", "001", "002", "003"], standby_servers=standby_servers)
    executor.run(record, fault_schedule=[FaultEvent(5, "server-0")], node_registry=registry)
    assert registry.calls == record.rounds_executed == rounds


def test_fault_on_unknown_node_fails_the_job(tmp_path):
    executor, record = submitted_job(tmp_path)
    executor.run(record, fault_schedule=[FaultEvent(2, "node-999")])
    assert record.state == "failed"
    assert "unknown node node-999" in record.cause
    assert record.model_address is None


# ---------------------------------------------------------- facade and api


def service_stack(tmp_path):
    from fedgate.service import FlaasService, ServiceApi

    stack = Stack()
    stack.deploy_membership_policy()
    parts = fleet_partitions()
    service = FlaasService(
        stack.gateway, parts, tmp_path / "artifacts", stack.clock
    )
    api = ServiceApi(stack.gateway, service, stack.clock)
    alice = stack.register_actor("alice")
    stack.issuer.issue(alice.did, "consortium_member", "yes", 7200)
    token = stack.request_a(alice.did).grant.token
    return stack, service, api, token


def test_metadata_requires_valid_token(tmp_path):
    stack, service, api, token = service_stack(tmp_path)
    assert api.handle("GET", "/data/metadata", headers={"Authorization": f"Grant {token}"}).status == 200
    assert api.handle("GET", "/data/metadata").status == 401
    assert (
        api.handle(
            "GET", "/data/metadata", headers={"Authorization": "Grant deadbeef"}
        ).status
        == 401
    )


def test_expired_token_unauthorized(tmp_path):
    stack, service, api, token = service_stack(tmp_path)
    stack.clock.advance(3601)
    response = api.handle(
        "GET", "/data/metadata", headers={"Authorization": f"Grant {token}"}
    )
    assert response.status == 401


def test_random_tokens_never_authorize(tmp_path):
    stack, service, api, token = service_stack(tmp_path)
    rng = np.random.default_rng(0)
    for _ in range(200):
        fake = bytes(rng.integers(0, 256, size=16, dtype=np.uint8)).hex()
        response = api.handle(
            "GET", "/data/metadata", headers={"Authorization": f"Grant {fake}"}
        )
        assert response.status == 401


def test_job_lifecycle_through_api(tmp_path):
    stack, service, api, token = service_stack(tmp_path)
    headers = {"Authorization": f"Grant {token}"}
    submit = api.handle(
        "POST",
        "/jobs",
        headers=headers,
        body={
            "config": job_config().to_dict(),
            "estimatedRuntime": 5.0,
            "priorityWeight": 2.0,
        },
    )
    assert submit.status == 201
    job_id = submit.body["jobId"]
    assert submit.body["state"] == "queued"

    assert service.run_next() is not None
    status = api.handle("GET", f"/jobs/{job_id}", headers=headers)
    assert status.status == 200 and status.body["state"] == "completed"

    metrics = api.handle("GET", f"/jobs/{job_id}/metrics", headers=headers)
    assert metrics.status == 200 and metrics.content_type == "text/csv"
    assert metrics.body.splitlines()[0] == "round,global_loss,train_accuracy,selected_clients"
    assert len(metrics.body.splitlines()) == 1 + 5

    model = api.handle("GET", f"/jobs/{job_id}/model", headers=headers)
    assert model.status == 200
    assert len(model.body["weights"]) == 2

    assert api.handle("GET", "/jobs/nope", headers=headers).status == 404


def test_submit_rejects_config_filter_mismatch(tmp_path):
    stack, service, api, token = service_stack(tmp_path)
    with pytest.raises(RejectedConfigError):
        service.submit_job(
            token,
            job_config(),  # expects 4 clients
            estimated_runtime=1.0,
            priority_weight=1.0,
            data_filter=DataFilter(client_ids=("000", "001")),
        )
    response = api.handle(
        "POST",
        "/jobs",
        headers={"Authorization": f"Grant {token}"},
        body={
            "config": job_config().to_dict(),
            "dataFilter": {"clientIds": ["000", "001"]},
        },
    )
    assert response.status == 400


def test_filtered_job_runs_on_subset(tmp_path):
    stack, service, api, token = service_stack(tmp_path)
    config = job_config(total_clients=2, subset_size=2)
    record = service.submit_job(
        token,
        config,
        estimated_runtime=1.0,
        priority_weight=1.0,
        data_filter=DataFilter(client_ids=("000", "002")),
    )
    service.run_next()
    assert record.state == "completed"
    for metrics in read_metrics_csv(record.metrics_address):
        assert set(metrics.selected_clients) <= {"000", "002"}


def test_access_endpoints(tmp_path):
    stack, service, api, token = service_stack(tmp_path)
    reqs = api.handle("GET", "/access/requirements", query={"service": "fl-study"})
    assert reqs.status == 200
    assert reqs.body["requiredClaims"][0]["claimType"] == "consortium_member"
    assert api.handle("GET", "/access/requirements", query={"service": "nope"}).status == 404
    assert api.handle("GET", "/access/requirements").status == 400
    unhashable = api.handle("GET", "/access/requirements", query={"service": ["x"]})
    assert unhashable.status == 400

    howto = api.handle("GET", "/access/howto")
    assert howto.status == 200
    assert "fl-study" in howto.body["services"]
    assert "/jobs/{id}/metrics" == howto.body["addresses"]["visualization"]

    bob = stack.register_actor("bob")
    denial = api.handle(
        "POST",
        "/access/request",
        body={
            "requester": bob.did,
            "service": "fl-study",
            "scheme": "contract_lookup",
            "nonce": stack.fresh_nonce().hex(),
        },
    )
    assert denial.status == 403
    assert denial.body["missing"] == ["consortium_member"]
    assert "txId" in denial.body

    stack.issuer.issue(bob.did, "consortium_member", "yes", 3600)
    grant = api.handle(
        "POST",
        "/access/request",
        body={
            "requester": bob.did,
            "service": "fl-study",
            "scheme": "contract_lookup",
            "nonce": stack.fresh_nonce().hex(),
        },
    )
    assert grant.status == 200
    assert grant.body["decision"] == "granted"
    new_token = grant.body["grant"]["token"]
    assert (
        api.handle(
            "GET", "/data/preview", headers={"Authorization": f"Grant {new_token}"}
        ).status
        == 200
    )

    assert api.handle("GET", "/nothing/here").status == 404


# ------------------------------------------------------ api edge inputs


def access_body(stack, **fields):
    body = {
        "requester": "did:efed:alice",
        "service": "fl-study",
        "scheme": "user_lookup",
        "nonce": stack.fresh_nonce().hex(),
    }
    body.update(fields)
    return body


def config_body(**fields):
    return {**job_config().to_dict(), **fields}


@pytest.mark.parametrize(
    "path, fields",
    [
        ("/access/request", {"nonce": "not-hex"}),
        ("/access/request", {"attestation": {}}),
        ("/jobs", {"config": {}}),
        ("/jobs", {"config": 3}),
        ("/jobs", {"estimatedRuntime": "x"}),
        ("/jobs", {"estimatedRuntime": "nan", "priorityWeight": "nan"}),
        ("/jobs", {"estimatedRuntime": "inf"}),
        ("/jobs", {"config": config_body(loss={"kind": "logistic", "featureDim": 2, "bias": "false"})}),
        ("/jobs", {"config": config_body(batchSize="x")}),
        ("/jobs", {"config": config_body(initialWeights=[float("nan"), 0.0])}),
        ("/jobs", {"config": config_body(learningRate="nan")}),
        ("/jobs", {"config": config_body(totalRounds=2.7)}),
        ("/jobs", {"config": config_body(totalRounds=True)}),
        ("/jobs", {"dataFilter": {"maxSamplesPerClient": True}}),
        ("/jobs", {"config": config_body(learningRate=True)}),
        ("/jobs", {"config": config_body(learningRate="0.5")}),
        ("/jobs", {"config": config_body(initialWeights=[True, "1"])}),
        ("/jobs", {"estimatedRuntime": True}),
        ("/jobs", {"priorityWeight": "2"}),
        ("/jobs", {"estimatedRuntime": 10**400}),
    ],
    ids=[
        "non-hex-nonce", "empty-attestation", "empty-config", "int-config", "text-runtime",
        "nan-runtime-and-weight", "infinite-runtime", "text-bias", "text-batch-size-full-batch",
        "nan-initial-weight", "nan-learning-rate", "fractional-rounds", "bool-rounds", "bool-sample-cap",
        "bool-learning-rate", "text-learning-rate", "bool-and-text-initial-weights", "bool-runtime",
        "text-priority-weight", "overflowing-runtime",
    ],
)
def test_malformed_body_field_answers_400(tmp_path, path, fields):
    stack, service, api, token = service_stack(tmp_path)
    if path == "/access/request":
        body = access_body(stack, **fields)
    else:
        body = {"config": job_config().to_dict(), **fields}
    response = api.handle(
        "POST", path, headers={"Authorization": f"Grant {token}"}, body=body
    )
    assert response.status == 400
    assert "error" in response.body


def test_real_body_fields_take_json_integers(tmp_path):
    stack, service, api, token = service_stack(tmp_path)
    body = {
        "config": config_body(learningRate=1, initialWeights=[0, 1]),
        "estimatedRuntime": 30,
        "priorityWeight": 2,
    }
    response = api.handle("POST", "/jobs", headers={"Authorization": f"Grant {token}"}, body=body)
    assert response.status == 201
    assert (response.body["estimatedRuntime"], response.body["priorityWeight"]) == (30.0, 2.0)
    spec = service.queue.all_records()[0].spec
    assert (spec.config.learning_rate, spec.config.initial_weights) == (1.0, (0.0, 1.0))
    assert all(type(v) is float for v in (spec.estimated_runtime, spec.config.learning_rate))


def test_grant_opens_only_its_own_service(tmp_path):
    stack, service, api, token = service_stack(tmp_path)
    stack.deploy_membership_policy("other-svc")
    carol = stack.register_actor("carol")
    stack.issuer.issue(carol.did, "consortium_member", "yes", 7200)
    other = stack.request_a(carol.did, service="other-svc").grant
    assert other.service == "other-svc"
    headers = {"Authorization": f"Grant {other.token}"}
    assert api.handle("GET", "/data/metadata", headers=headers).status == 401
    submit = api.handle(
        "POST", "/jobs", headers=headers, body={"config": job_config().to_dict()}
    )
    assert submit.status == 401
    assert len(service.queue.all_records()) == 0
    own = {"Authorization": f"Grant {token}"}
    assert api.handle("GET", "/data/metadata", headers=own).status == 200


def test_jobs_are_read_only_by_their_holder(tmp_path):
    stack, service, api, token = service_stack(tmp_path)
    bob = stack.register_actor("bob")
    stack.issuer.issue(bob.did, "consortium_member", "yes", 7200)
    bob_headers = {"Authorization": f"Grant {stack.request_a(bob.did).grant.token}"}
    own = {"Authorization": f"Grant {token}"}
    job_id = api.handle(
        "POST", "/jobs", headers=own, body={"config": job_config().to_dict()}
    ).body["jobId"]
    assert service.run_next().state == "completed"
    for path in (f"/jobs/{job_id}", f"/jobs/{job_id}/metrics", f"/jobs/{job_id}/model"):
        assert api.handle("GET", path, headers=own).status == 200
        other = api.handle("GET", path, headers=bob_headers)
        assert other.status == 404
        assert other.body == {"error": f"no job {job_id}"}


@pytest.mark.parametrize("field", ["clientIds", "featureNames"])
def test_empty_filter_list_is_refused_not_widened(tmp_path, field):
    with pytest.raises(ValidationError):
        DataFilter.from_dict({field: []})
    stack, service, api, token = service_stack(tmp_path)
    response = api.handle(
        "POST",
        "/jobs",
        headers={"Authorization": f"Grant {token}"},
        body={"config": job_config().to_dict(), "dataFilter": {field: []}},
    )
    assert response.status == 400
    assert service.queue.all_records() == []


JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=10),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
BODY_KEYS = (
    "requester", "service", "scheme", "nonce", "attestation",
    "config", "dataFilter", "estimatedRuntime", "priorityWeight",
)


@st.composite
def api_bodies(draw, stack):
    """Arbitrary JSON, or a plausible body with arbitrary JSON in some fields."""
    if draw(st.booleans()):
        return draw(JSON)
    body = access_body(stack) if draw(st.booleans()) else {"config": job_config().to_dict()}
    for key in draw(st.lists(st.sampled_from(BODY_KEYS), max_size=3)):
        body[key] = draw(JSON)
    return body


API_STATUSES = {200, 201, 400, 401, 403, 404, 429, 503}


ROUTES = (
    ("POST", "/access/request"),
    ("GET", "/access/requirements"),
    ("GET", "/access/howto"),
    ("GET", "/data/metadata"),
    ("GET", "/data/preview"),
    ("POST", "/jobs"),
    ("GET", "/jobs/job-0001"),
    ("GET", "/jobs/job-0001/metrics"),
    ("GET", "/jobs/job-0001/model"),
)


def test_handle_answers_every_input_with_a_status(tmp_path):
    stack, service, api, token = service_stack(tmp_path)
    routes = st.sampled_from(ROUTES) | st.tuples(
        st.sampled_from(["GET", "POST", "get", "PUT"]) | st.text(max_size=6),
        st.sampled_from([path for _, path in ROUTES]) | st.text(max_size=12),
    )
    headers = st.just({"Authorization": f"Grant {token}"}) | st.dictionaries(
        st.text(max_size=8), st.text(max_size=12), max_size=2
    )

    queries = st.just({"service": "fl-study"}) | JSON | st.dictionaries(
        st.just("service") | st.text(max_size=8), JSON, max_size=2
    )

    @settings(max_examples=300, deadline=None)
    @given(route=routes, query=queries, headers=headers, body=api_bodies(stack))
    def check(route, query, headers, body):
        method, path = route
        response = api.handle(method, path, query=query, headers=headers, body=body)
        assert response.status in API_STATUSES

    check()
