import hashlib
import itertools
import json
import re
import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedgate
from fedgate.canonical import canonical_json_bytes
from fedgate.errors import ValidationError
from fedgate.fl import (
    FederationConfig,
    LossSpec,
    RoundMetrics,
    SyntheticSpec,
    generate_partitions,
    load_partitions,
    write_dataset,
)
from fedgate.fl.data import as_fleet
import fedgate.service.api as api_module
import fedgate.service.jobs as jobs_module
from fedgate.service import FaultEvent, NodeRegistry
from fedgate.service.executor import STAGNATION_IMPROVEMENT, StagnationGuard
from fedgate.service.jobs import (
    MAX_FINISHED_JOBS,
    MAX_QUEUED_JOBS,
    MAX_QUEUED_PER_HOLDER,
    DataFilter,
    JobQueue,
    JobSpec,
    apply_filter,
    wsjf_order,
)
from fedgate.scenario import ScenarioConfig, run_demo
from fedgate.service.metadata import PREVIEW_DIGITS, PREVIEW_ROWS, summarize_partitions

from support import Stack, make_partition, read_metrics_csv, total_weighted_completion


def fleet_partitions(n_clients=4, samples=30, seed=5):
    spec = SyntheticSpec(
        n_clients=n_clients,
        samples_per_client=samples,
        feature_dim=2,
        separability=2.0,
        seed=seed, label_skew=0.0,
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
        n_clients=3, samples_per_client=40, feature_dim=2, separability=1.0, seed=8, label_skew=0.0
    )
    write_dataset(spec, tmp_path)
    parts = load_partitions(tmp_path)
    meta = summarize_partitions(parts, "fl-study")
    assert len(meta["clients"]) == 3
    for summary in meta["clients"]:
        # independent recount straight from the persisted CSV
        path = tmp_path / f"client_{summary['clientId']}.csv"
        labels = [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]]
        counted = {}
        for raw in labels:
            key = str(int(float(raw)))
            counted[key] = counted.get(key, 0) + 1
        assert summary["labelHistogram"] == counted
        assert sum(summary["labelHistogram"].values()) == summary["sampleCount"] == 40


def test_histogram_keys_each_label_value_like_a_per_sample_count():
    labels = np.array([0.5, -0.0, 0.0, 2.0, 0.5, 1e20, -1.25, 2.0])
    part = make_partition(client_id="h", features=np.zeros((8, 1)), labels=labels)
    (summary,) = summarize_partitions(as_fleet([part]), "fl-study")["clients"]
    histogram = summary["labelHistogram"]
    assert histogram == {"0.5": 2, "0": 2, "2": 2, str(10**20): 1, "-1.25": 1}
    assert list(histogram) == sorted(histogram)
    assert all(type(count) is int for count in histogram.values())
    json.dumps(summary)


def test_preview_walks_uneven_partitions_depth_major():
    def rows(*sizes):
        parts = [
            make_partition(cid, np.arange(n, dtype=float)[:, None], np.zeros(n))
            for cid, n in sizes
        ]
        meta = summarize_partitions(as_fleet(parts), "fl-study")
        return [(r["clientId"], r["features"][0]) for r in meta["preview"]]

    assert rows(("b", 3), ("a", 1), ("c", 2)) == [
        ("a", 0.0), ("b", 0.0), ("c", 0.0), ("b", 1.0), ("c", 1.0)
    ]
    assert rows(("a", 1), ("b", 1)) == [("a", 0.0), ("b", 0.0)]
    assert rows(("a", 7)) == [("a", float(d)) for d in range(PREVIEW_ROWS)]


def test_preview_is_bounded_and_rounded():
    parts = fleet_partitions()
    meta = summarize_partitions(parts, "fl-study")
    preview = meta["preview"]
    assert len(preview) == PREVIEW_ROWS == meta["previewLimit"]
    # round-robin: first rows come from distinct clients
    assert [r["clientId"] for r in preview[:4]] == ["000", "001", "002", "003"]
    for row in preview:
        for v in row["features"]:
            assert v == round(v, PREVIEW_DIGITS)
    total_rows = sum(p.size for p in parts)
    assert len(preview) < total_rows


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


@settings(max_examples=50, deadline=None)
@given(
    jobs=st.lists(
        st.tuples(st.sampled_from([1.0, 2.0, 4.0, 8.0]), st.sampled_from([0.5, 1.0, 2.0, 4.0])),
        min_size=1,
        max_size=8,
    )
)
def test_draining_the_queue_follows_wsjf_order(jobs):
    # few distinct runtimes and weights, so equal ratios (ties) are common
    q = JobQueue()
    records = [q.submit(job_spec(runtime=r, weight=w), now=i) for i, (r, w) in enumerate(jobs)]
    drained = []
    while (record := q.schedule_next()) is not None:
        drained.append(records.index(record))
    assert drained == wsjf_order([r.spec for r in records])
    ratios = [jobs[i][1] / jobs[i][0] for i in drained]
    for a, b, ra, rb in zip(drained, drained[1:], ratios, ratios[1:]):
        assert ra > rb or (ra == rb and a < b)


def test_one_holders_loop_of_job_submissions_gets_429_at_its_bound(tmp_path):
    # Unbounded, one holder's loop of 5,000 submissions all got 201.
    stack, service, api, token = service_stack(tmp_path)
    headers = {"Authorization": f"Grant {token}"}
    body = {"config": job_config().to_dict()}
    statuses = [
        api.handle("POST", "/jobs", headers=headers, body=body).status for _ in range(3 * MAX_QUEUED_PER_HOLDER)
    ]
    assert statuses == [201] * MAX_QUEUED_PER_HOLDER + [429] * (2 * MAX_QUEUED_PER_HOLDER)
    refused = api.handle("POST", "/jobs", headers=headers, body=body)
    assert refused.body == {"error": "the job queue, or this holder's share of it, is full"}
    assert len(service.queue._queued) == MAX_QUEUED_PER_HOLDER
    # A run frees one slot, and only one.
    service.run_next(node_registry=job_fleet())
    assert [api.handle("POST", "/jobs", headers=headers, body=body).status for _ in range(2)] == [201, 429]


def holder_spec(holder: str) -> JobSpec:
    return JobSpec(holder=holder, config=job_config(), estimated_runtime=10.0, priority_weight=1.0, data_filter=DataFilter())


def test_the_queue_refuses_a_job_past_its_bound_for_all_holders():
    q = JobQueue()
    holders = [f"did:efed:h{i}" for i in range(MAX_QUEUED_JOBS // MAX_QUEUED_PER_HOLDER + 1)]
    specs = [holder_spec(h) for h in holders for _ in range(MAX_QUEUED_PER_HOLDER)]
    assert len(specs) > MAX_QUEUED_JOBS
    queued = [q.submit(spec, now=0) for spec in specs]
    assert all(queued[:MAX_QUEUED_JOBS]) and not any(queued[MAX_QUEUED_JOBS:])
    assert q.get(f"job-{MAX_QUEUED_JOBS + 1:04d}") is None  # nothing was queued, no id spent
    q.schedule_next()
    assert q.submit(holder_spec(holders[-1]), now=1).job_id == f"job-{MAX_QUEUED_JOBS + 1:04d}"


def test_an_evicted_job_answers_404_and_keeps_its_files(tmp_path, monkeypatch):
    monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 1)
    stack, service, api, token = service_stack(tmp_path)
    headers = {"Authorization": f"Grant {token}"}
    body = {"config": job_config().to_dict()}
    first, second = (api.handle("POST", "/jobs", headers=headers, body=body).body["jobId"] for _ in range(2))
    evicted = service.run_next(node_registry=job_fleet())
    assert api.handle("GET", f"/jobs/{first}", headers=headers).status == 200
    service.run_next(node_registry=job_fleet())
    for path in (f"/jobs/{first}", f"/jobs/{first}/metrics", f"/jobs/{first}/model"):
        response = api.handle("GET", path, headers=headers)
        assert (response.status, response.body) == (404, {"error": f"no job {first}"})
    assert api.handle("GET", f"/jobs/{second}", headers=headers).body["state"] == "completed"
    assert Path(evicted.model_address).is_file() and Path(evicted.metrics_address).is_file()


@settings(max_examples=40, deadline=None)
@given(
    runs=st.lists(
        # ``count`` picks when ``width`` is 0, else ``count`` submissions cycling over ``width`` holders
        st.tuples(st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=100)),
        max_size=12,
    )
)
def test_the_job_tables_stay_within_their_bounds(runs):
    specs = [holder_spec(f"did:efed:h{i}") for i in range(12)]
    q = JobQueue()
    queued: list[str] = []  # the model: ids of queued jobs, and of picks in pick order
    picked: list[str] = []
    for width, count in runs:
        for step in range(count):
            if width == 0:
                record = q.schedule_next()
                assert (record is None) == (not queued)
                if record is not None:
                    queued.remove(record.job_id)
                    picked.append(record.job_id)
            else:
                spec = specs[step % width]
                held = sum(q.get(i).spec.holder == spec.holder for i in queued)
                record = q.submit(spec, now=0)
                assert (record is None) == (len(queued) >= MAX_QUEUED_JOBS or held >= MAX_QUEUED_PER_HOLDER)
                if record is not None:
                    queued.append(record.job_id)
            assert len(q._queued) <= MAX_QUEUED_JOBS and len(q._finished) <= MAX_FINISHED_JOBS
            assert list(q._queued) == queued and list(q._finished) == picked[-MAX_FINISHED_JOBS:]
    assert all(q.get(i) is None for i in picked[:-MAX_FINISHED_JOBS])


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
    # server-0 serves, with standby-server-0 behind it, and node-a serves a
    registry = NodeRegistry.provision(["a", "b"], standby_clients=1, standby_servers=1)
    swap = registry.fail("server-0", 2)
    assert (swap["kind"], swap["replacement"]) == ("server-swap", "standby-server-0")
    assert registry.fail("node-a", 2)["clientId"] == "a"
    # one server and one node per partition: no other id exists to fail
    for node_id in ("server-1", "node-a2", "standby-client-1"):
        with pytest.raises(ValidationError, match="unknown node"):
            NodeRegistry.provision(["a", "b"], 1, 1, faults=[FaultEvent(2, node_id)])
    # each node fails at most once; an unknown node is named before a repeated one
    with pytest.raises(ValidationError, match="names node 'node-a' twice"):
        NodeRegistry.provision(["a", "b"], 1, 1, faults=[FaultEvent(2, "node-a"), FaultEvent(4, "node-a")])
    with pytest.raises(ValidationError, match="unknown node 'node-x'"):
        NodeRegistry.provision(["a", "b"], faults=[FaultEvent(2, "node-a"), FaultEvent(3, "node-x"), FaultEvent(4, "node-a")])
    with pytest.raises(ValidationError, match="unknown node 'node-x'"):
        NodeRegistry.provision(["a", "b"], faults=[FaultEvent(2, "node-x"), FaultEvent(3, "node-a"), FaultEvent(4, "node-a")])


def test_client_failover_swap_and_exclusion():
    registry = NodeRegistry.provision(["a", "b"], standby_clients=1)
    action = registry.fail("node-a", 3)
    assert action["kind"] == "client-swap"
    assert (action["replacement"], action["clientId"]) == ("standby-client-0", "a")
    assert registry.eligible_clients(5, frozenset({"a", "b"})) == {"a", "b"}

    action = registry.fail("node-b", 4)
    assert action["kind"] == "client-excluded"
    assert registry.eligible_clients(3, frozenset({"a", "b"})) == {"a", "b"}
    assert registry.eligible_clients(4, frozenset({"a", "b"})) == {"a"}
    assert registry.eligible_clients(9, frozenset({"a", "b"})) == {"a"}

    # a serves through standby-client-0, so its failure takes a out
    action = registry.fail("standby-client-0", 10)
    assert (action["kind"], action["clientId"]) == ("client-excluded", "a")
    assert registry.eligible_clients(10, frozenset({"a", "b"})) == frozenset()


def test_server_failover_and_loss():
    registry = NodeRegistry.provision(["a"], standby_servers=1)
    action = registry.fail("server-0", 2)
    assert action["kind"] == "server-swap"
    assert action["replacement"] == "standby-server-0"
    action = registry.fail("standby-server-0", 3)
    assert action["kind"] == "server-lost"
    assert action["replacement"] is None


def test_idle_standby_failure_is_never_promoted():
    registry = NodeRegistry.provision(["a"], standby_clients=1, standby_servers=1)
    action = registry.fail("standby-client-0", 2)
    assert (action["kind"], action["replacement"], action["clientId"]) == ("standby-lost", None, None)
    # node-a still serves a, and no standby is left to take its place
    action = registry.fail("node-a", 3)
    assert (action["kind"], action["replacement"], action["clientId"]) == ("client-excluded", None, "a")

    action = registry.fail("standby-server-0", 2)
    assert (action["kind"], action["replacement"]) == ("standby-lost", None)
    # server-0 still serves, and no standby is left to take its place
    action = registry.fail("server-0", 4)
    assert (action["kind"], action["replacement"]) == ("server-lost", None)


# ---------------------------------------------------------------- executor


def job_fleet(faults=(), **standbys):
    """The fleet ``submitted_job``'s partitions run on, with faults and standbys."""
    return NodeRegistry.provision(["000", "001", "002", "003"], faults=faults, **standbys)


def submitted_job(tmp_path, config=None, **spec_kwargs):
    from fedgate.service import JobExecutor

    parts = fleet_partitions()
    executor = JobExecutor(parts, tmp_path)
    q = JobQueue()
    record = q.submit(job_spec(config=config, **spec_kwargs), now=0)
    return executor, record


@pytest.mark.parametrize(
    "blocked, error, rounds",
    [("out-dir", "Not a directory", 0), ("model", "Is a directory", 5)],
    ids=["out-dir", "model"],
)
def test_a_job_whose_artifacts_cannot_be_written_fails_with_the_os_error(
    tmp_path, blocked, error, rounds
):
    out = tmp_path / "out"
    executor, record = submitted_job(out)
    if blocked == "out-dir":
        out.write_text("a file where the artifacts directory should be")
    else:
        (out / record.job_id / "model.json").mkdir(parents=True)
    executor.run(record, node_registry=job_fleet())
    assert record.state == "failed"
    assert error in record.cause
    assert record.rounds_executed == rounds
    assert record.model_address is None


def test_happy_job_completes_with_artifacts(tmp_path):
    executor, record = submitted_job(tmp_path)
    executor.run(record, node_registry=job_fleet())
    assert record.state == "completed"
    assert record.rounds_executed == 5
    rows = read_metrics_csv(record.metrics_address)
    assert [m.round_index for m in rows] == [1, 2, 3, 4, 5]
    artifact = json.loads(Path(record.model_address).read_text())
    assert artifact["state"] == "completed"
    assert len(artifact["weights"]) == 2
    assert artifact["roundsExecuted"] == 5
    assert artifact["finalLoss"] == rows[-1].global_loss


def test_zero_learning_rate_terminates_early(tmp_path):
    config = job_config(total_rounds=50, learning_rate=0.0)
    executor, record = submitted_job(tmp_path, config=config)
    executor.run(record, node_registry=job_fleet())
    assert record.state == "terminated_early"
    # one round to set the baseline, then ten stagnant rounds
    assert record.rounds_executed == 11
    assert "improvement" in record.cause


def test_an_improvement_of_exactly_the_threshold_is_stale():
    guard = StagnationGuard()
    for t, loss in enumerate([STAGNATION_IMPROVEMENT, 0.0], start=1):  # 0.0 improves by exactly the threshold
        guard.observe(RoundMetrics(t, loss, 1.0, ("c0",)))
    assert (guard.best, guard.stale_rounds) == (STAGNATION_IMPROVEMENT, 1)


def test_divergent_job_fails_with_cause(tmp_path):
    config = job_config(total_rounds=10, learning_rate=1e9)
    executor, record = submitted_job(tmp_path, config=config)
    executor.run(record, node_registry=job_fleet())
    assert record.state == "failed"
    assert record.model_address is None
    assert "diverged" in record.cause or "magnitude" in record.cause


def run_reference(tmp_path, config):
    executor, record = submitted_job(tmp_path / "ref", config=config)
    executor.run(record, node_registry=job_fleet())
    return json.loads(Path(record.model_address).read_text())["weights"]


def test_client_standby_preserves_model_bits(tmp_path):
    config = job_config(total_rounds=20)
    reference = run_reference(tmp_path, config)
    executor, record = submitted_job(tmp_path / "faulty", config=config)
    executor.run(record, node_registry=job_fleet([FaultEvent(5, "node-001")], standby_clients=1))
    assert record.state == "completed"
    weights = json.loads(Path(record.model_address).read_text())["weights"]
    assert weights == reference  # exact float repr equality via JSON round-trip
    assert np.array(weights).tobytes() == np.array(reference).tobytes()


def test_no_standby_excludes_client_from_later_rounds(tmp_path):
    config = job_config(total_rounds=20, subset_size=3)
    executor, record = submitted_job(tmp_path, config=config)
    executor.run(record, node_registry=job_fleet([FaultEvent(5, "node-001")]))
    assert record.state == "completed"
    for metrics in read_metrics_csv(record.metrics_address):
        if metrics.round_index >= 5:
            assert "001" not in metrics.selected_clients


def test_server_standby_resumes_bit_exact(tmp_path):
    config = job_config(total_rounds=20)
    reference = run_reference(tmp_path, config)
    executor, record = submitted_job(tmp_path / "faulty", config=config)
    executor.run(record, node_registry=job_fleet([FaultEvent(5, "server-0")], standby_servers=1))
    assert record.state == "completed"
    assert record.rounds_executed == 20
    weights = json.loads(Path(record.model_address).read_text())["weights"]
    assert weights == reference
    artifact = json.loads(Path(record.model_address).read_text())
    assert [a["kind"] for a in artifact["failover"]] == ["server-swap"]


def test_server_loss_without_standby_fails_job(tmp_path):
    config = job_config(total_rounds=20)
    executor, record = submitted_job(tmp_path, config=config)
    executor.run(record, node_registry=job_fleet([FaultEvent(5, "server-0")]))
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
    executor.run(record, node_registry=job_fleet(schedule, standby_clients=1, standby_servers=1))
    assert (record.state, record.rounds_executed) == ("completed", 20)
    artifact = json.loads(Path(record.model_address).read_text())
    assert [a["kind"] for a in artifact["failover"]] == kinds
    assert np.array(artifact["weights"]).tobytes() == np.array(reference).tobytes()


def test_idle_standby_fault_keeps_the_job_running(tmp_path):
    config = job_config(total_rounds=20)
    reference = run_reference(tmp_path, config)
    executor, record = submitted_job(tmp_path / "faulty", config=config)
    schedule = [FaultEvent(3, "standby-client-0"), FaultEvent(5, "node-001")]
    executor.run(record, node_registry=job_fleet(schedule, standby_clients=1))
    assert (record.state, record.rounds_executed) == ("completed", 20)
    artifact = json.loads(Path(record.model_address).read_text())
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
    registry = CountingRegistry.provision(
        ["000", "001", "002", "003"], standby_servers=standby_servers, faults=[FaultEvent(5, "server-0")]
    )
    executor.run(record, node_registry=registry)
    assert registry.calls == record.rounds_executed == rounds


def test_fault_on_unknown_node_is_refused_at_provision():
    with pytest.raises(ValidationError, match="unknown node 'node-999'"):
        job_fleet([FaultEvent(2, "node-999")])


def test_a_long_fault_schedule_is_checked_and_applied_in_one_pass():
    # Each fault was counted in the whole schedule, and each round scanned it:
    # 20,000 faults took 5.5 s to check, a time that grew with the count squared.
    clients = [f"{i:06d}" for i in range(200_000)]
    faults = [FaultEvent(5 * i + 1, f"node-{cid}") for i, cid in enumerate(clients)]
    with within_seconds(5):
        with pytest.raises(ValidationError, match="^fault names unknown node 'node-x'$"):
            NodeRegistry.provision(clients, faults=[*faults, FaultEvent(1, "node-x"), faults[0]])
        with pytest.raises(ValidationError, match="^fault schedule names node 'node-000000' twice$"):
            NodeRegistry.provision(clients, faults=[*faults, faults[0]])
        registry = NodeRegistry.provision(clients, faults=faults)
        for t in range(1, 1001):
            registry.advance(t)
    assert [a["failedNode"] for a in registry.actions] == [e.node_id for e in faults[:200]]


def test_many_idle_standbys_fail_in_one_round_in_linear_time():
    # Each failed standby was found and removed in a list, and each promotion
    # popped the list's head: 20,000 standbys failing in one round took 5 s or more.
    standbys = 80_000
    names = [f"standby-client-{i}" for i in reversed(range(1, standbys))]
    faults = [FaultEvent(2, name) for name in names] + [FaultEvent(2, "node-a"), FaultEvent(3, "node-b")]
    registry = NodeRegistry.provision(["a", "b"], standby_clients=standbys, faults=faults)
    with within_seconds(5):
        registry.advance(2)
        registry.advance(3)
    assert [a["failedNode"] for a in registry.actions] == [*names, "node-a", "node-b"]
    assert {a["kind"] for a in registry.actions[:-2]} == {"standby-lost"}
    # the one standby left serves a; none is left for b
    assert [(a["kind"], a["replacement"], a["clientId"]) for a in registry.actions[-2:]] == [
        ("client-swap", "standby-client-0", "a"),
        ("client-excluded", None, "b"),
    ]


# ---------------------------------------------------------- facade and api


def service_stack(tmp_path, parts=None):
    from fedgate.service import FlaasService, ServiceApi

    stack = Stack()
    stack.deploy_membership_policy()
    parts = fleet_partitions() if parts is None else parts
    service = FlaasService(
        stack.gateway, parts, tmp_path / "artifacts", stack.clock, service_name="fl-study"
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


def test_a_grant_is_refused_from_the_second_it_expires(tmp_path):
    stack, service, api, _ = service_stack(tmp_path)
    grant = stack.request_a("did:efed:alice").grant
    headers = {"Authorization": f"Grant {grant.token}"}
    stack.clock.advance(grant.expires_at - 1 - stack.clock())
    assert api.handle("GET", "/data/metadata", headers=headers).status == 200
    stack.clock.advance(1)
    assert api.handle("GET", "/data/metadata", headers=headers).status == 401


def test_metadata_is_built_once_and_never_aliased(tmp_path, monkeypatch):
    import fedgate.service.facade as facade

    builds = []

    def counting_summary(*args, **kwargs):
        builds.append(1)
        return summarize_partitions(*args, **kwargs)

    monkeypatch.setattr(facade, "summarize_partitions", counting_summary)
    stack, service, api, token = service_stack(tmp_path)
    assert builds == []
    headers = {"Authorization": f"Grant {token}"}
    first = api.handle("GET", "/data/metadata", headers=headers).body
    pristine = json.loads(json.dumps(first))
    first["preview"][0]["features"].append(99.0)
    first["preview"][0]["label"] = -1.0
    first["preview"].clear()
    first["clients"][0]["labelHistogram"]["9"] = 9
    first["clients"][0]["featureNames"].append("x99")
    assert api.handle("GET", "/data/metadata", headers=headers).body == pristine
    preview = api.handle("GET", "/data/preview", headers=headers).body["preview"]
    assert preview == pristine["preview"]
    preview[0]["features"][0] = 99.0
    assert api.handle("GET", "/data/preview", headers=headers).body["preview"] == pristine["preview"]
    returned = service.metadata(service.authorize(token))
    returned["preview"][0]["label"] = -1.0
    returned["clients"][0]["labelHistogram"]["9"] = 9
    assert api.handle("GET", "/data/metadata", headers=headers).body == pristine
    assert builds == [1]


def seed_7_demo_fleet(tmp_path):
    run_demo(ScenarioConfig(out_dir=str(tmp_path / "demo"), seed=7))
    return load_partitions(tmp_path / "demo" / "data")


def bench_shaped_fleet(tmp_path):
    spec = SyntheticSpec(
        n_clients=1000,
        samples_per_client=100,
        feature_dim=20,
        separability=0.5,
        seed=1,
        label_skew=0.6,
        label_noise=0.05,
    )
    return generate_partitions(spec)[0]


# sha256 of the canonical JSON of the /data/metadata and /data/preview bodies,
# computed when the summary was still kept as wrapper objects and rebuilt into
# JSON on every reply; the plain-JSON summary must answer the same bytes.
@pytest.mark.parametrize(
    "fleet, pinned",
    [
        (
            seed_7_demo_fleet,
            (
                "32fc77b1b7316a82836b8d95056270369ff02bd5417e9e52bc8feba2a4654253",
                "1d2ca7f62cef5417df164ec70a99f4813d3714069a38e3d9749269f45cb21385",
            ),
        ),
        (
            bench_shaped_fleet,
            (
                "8fd02252099fbfb5faf542bbea4c866a7ea3f67f9d1e3485c1330fd5a926421e",
                "387ff08dea2fc7dbd34e4a4a159f8314e75140fb7b26bb2de1bfd78164960a1d",
            ),
        ),
    ],
    ids=["seed-7-demo", "bench-shaped"],
)
def test_metadata_and_preview_bodies_are_pinned(tmp_path, fleet, pinned):
    _, _, api, token = service_stack(tmp_path, fleet(tmp_path))
    headers = {"Authorization": f"Grant {token}"}
    digests = []
    for route in ("/data/metadata", "/data/preview"):
        response = api.handle("GET", route, headers=headers)
        assert response.status == 200
        digests.append(hashlib.sha256(canonical_json_bytes(response.body)).hexdigest())
    assert tuple(digests) == pinned


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


def test_the_ledger_holds_no_grant_token(tmp_path):
    """Every consortium party reads chain.jsonl and identity.jsonl, so neither
    holds a bearer token (RFC 6750 §5.3): each grant records its token's
    SHA-256, and no 32-hex-digit string in either file opens the service."""
    from fedgate.ledger import load_chain
    from fedgate.service import FlaasService, ServiceApi

    stack = Stack()
    stack.deploy_membership_policy()
    service = FlaasService(
        stack.gateway, fleet_partitions(), tmp_path / "artifacts", stack.clock, service_name="fl-study"
    )
    api = ServiceApi(stack.gateway, service, stack.clock)
    tokens = []
    for i, scheme in enumerate(["contract_lookup", "user_lookup"] * 3):
        member = stack.register_actor(f"member-{i}")
        stack.issuer.issue(member.did, "consortium_member", "yes", 7200)
        body = {"requester": member.did, "service": "fl-study", "scheme": scheme}
        if scheme == "user_lookup":
            lookup = stack.gateway.user_lookup(member.did, stack.fresh_nonce())
            body["attestation"] = lookup.attestation.to_dict()
        body["nonce"] = stack.fresh_nonce().hex()
        tokens.append(api.handle("POST", "/access/request", body=body).body["grant"]["token"])
        stack.clock.advance(1)
    chain_path = stack.chain.write_chain(tmp_path / "chain.jsonl")
    identity_path = stack.registry.write_log(tmp_path / "identity.jsonl")

    txs = [tx for block in load_chain(chain_path) for tx in block.transactions]
    digests = [json.loads(tx.payload)["tokenDigest"] for tx in txs if tx.kind == "access_grant"]
    assert digests == [hashlib.sha256(token.encode()).hexdigest() for token in tokens]
    ledger = "\n".join([chain_path.read_text(), identity_path.read_text()] + [tx.payload.decode() for tx in txs])
    assert not any(token in ledger for token in tokens)
    held = {
        run[i : i + 32] for run in re.findall(r"[0-9a-f]{32,}", ledger) for i in range(len(run) - 31)
    }
    for text in sorted(held):
        response = api.handle("GET", "/data/metadata", headers={"Authorization": f"Grant {text}"})
        assert response.status == 401
    for token in tokens:
        response = api.handle("GET", "/data/metadata", headers={"Authorization": f"Grant {token}"})
        assert response.status == 200


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

    assert service.run_next(node_registry=job_fleet()) is not None
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
    # Every route compares the whole path, so a final newline names no route.
    for path in (f"/jobs/{job_id}\n", f"/jobs/{job_id}/metrics\n", f"/jobs/{job_id}/model\n", "/access/howto\n"):
        assert api.handle("GET", path, headers=headers).status == 404, repr(path)


def test_missing_or_unreadable_artifact_answers_404(tmp_path):
    stack, service, api, token = service_stack(tmp_path)
    headers = {"Authorization": f"Grant {token}"}
    body = {"config": job_config().to_dict()}
    job_id = api.handle("POST", "/jobs", headers=headers, body=body).body["jobId"]
    for kind in ("model", "metrics"):  # queued: nothing written yet
        response = api.handle("GET", f"/jobs/{job_id}/{kind}", headers=headers)
        assert (response.status, response.body) == (404, {"error": f"job {job_id} has no {kind} yet"})
    record = service.run_next(node_registry=job_fleet())
    Path(record.model_address).unlink()
    Path(record.metrics_address).write_bytes(b"round\n\xff\n")  # not UTF-8
    for kind in ("model", "metrics"):
        response = api.handle("GET", f"/jobs/{job_id}/{kind}", headers=headers)
        assert (response.status, response.body) == (404, {"error": f"job {job_id} has no readable {kind}"})


def test_submit_rejects_config_filter_mismatch(tmp_path):
    stack, service, api, token = service_stack(tmp_path)
    with pytest.raises(ValidationError, match="2 partitions for 4 configured clients"):
        service.submit_job(
            service.authorize(token),
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


@pytest.mark.parametrize("epochs", [10**12, 2**62], ids=["memory-error", "value-error"])
def test_a_job_past_the_row_bound_answers_400_and_never_runs(tmp_path, epochs):
    # Accepted, these raised MemoryError and ValueError out of JobExecutor.run from
    # the epoch orders' allocation, and the job read "running" from then on.
    stack, service, api, token = service_stack(tmp_path)
    config = job_config(local_epochs=epochs, batch_mode="minibatch", batch_size=5)
    response = api.handle(
        "POST", "/jobs", headers={"Authorization": f"Grant {token}"}, body={"config": config.to_dict()}
    )
    rows = 5 * 2 * epochs * 30
    assert (response.status, response.body) == (
        400,
        {"error": f"total_rounds x subset_size x local_epochs x the largest client's rows is {rows}, over 10000000"},
    )
    assert service.run_next(node_registry=job_fleet()) is None


def test_a_job_past_the_step_bound_answers_400_and_never_runs(tmp_path):
    # 5 rounds x 2 clients x 3,400 epochs x 30 one-row steps: 1,020,000 steps over as
    # many rows. Accepted, it held the one executor for minutes.
    stack, service, api, token = service_stack(tmp_path)
    headers = {"Authorization": f"Grant {token}"}
    config = job_config(local_epochs=3400, batch_mode="minibatch", batch_size=1)
    response = api.handle("POST", "/jobs", headers=headers, body={"config": config.to_dict()})
    assert (response.status, response.body) == (
        400,
        {"error": "total_rounds x subset_size x local_epochs x the largest client's steps per epoch is 1020000, over 1000000"},
    )
    assert service.run_next(node_registry=job_fleet()) is None
    # The same rows in batches of 10 take 102,000 steps.
    config = job_config(local_epochs=3400, batch_mode="minibatch", batch_size=10)
    assert api.handle("POST", "/jobs", headers=headers, body={"config": config.to_dict()}).status == 201


def test_every_job_run_next_starts_ends_in_a_final_state(tmp_path):
    stack, service, api, token = service_stack(tmp_path)
    ids = ("000", "001", "002", "003")

    @settings(max_examples=40, deadline=None)
    @given(
        clients=st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True),
        cap=st.none() | st.integers(1, 30),
        kind=st.sampled_from(["logistic", "squared_error"]),
        bias=st.booleans(),
        batch_size=st.none() | st.integers(1, 40),
        learning_rate=st.sampled_from([0.0, 0.5, 30.0, 1e300]),
        initial=st.none() | st.sampled_from([0.0, 1e7, -1e300]),
        data=st.data(),
    )
    def check(clients, cap, kind, bias, batch_size, learning_rate, initial, data):
        loss = LossSpec(kind=kind, feature_dim=2, bias=bias)
        config = FederationConfig(
            total_rounds=data.draw(st.integers(1, 6)),
            total_clients=len(clients),
            subset_size=data.draw(st.integers(1, len(clients))),
            local_epochs=data.draw(st.integers(1, 30)),
            learning_rate=learning_rate,
            loss=loss,
            rng_seed=data.draw(st.integers(-(2**70), 2**70)),
            batch_mode="full" if batch_size is None else "minibatch",
            batch_size=batch_size,
            weighting=data.draw(st.sampled_from(["proportional", "uniform"])),
            initial_weights=None if initial is None else (initial,) * loss.parameter_dim,
        )
        record = service.submit_job(
            service.authorize(token),
            config,
            estimated_runtime=1.0,
            priority_weight=1.0,
            data_filter=DataFilter(client_ids=tuple(clients), max_samples_per_client=cap),
        )
        assert service.run_next(node_registry=job_fleet()) is record
        assert record.state in ("completed", "terminated_early", "failed")

    check()


def test_filtered_job_runs_on_subset(tmp_path):
    stack, service, api, token = service_stack(tmp_path)
    config = job_config(total_clients=2, subset_size=2)
    record = service.submit_job(
        service.authorize(token),
        config,
        estimated_runtime=1.0,
        priority_weight=1.0,
        data_filter=DataFilter(client_ids=("000", "002")),
    )
    service.run_next(node_registry=job_fleet())
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


def test_grant_body_has_exactly_its_five_keys(tmp_path):
    stack, service, api, token = service_stack(tmp_path)
    carol = stack.register_actor("carol")
    stack.issuer.issue(carol.did, "consortium_member", "yes", 3600)
    body = {"requester": carol.did, "service": "fl-study", "scheme": "contract_lookup"}
    response = api.handle("POST", "/access/request", body=dict(body, nonce=stack.fresh_nonce().hex()))
    grant = response.body["grant"]
    stored = stack.gateway.grants.validate(grant["token"], stack.clock())
    assert grant == {
        "token": stored.token,
        "holder": carol.did,
        "service": "fl-study",
        "metadataAddress": api.handle("GET", "/access/howto").body["addresses"]["metadata"],
        "expiresAt": stored.expires_at,
    }
    headers = {"Authorization": f"Grant {grant['token']}"}
    assert api.handle("GET", grant["metadataAddress"], headers=headers).status == 200


def _ghost_body(stack, requester="did:efed:ghost"):
    return access_body(stack, requester=requester, scheme="contract_lookup")


def _post(api, body):
    return api.handle("POST", "/access/request", body=body)


def _rate_refusals(stack, api):
    # Only a DID that resolves reaches the limiter: alice, granted once
    # already, spends the rest of the contract path's budget.
    for _ in range(10):
        _post(api, access_body(stack, scheme="contract_lookup"))
    return lambda: access_body(stack, scheme="contract_lookup")


def _capacity_refusals(stack, api):
    for i in range(stack.gateway.pending.capacity):
        _post(api, _ghost_body(stack, f"did:efed:ghost-{i}"))
    return lambda: _ghost_body(stack, "did:efed:late")


def _replay_refusals(stack, api):
    body = _ghost_body(stack)
    _post(api, body)  # parked as unresolvable, so its nonce stays live
    return lambda: dict(body)


def _unresolvable_refusals(stack, api):
    return lambda: _ghost_body(stack)


def _missing_attestation_refusals(stack, api):
    return lambda: access_body(stack)


def _attestation_mismatch_refusals(stack, api):
    bob = stack.register_actor("bob")
    attestation = stack.gateway.user_lookup("did:efed:alice", stack.fresh_nonce()).attestation
    return lambda: access_body(stack, requester=bob.did, attestation=attestation.to_dict())


def _stale_attestation_refusals(stack, api):
    attestations = iter(
        [stack.gateway.user_lookup("did:efed:alice", stack.fresh_nonce()).attestation for _ in range(2)]
    )
    stack.issuer.issue("did:efed:alice", "role", "researcher", 3600)  # the document moves on
    return lambda: access_body(stack, attestation=next(attestations).to_dict())


# Each refusal the gateway makes before a contract runs: a setup that returns
# a maker of bodies it refuses, and the (status, decision, reason) it answers.
REFUSALS = {
    "rate": (_rate_refusals, (429, "rejected-rate", "per-requester rate limit")),
    "capacity": (_capacity_refusals, (503, "rejected-capacity", "pending table full")),
    "replay": (_replay_refusals, (403, "denied", "replay")),
    "unresolvable": (_unresolvable_refusals, (403, "denied", "unresolvable")),
    "missing-attestation": (_missing_attestation_refusals, (403, "denied", "missing-attestation")),
    "attestation-mismatch": (_attestation_mismatch_refusals, (403, "denied", "attestation-mismatch")),
    "stale-attestation": (_stale_attestation_refusals, (403, "denied", "stale-attestation")),
}


@pytest.mark.parametrize("setup, expected", REFUSALS.values(), ids=REFUSALS)
def test_every_refusal_answers_only_its_verdict_and_writes_nothing(tmp_path, setup, expected):
    stack, service, api, token = service_stack(tmp_path)
    status, decision, reason = expected
    refused_body = setup(stack, api)
    height = stack.chain.height
    first = _post(api, refused_body())
    assert (first.status, first.body) == (status, {"decision": decision, "reason": reason, "missing": []})
    # A caller may keep and change its reply; the next one is built afresh.
    first.body["reason"] = "changed"
    first.body["missing"].append("consortium_member")
    second = _post(api, refused_body())
    assert (second.status, second.body) == (status, {"decision": decision, "reason": reason, "missing": []})
    assert stack.chain.height == height


_PIN_NONCE = "5a" * 16
_ABSENT = object()
# Texts no document is held under, each with another defect: one part, two
# parts, an uppercase method, a space in the specific id, no registration,
# no driver for the method.
_GHOST_TEXTS = {
    "one-part": "x",
    "two-parts": "did:efed",
    "uppercase-method": "did:EFED:a",
    "bad-specific-id": "did:efed:bad id",
    "unregistered": "did:efed:nobody",
    "no-driver": "did:web:a",
}


def _pinned(**fields):
    """A setup whose body is alice's contract-lookup request with ``fields``
    set, or dropped where the value is ``_ABSENT``."""

    def setup(stack, api):
        body = {
            "requester": "did:efed:alice",
            "service": "fl-study",
            "scheme": "contract_lookup",
            "nonce": _PIN_NONCE,
            **fields,
        }
        return {key: value for key, value in body.items() if value is not _ABSENT}

    return setup


def _ghost_under(scheme, text):
    """A request by ``text``; under user lookup it carries an attestation
    naming ``text``, so the refusal comes from the lookup itself."""

    def setup(stack, api):
        body = _pinned(requester=text, scheme=scheme)(stack, api)
        if scheme == "user_lookup":
            body["attestation"] = {**forged_attestation("a5" * 16), "did": text}
        return body

    return setup


def _replayed(requester):
    def setup(stack, api):
        body = _pinned(requester=requester)(stack, api)
        _post(api, body)
        return body

    return setup


def _past_capacity(stack, api):
    _capacity_refusals(stack, api)
    return _pinned(requester="did:efed:late")(stack, api)


def _malformed(message):
    return 400, {"error": message}


def _not_hex(text):
    return _malformed(f"body field 'nonce' is malformed: not canonical lowercase hex: {text!r}")


_UNRESOLVABLE = (403, {"decision": "denied", "reason": "unresolvable", "missing": []})
_REQUEST_FIELDS = ("requester", "service", "scheme", "nonce")

# Every access-request refusal, and the exact reply it gets.
PINNED_REFUSALS = {
    "unknown-key": (_pinned(extra=1), _malformed("access request has unknown keys ['extra']")),
    **{
        f"{kind}-{field}": (
            _pinned(**{field: value}),
            _malformed(f"body field {field!r} is required as a string"),
        )
        for kind, value in (("no", _ABSENT), ("int", 7))
        for field in _REQUEST_FIELDS
    },
    "uppercase-nonce": (_pinned(nonce="5A" * 16), _not_hex("5A" * 16)),
    "short-nonce": (_pinned(nonce="5a"), _malformed("request nonce must be 16 bytes")),
    "odd-length-nonce": (_pinned(nonce="5a" * 15 + "5"), _not_hex("5a" * 15 + "5")),
    "whitespace-nonce": (_pinned(nonce="5a " * 16), _not_hex("5a " * 16)),
    "15-byte-nonce": (_pinned(nonce="5a" * 15), _malformed("request nonce must be 16 bytes")),
    "unknown-scheme": (_pinned(scheme="oauth"), _malformed("unknown scheme 'oauth'")),
    "unknown-service": (_pinned(service="nope"), (404, {"error": "no contract grants service 'nope'"})),
    **{
        f"{scheme}-{defect}": (_ghost_under(scheme, text), _UNRESOLVABLE)
        for scheme in ("contract_lookup", "user_lookup")
        for defect, text in _GHOST_TEXTS.items()
    },
    "ghost-replay": (
        _replayed("did:efed:ghost"),
        (403, {"decision": "denied", "reason": "replay", "missing": []}),
    ),
    "member-replay": (
        _replayed("did:efed:alice"),
        (403, {"decision": "denied", "reason": "replay", "missing": []}),
    ),
    "full-table": (
        _past_capacity,
        (503, {"decision": "rejected-capacity", "reason": "pending table full", "missing": []}),
    ),
}


@pytest.mark.parametrize("setup, expected", PINNED_REFUSALS.values(), ids=PINNED_REFUSALS)
def test_each_access_request_refusal_keeps_its_exact_reply(tmp_path, setup, expected):
    stack, service, api, token = service_stack(tmp_path)
    body = setup(stack, api)
    height = stack.chain.height
    response = _post(api, body)
    assert (response.status, response.body) == expected
    assert stack.chain.height == height


FEDGATE_SRC = str(Path(fedgate.__file__).parent)

# Python calls in ``src/fedgate`` for one ghost, the most this path may make:
# an unknown or malformed DID makes 12 (19 and 16 when each lookup parsed its
# DID and raised), a capacity refusal 11 (14).
GHOST_CALLS = {"unknown": 12, "malformed": 12, "capacity": 11}


def _traced_post(api, body):
    """``_post`` under ``sys.settrace``: the reply, the name of each call in
    ``src/fedgate`` and of each frame there that saw an exception event."""
    calls, raised = [], []

    def in_frame(frame, event, arg):
        if event == "exception":
            raised.append(frame.f_code.co_name)
        return in_frame

    def on_call(frame, event, arg):
        if frame.f_code.co_filename.startswith(FEDGATE_SRC):
            calls.append(frame.f_code.co_name)
            return in_frame
        return None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        response = _post(api, body)
    finally:
        sys.settrace(previous)
    return response, calls, raised


@pytest.mark.parametrize("ghost", GHOST_CALLS)
def test_a_ghost_is_refused_by_lookups_not_exceptions(tmp_path, ghost):
    stack, service, api, token = service_stack(tmp_path)
    if ghost == "capacity":
        _capacity_refusals(stack, api)
    requester = {"unknown": "did:efed:ghost", "malformed": "did:efed:bad id"}.get(ghost, "did:efed:late")
    response, calls, raised = _traced_post(api, _ghost_body(stack, requester))
    assert response.status == (503 if ghost == "capacity" else 403)
    assert raised == []
    assert "parse_did" not in calls
    assert len(calls) <= GHOST_CALLS[ghost], calls


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


def forged_attestation(nonce_hex):
    """An attestation body for alice that every field check but the nonce's passes."""
    return {
        "did": "did:efed:alice",
        "nonce": nonce_hex,
        "documentDigest": "00" * 32,
        "resolver": "front-desk",
        "signature": "00" * 64,
    }


def config_body(**fields):
    return {**job_config().to_dict(), **fields}


@pytest.mark.parametrize(
    "path, fields",
    [
        ("/access/request", {"nonce": "not-hex"}),
        ("/access/request", {"scheme": "oauth"}),
        ("/access/request", {"nonce": "01" * 15}),
        ("/access/request", {"nonce": "01" * 17}),
        ("/access/request", {"attestation": {}}),
        ("/access/request", {"attestation": forged_attestation("01" * 17)}),
        ("/access/request", {"attestation": forged_attestation("AB" * 16)}),
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
        ("/jobs", {"dataFilter": {"maxSamplesPerClient": 2.5}}),
        ("/jobs", {"dataFilter": {"maxSamplesPerClient": 0}}),
        ("/jobs", {"dataFilter": {"maxSamplesPerClient": "2"}}),
        ("/jobs", {"config": config_body(learningRate=True)}),
        ("/jobs", {"config": config_body(learningRate="0.5")}),
        ("/jobs", {"config": config_body(initialWeights=[True, "1"])}),
        ("/jobs", {"estimatedRuntime": True}),
        ("/jobs", {"priorityWeight": "2"}),
        ("/jobs", {"estimatedRuntime": 10**400}),
        ("/jobs", {"config": config_body(initialWeights=[])}),
        ("/jobs", {"dataFilter": {"featurenames": ["x0"]}}),
        ("/jobs", {"config": config_body(weightng="uniform")}),
        ("/jobs", {"config": config_body(loss={"kind": "hinge", "featureDim": 2})}),
        ("/jobs", {"config": config_body(subsetSize=5)}),
        ("/jobs", {"config": config_body(batchMode="stochastic")}),
        ("/jobs", {"config": config_body(batchMode="minibatch")}),
        ("/jobs", {"config": config_body(weighting="equal")}),
        ("/jobs", {"config": config_body(loss={"kind": "logistic", "featureDim": 3})}),
    ],
    ids=[
        "non-hex-nonce", "unknown-scheme", "15-byte-nonce", "17-byte-nonce", "empty-attestation",
        "17-byte-attestation-nonce", "uppercase-attestation-nonce",
        "empty-config", "int-config", "text-runtime",
        "nan-runtime-and-weight", "infinite-runtime", "text-bias", "text-batch-size-full-batch",
        "nan-initial-weight", "nan-learning-rate", "fractional-rounds", "bool-rounds", "bool-sample-cap",
        "fractional-sample-cap", "zero-sample-cap", "text-sample-cap",
        "bool-learning-rate", "text-learning-rate", "bool-and-text-initial-weights", "bool-runtime",
        "text-priority-weight", "overflowing-runtime", "empty-initial-weights", "filter-key-typo",
        "config-key-typo", "unknown-loss-kind", "subset-over-clients", "unknown-batch-mode",
        "minibatch-without-size", "unknown-weighting", "feature-dim-unlike-the-fleet",
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


@pytest.mark.parametrize(
    "path, fields, named",
    [
        ("/jobs", lambda attestation: {"priorityWieght": 5.0}, "priorityWieght"),
        ("/jobs", lambda attestation: {"dataFilter": []}, "data filter must be an object"),
        ("/access/request", lambda attestation: {"attestaton": attestation}, "attestaton"),
        (
            "/access/request",
            lambda attestation: {"attestation": {**attestation, "signer": "did:efed:alice"}},
            "signer",
        ),
    ],
    ids=["priority-weight-typo", "empty-data-filter", "attestation-typo", "attestation-extra-key"],
)
def test_unknown_or_empty_body_keys_answer_400_and_change_nothing(tmp_path, path, fields, named):
    stack, service, api, token = service_stack(tmp_path)
    attestation = stack.gateway.user_lookup("did:efed:alice", stack.fresh_nonce()).attestation
    if path == "/access/request":
        body = access_body(stack, **fields(attestation.to_dict()))
    else:
        body = {"config": job_config().to_dict(), **fields(attestation.to_dict())}
    height = stack.chain.height
    response = api.handle("POST", path, headers={"Authorization": f"Grant {token}"}, body=body)
    assert response.status == 400
    assert named in response.body["error"]
    assert stack.chain.height == height
    assert service.queue.get("job-0001") is None


def test_attestation_nonces_of_the_wrong_length_answer_400_and_spend_no_ring_slot(tmp_path):
    stack, service, api, token = service_stack(tmp_path)
    ring = stack.gateway._used_nonces._seen
    size = len(ring)
    for nonce_hex in ("01" * 15, "01" * 17, "ab" * 100_000):
        body = access_body(stack, attestation=forged_attestation(nonce_hex))
        response = api.handle("POST", "/access/request", body=body)
        assert response.status == 400
        assert "attestation nonce must be 16 bytes" in response.body["error"]
    assert len(ring) == size


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
    spec = service.queue.get(response.body["jobId"]).spec
    assert (spec.config.learning_rate, spec.config.initial_weights) == (1.0, (0.0, 1.0))
    assert all(type(v) is float for v in (spec.estimated_runtime, spec.config.learning_rate))


def test_a_real_body_field_takes_the_largest_finite_float(tmp_path):
    # the finite check's bound: an int past it, 10**400, answers 400 above
    stack, service, api, token = service_stack(tmp_path)
    body = {"config": job_config().to_dict(), "estimatedRuntime": sys.float_info.max}
    response = api.handle("POST", "/jobs", headers={"Authorization": f"Grant {token}"}, body=body)
    assert (response.status, response.body["estimatedRuntime"]) == (201, sys.float_info.max)


def test_count_body_fields_take_integral_floats(tmp_path):
    stack, service, api, token = service_stack(tmp_path)
    body = {
        "config": config_body(totalRounds=5.0, loss={"kind": "logistic", "featureDim": 2.0}),
        "dataFilter": {"maxSamplesPerClient": 2.0},
    }
    response = api.handle("POST", "/jobs", headers={"Authorization": f"Grant {token}"}, body=body)
    assert response.status == 201
    spec = service.queue.get(response.body["jobId"]).spec
    counts = (spec.config.total_rounds, spec.config.loss.feature_dim, spec.data_filter.max_samples_per_client)
    assert counts == (5, 2, 2) and all(type(n) is int for n in counts)


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
    assert service.queue.get("job-0001") is None
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
    assert service.run_next(node_registry=job_fleet()).state == "completed"
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
    assert service.queue.get("job-0001") is None


@pytest.mark.parametrize("field", ["clientIds", "featureNames"])
@pytest.mark.parametrize("value", ["001", ["001", 7]], ids=["string", "list-with-an-int"])
def test_a_filter_list_that_is_not_all_strings_is_refused(tmp_path, field, value):
    # Read as a sequence, "001" would filter the clients "0" and "1".
    message = f"{field} must be a list of strings"
    with pytest.raises(ValidationError, match=f"^{message}$"):
        DataFilter.from_dict({field: value})
    stack, service, api, token = service_stack(tmp_path)
    response = api.handle(
        "POST",
        "/jobs",
        headers={"Authorization": f"Grant {token}"},
        body={"config": job_config().to_dict(), "dataFilter": {field: value}},
    )
    assert (response.status, response.body) == (400, {"error": message})
    assert service.queue.get("job-0001") is None


@contextmanager
def within_seconds(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


LONG_LIST_WITH_ONE_REPEAT = [f"c{i}" for i in range(199_999)] + ["c0"]


@pytest.mark.parametrize(
    "field, value",
    [
        ("clientIds", ["001", "000", "001"]),
        ("featureNames", ["x0", "x0"]),
        ("clientIds", LONG_LIST_WITH_ONE_REPEAT),
        ("featureNames", LONG_LIST_WITH_ONE_REPEAT),
        ("clientIds", ["000", "001", "002", "001"]),
    ],
)
def test_a_filter_list_that_names_an_entry_twice_is_refused(tmp_path, field, value):
    # Read as given, ["x0", "x0"] would train on one feature twice. A holder may
    # send the long list, whose repeat took minutes to find when each entry was
    # sought in those before it; a bad grant is refused before the list is read.
    # Each list ends with its one repeat, which is not always its first entry.
    message = f"{field} names {value[-1]!r} twice"
    stack, service, api, token = service_stack(tmp_path)
    body = {"config": job_config().to_dict(), "dataFilter": {field: value}}
    with within_seconds(5):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            DataFilter.from_dict({field: value})
        for grant, status, error in ((token, 400, message), ("not-a-token", 401, BAD_GRANT)):
            response = api.handle("POST", "/jobs", headers={"Authorization": f"Grant {grant}"}, body=body)
            assert (response.status, response.body) == (status, {"error": error})
    assert service.queue.get("job-0001") is None


BAD_GRANT = "unknown or expired grant token for fl-study"


@pytest.mark.parametrize(
    "body",
    [
        {"config": {"totalRounds": "x"}},
        {},
        {"confg": {}},
        {"config": job_config().to_dict(), "dataFilter": {"clientIds": LONG_LIST_WITH_ONE_REPEAT}},
    ],
    ids=["malformed-config", "no-config", "unknown-key", "long-repeating-filter"],
)
@pytest.mark.parametrize(
    "header, message",
    [
        ("Grant nope", BAD_GRANT),
        ("Grant ", "missing grant token"),
        ("Bearer nope", "expected 'Authorization: Grant <token>'"),
    ],
    ids=["unknown-token", "empty-token", "not-a-grant"],
)
def test_a_bad_grant_answers_401_before_the_job_body_is_read(tmp_path, monkeypatch, body, header, message):
    stack, service, api, token = service_stack(tmp_path)
    read = []
    monkeypatch.setattr(api_module, "check_keys", lambda *args: read.append(args))
    response = api.handle("POST", "/jobs", headers={"Authorization": header}, body=body)
    assert (response.status, response.body) == (401, {"error": message})
    assert read == [] and service.queue.get("job-0001") is None


def test_an_unknown_route_answers_404_whatever_the_grant(tmp_path):
    stack, service, api, token = service_stack(tmp_path)
    for header in ({}, {"Authorization": "Grant nope"}, {"Authorization": f"Grant {token}"}):
        response = api.handle("POST", "/jobs/job-0001", headers=header, body={"config": {}})
        assert (response.status, response.body) == (404, {"error": "no route for POST /jobs/job-0001"})


def test_a_job_body_without_a_config_answers_400(tmp_path):
    stack, service, api, token = service_stack(tmp_path)
    response = api.handle("POST", "/jobs", headers={"Authorization": f"Grant {token}"}, body={"priorityWeight": 2.0})
    assert (response.status, response.body) == (400, {"error": "body field 'config' is required"})
    assert service.queue.get("job-0001") is None


@pytest.mark.parametrize(
    "method, path, inputs, message",
    [
        *[("POST", "/access/request", {"body": body}, "body must be a JSON object") for body in ([], "", 0, False, [1])],
        *[("GET", "/access/requirements", {"query": query}, "query and headers must be mappings") for query in ([], 0)],
        *[("GET", "/data/metadata", {"headers": headers}, "query and headers must be mappings") for headers in ([], "")],
    ],
    ids=[
        "empty-list-body", "empty-text-body", "zero-body", "false-body", "list-body",
        "empty-list-query", "zero-query", "empty-list-headers", "empty-text-headers",
    ],
)
def test_a_falsy_non_mapping_is_refused_as_malformed_not_read_as_empty(tmp_path, method, path, inputs, message):
    stack, service, api, token = service_stack(tmp_path)
    response = api.handle(method, path, **inputs)
    assert (response.status, response.body) == (400, {"error": message})


@pytest.mark.parametrize("cap", [30, 2**63, 10**19])
def test_a_cap_past_every_client_keeps_them_whole(tmp_path, cap):
    # A JSON integer has no bound, and numpy holds none past int64.
    assert [p.size for p in apply_filter(fleet_partitions(), DataFilter(max_samples_per_client=cap))] == [30] * 4
    stack, service, api, token = service_stack(tmp_path)
    response = api.handle(
        "POST",
        "/jobs",
        headers={"Authorization": f"Grant {token}"},
        body={"config": job_config().to_dict(), "dataFilter": {"maxSamplesPerClient": cap}},
    )
    assert response.status == 201
    assert service.run_next(node_registry=job_fleet()).state == "completed"


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
        st.sampled_from(["GET", "POST", "get", "PUT"]) | st.text(max_size=6) | JSON,
        st.sampled_from([path for _, path in ROUTES]) | st.text(max_size=12) | JSON,
    )
    headers = st.just({"Authorization": f"Grant {token}"}) | JSON | st.dictionaries(
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
