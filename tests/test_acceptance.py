"""Acceptance gate: one test per criterion, each reporting a pass/fail line.

Every test computes its verdict first, reports it, and only then asserts, so
the summary always carries one line per criterion even when something breaks.
"""

import dataclasses
import itertools
import json
import time
import tracemalloc
from collections import OrderedDict
from pathlib import Path

import numpy as np

import conftest
from fedgate.claims import sign_claim
from fedgate.clock import SimulatedClock
from fedgate.cli import main
from fedgate.fl import (
    FederationConfig,
    LossSpec,
    SyntheticSpec,
    generate_partitions,
    run_federation,
)
from fedgate.fl.data import as_fleet
from fedgate.fl.federation import aggregate, initial_model
from fedgate.access.issuance import verify_claim
from fedgate.ledger import Chain, load_chain, verify_chain_file
from fedgate.service import FaultEvent, JobExecutor, NodeRegistry
from fedgate.service.jobs import (
    DataFilter,
    JobQueue,
    JobSpec,
    wsjf_order,
)

from support import Stack, gradient, mean_loss, predict, read_metrics_csv, total_weighted_completion
from test_federation import centralized_gd_step, random_partitions


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number:02d} {name}: {status}"
    if detail:
        line += f" ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


# 1 ---------------------------------------------------------------------


def test_01_centralized_equivalence():
    rng = np.random.default_rng(10)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        kind = ("squared_error", "logistic")[trial % 2]
        n = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 17))
        spec = LossSpec(kind=kind, feature_dim=dim, bias=bool(rng.integers(0, 2)))
        config = FederationConfig(
            total_rounds=1,
            total_clients=n,
            subset_size=n,
            local_epochs=1,
            learning_rate=float(rng.uniform(0.01, 0.5)),
            loss=spec,
            rng_seed=int(rng.integers(0, 2**31)),
            weighting="proportional",
            initial_weights=tuple(rng.normal(size=spec.parameter_dim)),
        )
        parts = random_partitions(rng, n, dim, logistic=(kind == "logistic"))
        final = run_federation(config, as_fleet(parts))
        expected = centralized_gd_step(initial_model(config), parts, config)
        worst = max(worst, float(np.max(np.abs(final - expected))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 5.0
    report(1, "centralized equivalence", ok, f"worst delta {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


# 2 ---------------------------------------------------------------------


def test_02_desk_scale_convergence():
    started = time.perf_counter()
    spec = SyntheticSpec(
        n_clients=10,
        samples_per_client=200,
        feature_dim=2,
        separability=2.0,
        seed=20,
    )
    parts, _ = generate_partitions(spec)
    loss = LossSpec(kind="logistic", feature_dim=2)
    config = FederationConfig(
        total_rounds=50,
        total_clients=10,
        subset_size=5,
        local_epochs=5,
        learning_rate=0.1,
        loss=loss,
        rng_seed=20,
    )
    history = []
    run_federation(config, parts, observer=history.append)
    fed_accuracy = history[-1].train_accuracy

    pooled_x = np.vstack([p.features for p in parts])
    pooled_y = np.concatenate([p.labels for p in parts])
    weights = np.zeros(loss.parameter_dim)
    for _ in range(config.total_rounds * config.local_epochs):
        weights = weights - config.learning_rate * gradient(weights, pooled_x, pooled_y, loss)
    central_accuracy = float(np.mean((predict(weights, pooled_x, loss) >= 0.5) == pooled_y))
    elapsed = time.perf_counter() - started
    gap = abs(fed_accuracy - central_accuracy)
    ok = fed_accuracy >= 0.95 and gap <= 0.04 and elapsed < 30.0
    report(
        2,
        "desk-scale convergence",
        ok,
        f"federated {fed_accuracy:.3f}, centralized {central_accuracy:.3f}, {elapsed:.1f}s",
    )
    assert fed_accuracy >= 0.95
    assert gap <= 0.04
    assert elapsed < 30.0


# 3 ---------------------------------------------------------------------


def test_03_aggregation_properties():
    rng = np.random.default_rng(30)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        dim = int(rng.integers(1, 9))
        ids = [f"c{i:02d}" for i in range(n)]
        raw = rng.random(n) + 1e-3
        probs = raw / raw.sum()
        weights = dict(zip(ids, probs))
        updates = {cid: rng.normal(size=dim) for cid in ids}
        combined = aggregate(updates, weights)

        stacked = np.stack([updates[cid] for cid in ids])
        lo, hi = stacked.min(axis=0), stacked.max(axis=0)
        convex_ok = bool(np.all(combined >= lo - 1e-12) and np.all(combined <= hi + 1e-12))

        shuffled_ids = list(ids)
        rng.shuffle(shuffled_ids)
        permuted = aggregate(
            {cid: updates[cid] for cid in shuffled_ids},
            {cid: weights[cid] for cid in shuffled_ids},
        )
        permutation_ok = combined.tobytes() == permuted.tobytes()

        sum_ok = abs(sum(weights.values()) - 1.0) <= 1e-12
        if not (convex_ok and permutation_ok and sum_ok):
            failures += 1
    ok = failures == 0
    report(3, "aggregation properties on 1000 instances", ok, f"{failures} failures")
    assert failures == 0


# 4 ---------------------------------------------------------------------


def test_04_gradient_finite_differences():
    rng = np.random.default_rng(40)
    h = 1e-6
    worst = 0.0
    for kind in ("squared_error", "logistic"):
        for _ in range(100):
            dim = int(rng.integers(1, 7))
            spec = LossSpec(kind=kind, feature_dim=dim, bias=bool(rng.integers(0, 2)))
            n = int(rng.integers(2, 12))
            x = rng.normal(size=(n, dim))
            y = (
                (rng.random(n) > 0.5).astype(float)
                if kind == "logistic"
                else rng.normal(size=n)
            )
            w = rng.normal(size=spec.parameter_dim)
            analytic = gradient(w, x, y, spec)
            numeric = np.empty_like(analytic)
            for j in range(w.size):
                up, down = w.copy(), w.copy()
                up[j] += h
                down[j] -= h
                numeric[j] = (mean_loss(up, x, y, spec) - mean_loss(down, x, y, spec)) / (2 * h)
            scale = np.maximum(1.0, np.abs(analytic))
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / scale)))
    ok = worst <= 1e-5
    report(4, "gradient check both losses", ok, f"worst relative error {worst:.2e}")
    assert worst <= 1e-5


# 5 ---------------------------------------------------------------------


def test_05_ledger_bit_flips(tmp_path):
    clock = SimulatedClock(start=5_000)
    chain = Chain(clock=clock)
    for i in range(19):
        kind = ("did_registration", "access_grant", "access_denial", "deploy_contract")[
            i % 4
        ]
        chain.record(kind, {"step": i, "note": f"entry-{i}"}, f"did:efed:writer-{i}")
        clock.advance(3)
    assert chain.height == 19  # genesis + 19 appended blocks
    path = chain.write_chain(tmp_path / "chain.jsonl")
    pristine = path.read_bytes()
    ok_clean, _ = verify_chain_file(path)

    rng = np.random.default_rng(50)
    detected = 0
    target = tmp_path / "flipped.jsonl"
    for _ in range(500):
        flipped = bytearray(pristine)
        position = int(rng.integers(0, len(flipped)))
        flipped[position] ^= 1 << int(rng.integers(0, 8))
        target.write_bytes(bytes(flipped))
        tampered_ok, _ = verify_chain_file(target)
        if not tampered_ok:
            detected += 1
    ok = ok_clean and detected == 500
    report(5, "ledger tamper evidence", ok, f"{detected}/500 flips detected")
    assert ok_clean
    assert detected == 500


# 6 ---------------------------------------------------------------------


def test_06_claim_security():
    stack = Stack()
    subject = stack.register_actor("subject")
    rogue = stack.register_actor("rogue")
    now = stack.clock()

    def honest(i: int):
        return sign_claim(
            stack.issuer_actor.key,
            claim_type=f"credential-{i}",
            value=f"value-{i}",
            subject=subject.did,
            issuer=stack.issuer_actor.did,
            issued_at=now,
            expires_at=now + 1000,
        )

    honest_valid = sum(
        verify_claim(honest(i), now, stack.resolver, stack.trusted, OrderedDict())
        == (True, "valid")
        for i in range(100)
    )

    rng = np.random.default_rng(60)
    tampered_invalid = 0
    for i in range(100):
        claim = honest(i)
        attack = int(rng.integers(0, 4))
        if attack == 0:
            forged = dataclasses.replace(claim, value=claim.value + "-forged")
        elif attack == 1:
            forged = dataclasses.replace(claim, signature=honest(i + 500).signature)
        elif attack == 2:
            forged = dataclasses.replace(claim, expires_at=now + 10_000_000)
        else:
            forged = sign_claim(
                rogue.key,
                claim_type=claim.claim_type,
                value=claim.value,
                subject=subject.did,
                issuer=rogue.did,
                issued_at=now,
                expires_at=now + 1000,
            )
        valid, _reason = verify_claim(forged, now, stack.resolver, stack.trusted, OrderedDict())
        if not valid:
            tampered_invalid += 1
    ok = honest_valid == 100 and tampered_invalid == 100
    report(
        6,
        "claim security",
        ok,
        f"{honest_valid}/100 honest valid, {tampered_invalid}/100 forgeries rejected",
    )
    assert honest_valid == 100
    assert tampered_invalid == 100


# 7 ---------------------------------------------------------------------


def test_07_scheme_equivalence():
    from fedgate.ledger import ClaimPredicate, ClaimRequirement

    rng = np.random.default_rng(70)
    mismatches = 0
    orphaned = 0
    for trial in range(200):
        stack = Stack()
        claim_type = ("consortium_member", "data_steward")[int(rng.integers(0, 2))]
        predicate_kind = ("equals", "one_of", "present")[int(rng.integers(0, 3))]
        if predicate_kind == "equals":
            predicate = ClaimPredicate(kind="equals", value="yes")
        elif predicate_kind == "one_of":
            predicate = ClaimPredicate(kind="one_of", values=("yes", "provisional"))
        else:
            predicate = ClaimPredicate(kind="present")
        stack.deploy_policy(
            "fl-study", (ClaimRequirement(claim_type, predicate),)
        )
        user = stack.register_actor(f"user{trial}")
        if rng.random() < 0.75:
            issued_type = claim_type if rng.random() < 0.8 else "irrelevant"
            value = ("yes", "no", "provisional")[int(rng.integers(0, 3))]
            validity = int(rng.choice([10, 100, 10_000]))
            stack.issuer.issue(user.did, issued_type, value, validity)
        stack.clock.advance(int(rng.choice([0, 50, 20_000])))

        outcome_a = stack.request_a(user.did)
        outcome_b = stack.request_b(user.did)
        if (
            outcome_a.decision != outcome_b.decision
            or outcome_a.missing != outcome_b.missing
        ):
            mismatches += 1
        for outcome in (outcome_a, outcome_b):
            if outcome.tx_id is None:
                orphaned += 1
                continue
            matches = sum(
                1
                for block in stack.chain.blocks
                for tx in block.transactions
                if tx.tx_id == outcome.tx_id
            )
            if matches != 1:
                orphaned += 1
    ok = mismatches == 0 and orphaned == 0
    report(
        7,
        "scheme equivalence over 200 triples",
        ok,
        f"{mismatches} verdict mismatches, {orphaned} unmatched transactions",
    )
    assert mismatches == 0
    assert orphaned == 0


# 8 ---------------------------------------------------------------------


def test_08_flood_bound():
    stack = Stack()
    stack.deploy_membership_policy()
    legit = stack.register_actor("member")
    stack.issuer.issue(legit.did, "consortium_member", "yes", 1_000_000)
    start_height = stack.chain.height

    tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    flood_decisions = set()
    scheme_b_ok = False
    scheme_a_ok = False
    for i in range(10_000):
        if i % 100 == 0:
            stack.clock.advance(1)
        if i == 2_500:
            # pending table is saturated; the user-lookup path stays open
            outcome = stack.request_b(legit.did)
            scheme_b_ok = outcome.decision == "granted"
        if i == 5_000:
            # attacker pause: ttl reclaims the parked entries mid-flood
            stack.clock.advance(31)
            outcome = stack.request_a(legit.did)
            scheme_a_ok = outcome.decision == "granted"
        result = stack.request_a(f"did:efed:ghost{i}")
        flood_decisions.add(result.decision)
        assert result.tx_id is None
    current, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    growth_mb = (current - baseline) / 1e6

    peak = stack.gateway.pending.peak_size
    on_chain_writes = stack.chain.height - start_height
    ok = (
        peak <= 256
        and growth_mb < 10.0
        and scheme_a_ok
        and scheme_b_ok
        and flood_decisions <= {"denied", "rejected-capacity"}
        and on_chain_writes == 2  # the two legitimate grants, nothing else
    )
    report(
        8,
        "flood bound 10k requests",
        ok,
        f"pending peak {peak}, memory +{growth_mb:.2f}MB, legit A/B granted "
        f"{scheme_a_ok}/{scheme_b_ok}",
    )
    assert peak <= 256
    assert growth_mb < 10.0
    assert scheme_a_ok and scheme_b_ok
    assert flood_decisions <= {"denied", "rejected-capacity"}
    assert on_chain_writes == 2


# 9 ---------------------------------------------------------------------


def test_09_wsjf_optimality():
    rng = np.random.default_rng(90)
    config = FederationConfig(
        total_rounds=1,
        total_clients=1,
        subset_size=1,
        local_epochs=1,
        learning_rate=0.1,
        loss=LossSpec(kind="logistic", feature_dim=2),
    )
    suboptimal = 0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        jobs = [
            JobSpec(
                holder="did:efed:t",
                config=config,
                estimated_runtime=float(rng.uniform(0.5, 20.0)),
                priority_weight=float(rng.uniform(0.1, 10.0)),
                data_filter=DataFilter(),
            )
            for _ in range(n)
        ]
        ours = total_weighted_completion(jobs, wsjf_order(jobs))
        best = min(
            total_weighted_completion(jobs, list(perm))
            for perm in itertools.permutations(range(n))
        )
        if ours > best + 1e-9:
            suboptimal += 1
    ok = suboptimal == 0
    report(9, "scheduler optimality 50 draws", ok, f"{suboptimal} suboptimal orders")
    assert suboptimal == 0


# 10 --------------------------------------------------------------------


def test_10_failover_determinism(tmp_path):
    spec = SyntheticSpec(
        n_clients=4, samples_per_client=30, feature_dim=2, separability=2.0, seed=5
    )
    parts, _ = generate_partitions(spec)
    config = FederationConfig(
        total_rounds=20,
        total_clients=4,
        subset_size=2,
        local_epochs=1,
        learning_rate=0.5,
        loss=LossSpec(kind="logistic", feature_dim=2),
        rng_seed=9,
    )

    def run(name, faults=(), standby_clients=0):
        executor = JobExecutor(parts, tmp_path / name)
        record = JobQueue().submit(
            JobSpec(
                holder="did:efed:t",
                config=config,
                estimated_runtime=1.0,
                priority_weight=1.0,
                data_filter=DataFilter(),
            ),
            now=0,
        )
        nodes = NodeRegistry.provision(
            [p.client_id for p in parts], standby_clients, faults=faults
        )
        executor.run(record, node_registry=nodes)
        return record

    reference = run("reference")
    swapped = run("swapped", [FaultEvent(5, "node-001")], standby_clients=1)
    excluded = run("excluded", [FaultEvent(5, "node-001")])

    ref_weights = json.loads(Path(reference.model_address).read_text())["weights"]
    swap_weights = json.loads(Path(swapped.model_address).read_text())["weights"]
    bitwise_equal = (
        np.array(ref_weights).tobytes() == np.array(swap_weights).tobytes()
    )

    later_rounds = [
        m
        for m in read_metrics_csv(excluded.metrics_address)
        if m.round_index >= 5
    ]
    never_selected = all("001" not in m.selected_clients for m in later_rounds)
    ok = bitwise_equal and never_selected and swapped.state == "completed"
    report(
        10,
        "failover determinism",
        ok,
        f"standby bitwise equal {bitwise_equal}, exclusion honored {never_selected}",
    )
    assert bitwise_equal
    assert never_selected


# 11 --------------------------------------------------------------------


def test_11_end_to_end_demo(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "demo"
    code = main(["demo", "--out", str(out), "--seed", "7"])
    elapsed = time.perf_counter() - started

    chain_ok, _ = verify_chain_file(out / "chain.jsonl")
    summary = json.loads((out / "summary.json").read_text())
    model_exists = (out / summary["job"]["model"]).exists()
    denied = [d for d in summary["decisions"] if d["decision"] == "denied"]
    denial_on_chain = False
    if denied:
        blocks = load_chain(out / "chain.jsonl")
        denial_on_chain = any(
            tx.tx_id == denied[0]["txId"] and tx.kind == "access_denial"
            for block in blocks
            for tx in block.transactions
        )
    ok = (
        code == 0
        and chain_ok
        and model_exists
        and len(denied) == 1
        and denial_on_chain
        and elapsed < 60.0
    )
    report(
        11,
        "end-to-end demo",
        ok,
        f"exit {code}, chain ok {chain_ok}, {elapsed:.1f}s",
    )
    assert code == 0
    assert chain_ok
    assert model_exists
    assert denial_on_chain
    assert elapsed < 60.0
