"""The benchmark's traffic: one closed-loop client driving one desk.

Three kinds of user meet the desk. Members ask for access under both
schemes and redeem their grants (``AccessTraffic``); an attacker floods the
contract-lookup path with identifiers that never resolve while members keep
probing (``FloodTraffic``); a data scientist runs FedAvg job cycles
(``TrainTraffic``). Each class builds its desk in ``__init__`` (that is the
timed set-up) and then serves a fixed amount of work in ``run``, checking
every reply against an outcome the benchmark predicts on its own.

Only program calls are timed, one call at a time with ``perf_counter``; the
benchmark's own bookkeeping (nonces, expected outcomes, checks) stays out
of every timing. Between calls the traffic ticks a ``Pace`` so that every
timing can be reported paced as well as raw (see ``pace.py``).
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from desk import (
    ACCESS_GATEWAY,
    FLOOD_GATEWAY,
    LONG_VALIDITY,
    MEMBERSHIP,
    SERVICE,
    SMALL_FLEET,
    build_desk,
    derive,
    fleet,
)
from fedgate.ledger import load_chain, verify_chain_file
from fedgate.service import NodeRegistry
from pace import BURST, Pace, Samples

CONTRACT_LOOKUP = "contract_lookup"
USER_LOOKUP = "user_lookup"
# Zero initial weights under logistic loss give every sample loss log 2.
INITIAL_LOGISTIC_LOSS = math.log(2.0)


@dataclass
class Tally:
    """Operations attempted and failed, plus whole-run check failures."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        """Count one operation; ``ok`` says whether its outcome was the expected one."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        """A whole-run output check."""
        if not ok:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


@dataclass
class PhaseResult:
    """What one traffic run measured: paced metrics, the same metrics raw,
    counts and artifact digests."""

    metrics: dict[str, float]
    raw: dict[str, float]
    details: dict[str, str]
    counts: dict[str, float]
    digests: dict[str, str]


def latency_metrics(prefix: str, samples: Samples, pace: Pace) -> tuple[dict, dict, dict]:
    """Paced and raw p50 in microseconds, and a note with the sample count
    and the p99, which has at least ten samples beyond it (n >= 1000).

    The p99 is reported but not a benchmark metric: host stalls of several
    milliseconds hit more than 1% of calls for minutes at a time on a shared
    machine, and moved it by up to 4x between runs.
    """
    paced, raw = samples.paced(pace), samples.raw()
    name = f"{prefix}_p50_us"
    note = (
        f"n={len(samples)}; p99 {np.percentile(paced, 99) * 1e6:.6g} us, "
        f"raw {np.percentile(raw, 99) * 1e6:.6g} us"
    )
    return {name: np.percentile(paced, 50) * 1e6}, {name: np.percentile(raw, 50) * 1e6}, {name: note}


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def audit(desk, path: Path, tally: Tally, samples: Samples | None = None, pace: Pace | None = None) -> None:
    """Verify a written chain file and load it back, and check both against
    the in-memory chain it was written from.

    With a pace, the kernel runs around the audit and between its two
    steps, so the audit is paced from inside; ``Pace.paced`` takes those
    runs out of its time.
    """
    tick = pace.calibrate if pace is not None else (lambda runs=1: None)
    tick(BURST)
    start = perf_counter()
    ok, bad_height = verify_chain_file(path)
    tick()
    blocks = load_chain(path)
    if samples is not None:
        samples.add(start, perf_counter() - start)
    tick(BURST)
    tally.check(ok, f"{path.name} fails verification at height {bad_height}")
    tally.check(
        [b.hash for b in blocks] == [b.hash for b in desk.chain.blocks[: len(blocks)]],
        f"load_chain of {path.name} disagrees with the in-memory chain",
    )


class AccessTraffic:
    """Members request grants under both schemes while claims are written.

    Most members hold a membership claim, some hold none, and a quarter of
    the claims are short-lived so they expire under the simulated clock.
    During the run, every ``CLAIM_EVERY`` requests one member without a
    valid claim receives a new one, so document versions keep moving
    under the reads. The expected decision for every request follows from
    this claim schedule alone.

    The chain is written out once ``AUDIT_AT`` decisions are sealed, and
    that file, always the same length for a seed, is audited every
    ``AUDIT_EVERY`` requests after, ``AUDIT_REPEATS`` times in all, so the
    audits sample the whole run rather than one moment of it.
    """

    MEMBERS = 300
    CLAIMED_SHARE = 0.8
    SHORT_SHARE = 0.25
    SHORT_VALIDITY = (60, 900)
    REQUESTS_PER_SIM_SECOND = 10
    CLAIM_EVERY = 20
    AUDIT_AT = 1000
    AUDIT_EVERY = 250
    AUDIT_REPEATS = 5
    MIN_REQUESTS = AUDIT_AT + AUDIT_EVERY * (AUDIT_REPEATS - 1)

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.rng = random.Random(int.from_bytes(derive(seed, "access", 0, 8), "big"))
        self.desk = build_desk(
            seed,
            gateway=ACCESS_GATEWAY,
            partitions=fleet(seed, SMALL_FLEET),
            out_dir=out_dir / "artifacts",
        )
        self.members = [self.desk.register("member", i) for i in range(self.MEMBERS)]
        self.claims: dict[str, list[tuple[int, int]]] = {did: [] for did in self.members}
        for did in self.members:
            if self.rng.random() < self.CLAIMED_SHARE:
                self._issue(did)

    def _issue(self, did: str, busy: Samples | None = None) -> None:
        if self.rng.random() < self.SHORT_SHARE:
            validity = self.rng.randint(*self.SHORT_VALIDITY)
        else:
            validity = LONG_VALIDITY
        now = self.desk.clock()
        start = perf_counter()
        self.desk.issuer.issue(did, MEMBERSHIP, "yes", validity)
        if busy is not None:
            busy.add(start, perf_counter() - start)
        self.claims[did].append((now, now + validity))

    def _holds(self, did: str, now: int) -> bool:
        return any(issued <= now < expires for issued, expires in self.claims[did])

    def run(self, requests: int, tally: Tally, pace: Pace) -> PhaseResult:
        requests = max(requests, self.MIN_REQUESTS)
        desk, api, clock = self.desk, self.desk.api, self.desk.clock
        height_before = desk.chain.height
        latencies, busy, audits = Samples(), Samples(), Samples()
        checkpoint = self.out_dir / "audit.jsonl"
        evaluated = issued = granted = 0
        for i in range(requests):
            pace.tick()
            if i and i % self.REQUESTS_PER_SIM_SECOND == 0:
                clock.advance(1)
            now = clock()
            if i % self.CLAIM_EVERY == self.CLAIM_EVERY - 1:
                lacking = [d for d in self.members if not self._holds(d, now)]
                if lacking:
                    self._issue(self.rng.choice(lacking), busy)
                    issued += 1
                    tally.expect(True, "claim issuance")
            did = self.rng.choice(self.members)
            scheme = (CONTRACT_LOOKUP, USER_LOOKUP)[i % 2]
            expect_grant = self._holds(did, now)
            body = {
                "requester": did,
                "service": SERVICE,
                "scheme": scheme,
                "nonce": desk.nonce().hex(),
            }
            lookup_nonce = desk.nonce() if scheme == USER_LOOKUP else None
            start = perf_counter()
            if lookup_nonce is not None:
                lookup = desk.gateway.user_lookup(did, lookup_nonce)
                if lookup.ok:
                    body["attestation"] = lookup.attestation.to_dict()
            response = api.handle("POST", "/access/request", body=body)
            elapsed = perf_counter() - start
            latencies.add(start, elapsed)
            busy.add(start, elapsed)
            decision = response.body.get("decision")
            if expect_grant:
                ok = response.status == 200 and decision == "granted"
            else:
                ok = (
                    response.status == 403
                    and decision == "denied"
                    and response.body.get("missing") == [MEMBERSHIP]
                )
            ok = ok and "txId" in response.body
            tally.expect(ok, f"request {i} by {did} ({scheme}): {response.status} {response.body}")
            evaluated += 1
            if ok and expect_grant:
                granted += 1
                headers = {"Authorization": f"Grant {response.body['grant']['token']}"}
                start = perf_counter()
                redeemed = api.handle("GET", "/data/metadata", headers=headers)
                busy.add(start, perf_counter() - start)
                tally.expect(
                    redeemed.status == 200 and redeemed.body.get("service") == SERVICE,
                    f"grant redemption {i}: {redeemed.status}",
                )
            if evaluated == self.AUDIT_AT:
                desk.chain.write_chain(checkpoint)
            since = evaluated - self.AUDIT_AT
            if since >= 0 and since % self.AUDIT_EVERY == 0 and len(audits) < self.AUDIT_REPEATS:
                audit(desk, checkpoint, tally, audits, pace)

        tally.check(
            desk.chain.height == height_before + evaluated + issued,
            f"chain grew by {desk.chain.height - height_before}, "
            f"expected {evaluated} sealed decisions + {issued} claim writes",
        )
        tally.check(len(audits) == self.AUDIT_REPEATS, f"{len(audits)} audits ran")
        final_chain = desk.chain.write_chain(self.out_dir / "chain.jsonl")
        audit(desk, final_chain, tally)
        paced, raw, details = latency_metrics("access", latencies, pace)
        paced.update(access_per_s=requests / busy.paced(pace).sum(), audit_s=np.median(audits.paced(pace)))
        raw.update(access_per_s=requests / busy.raw().sum(), audit_s=np.median(audits.raw()))
        return PhaseResult(
            metrics=paced,
            raw=raw,
            details={
                **details,
                "access_per_s": f"{requests} decisions, {granted} granted, {issued} claims written",
                "audit_s": (
                    f"median of {len(audits)} audits of the chain at {self.AUDIT_AT} decisions, "
                    f"one every {self.AUDIT_EVERY} requests"
                ),
            },
            counts={
                "decisions": evaluated,
                "ledger.height": desk.chain.height,
                "access.pending.peak": desk.gateway.pending.peak_size,
            },
            digests={"chain.jsonl": file_digest(final_chain)},
        )


class PendingModel:
    """The documented pending-table rule, kept by the benchmark as an oracle.

    At most ``capacity`` live entries; an entry dies ``ttl`` seconds after
    it was parked, and every insertion sweeps first.
    """

    def __init__(self, capacity: int, ttl: int):
        self.capacity = capacity
        self.ttl = ttl
        self.parked: deque[int] = deque()

    def has_room(self, now: int) -> bool:
        while self.parked and now - self.parked[0] >= self.ttl:
            self.parked.popleft()
        return len(self.parked) < self.capacity


class FloodTraffic:
    """Ghost identifiers flood contract lookup while members keep probing.

    Ghosts arrive at ``GHOSTS_PER_SIM_SECOND``; every ``probe_every`` ghosts
    one member probes, alternating user lookup and contract lookup. Each
    member is probed rarely enough that no rate limit refuses it. Ghosts
    park in the pending table until the ttl sweep reclaims them; user
    lookup never touches that table, so its probes must all be granted,
    while a contract-lookup probe is granted only when the table has room.
    """

    MEMBERS = 128
    GHOSTS_PER_SIM_SECOND = 100

    def __init__(self, seed: int, out_dir: Path, probe_every: int):
        self.out_dir = out_dir
        self.probe_every = probe_every
        self.desk = build_desk(
            seed,
            gateway=FLOOD_GATEWAY,
            partitions=fleet(seed, SMALL_FLEET),
            out_dir=out_dir / "artifacts",
        )
        self.members = [self.desk.register("member", i) for i in range(self.MEMBERS)]
        for did in self.members:
            self.desk.issuer.issue(did, MEMBERSHIP, "yes", LONG_VALIDITY)
        self.model = PendingModel(
            FLOOD_GATEWAY["pending_capacity"], FLOOD_GATEWAY["pending_ttl_seconds"]
        )
        # Enough ghosts for 1000 user-lookup probes.
        self.min_ghosts = 2000 * probe_every

    def run(self, ghosts: int, tally: Tally, pace: Pace) -> PhaseResult:
        ghosts = max(ghosts, self.min_ghosts)
        desk, api, clock = self.desk, self.desk.api, self.desk.clock
        height_before = desk.chain.height
        ghost_times, probe_latencies = Samples(), Samples()
        probes = sealed = capacity_refusals = 0
        for i in range(ghosts):
            pace.tick()
            if i and i % self.GHOSTS_PER_SIM_SECOND == 0:
                clock.advance(1)
            if i % self.probe_every == 0:
                sealed += self._probe(probes, probe_latencies, tally)
                probes += 1
            room = self.model.has_room(clock())
            body = {
                "requester": f"did:efed:ghost-{i}",
                "service": SERVICE,
                "scheme": CONTRACT_LOOKUP,
                "nonce": desk.nonce().hex(),
            }
            start = perf_counter()
            response = api.handle("POST", "/access/request", body=body)
            ghost_times.add(start, perf_counter() - start)
            if room:
                self.model.parked.append(clock())
                ok = response.status == 403 and response.body.get("reason") == "unresolvable"
            else:
                capacity_refusals += 1
                ok = response.status == 503
            tally.expect(ok and "txId" not in response.body, f"ghost {i}: {response.status} {response.body}")

        pending = desk.gateway.pending
        tally.check(
            pending.peak_size <= pending.capacity,
            f"pending peak {pending.peak_size} exceeds capacity {pending.capacity}",
        )
        tally.check(
            desk.chain.height - height_before == sealed,
            f"chain grew by {desk.chain.height - height_before}, "
            f"but contracts evaluated {sealed} probes",
        )
        members = set(self.members)
        tally.check(
            all(
                tx.submitter in members
                for block in desk.chain.blocks[height_before + 1 :]
                for tx in block.transactions
            ),
            "a ghost request was sealed on the ledger",
        )
        final_chain = desk.chain.write_chain(self.out_dir / "chain.jsonl")
        audit(desk, final_chain, tally)
        paced, raw, details = latency_metrics("probe", probe_latencies, pace)
        paced["flood_per_s"] = ghosts / ghost_times.paced(pace).sum()
        raw["flood_per_s"] = ghosts / ghost_times.raw().sum()
        return PhaseResult(
            metrics=paced,
            raw=raw,
            details={
                **details,
                "probe_p50_us": f"user-lookup probes, {details['probe_p50_us']}",
                "flood_per_s": (
                    f"{ghosts} ghosts, {capacity_refusals} refused at capacity, "
                    f"pending peak {pending.peak_size}/{pending.capacity}"
                ),
            },
            counts={
                "decisions": sealed,
                "ledger.height": desk.chain.height,
                "access.pending.peak": pending.peak_size,
            },
            digests={"chain.jsonl": file_digest(final_chain)},
        )

    def _probe(self, index: int, latencies: Samples, tally: Tally) -> int:
        """One member probe; returns 1 when a contract evaluated (and sealed) it."""
        desk = self.desk
        did = self.members[(index // 2) % self.MEMBERS]
        scheme = (USER_LOOKUP, CONTRACT_LOOKUP)[index % 2]
        body = {"requester": did, "service": SERVICE, "scheme": scheme, "nonce": desk.nonce().hex()}
        if scheme == USER_LOOKUP:
            lookup_nonce = desk.nonce()
            start = perf_counter()
            lookup = desk.gateway.user_lookup(did, lookup_nonce)
            if lookup.ok:
                body["attestation"] = lookup.attestation.to_dict()
            response = desk.api.handle("POST", "/access/request", body=body)
            latencies.add(start, perf_counter() - start)
            expect_grant = True
        else:
            expect_grant = self.model.has_room(desk.clock())
            response = desk.api.handle("POST", "/access/request", body=body)
        if expect_grant:
            ok = response.status == 200 and response.body.get("decision") == "granted"
        else:
            ok = response.status == 503
        tally.expect(ok, f"probe {index} by {did} ({scheme}): {response.status} {response.body}")
        return int(expect_grant)


# Job shapes. ``clients`` below the fleet size makes each job pick that
# many partitions through its data filter.
WIDE = {
    "clients": 1000,
    "totalRounds": 20,
    "subsetSize": 50,
    "localEpochs": 2,
    "learningRate": 0.5,
    "batchMode": "full",
    "batchSize": None,
}
DEEP = {
    "clients": 100,
    "totalRounds": 20,
    "subsetSize": 20,
    "localEpochs": 5,
    "learningRate": 0.05,
    "batchMode": "minibatch",
    "batchSize": 10,
}


class PacedNodeRegistry(NodeRegistry):
    """The node registry the executor would provision for a job, whose
    once-per-round eligibility query also ticks the pace, so that a job,
    one long call, is paced round by round."""

    pace: Pace

    def eligible_clients(self, round_index: int, all_ids: frozenset[str]) -> frozenset[str]:
        self.pace.tick()
        return super().eligible_clients(round_index, all_ids)


class TrainTraffic:
    """A data scientist runs FedAvg job cycles over the consortium fleet.

    One cycle is ``GET /data/metadata``, ``POST /jobs``, ``run_next`` and
    then ``GET /jobs/{id}``, ``/metrics`` and ``/model``. Each job gets its
    own rng seed and, for partial-fleet shapes, its own client set: every
    tenth client from an offset that steps with the job, so each set spans
    the fleet's label skew evenly.
    """

    def __init__(self, seed: int, out_dir: Path, shape: dict):
        self.seed = seed
        self.shape = shape
        partitions = fleet(seed)
        self.client_ids = sorted(p.client_id for p in partitions)
        self.feature_dim = partitions[0].feature_dim
        self.desk = build_desk(seed, gateway={}, partitions=partitions, out_dir=out_dir / "artifacts")
        scientist = self.desk.register("scientist", 0)
        self.desk.issuer.issue(scientist, MEMBERSHIP, "yes", LONG_VALIDITY)
        response = self.desk.api.handle(
            "POST",
            "/access/request",
            body={
                "requester": scientist,
                "service": SERVICE,
                "scheme": CONTRACT_LOOKUP,
                "nonce": self.desk.nonce().hex(),
            },
        )
        if response.status != 200:
            raise RuntimeError(f"scientist was not granted access: {response.body}")
        self.headers = {"Authorization": f"Grant {response.body['grant']['token']}"}

    def _job_body(self, index: int) -> tuple[dict, list[str]]:
        shape = self.shape
        config = {
            "totalRounds": shape["totalRounds"],
            "totalClients": shape["clients"],
            "subsetSize": shape["subsetSize"],
            "localEpochs": shape["localEpochs"],
            "learningRate": shape["learningRate"],
            "loss": {"kind": "logistic", "featureDim": self.feature_dim, "bias": True},
            "rngSeed": int.from_bytes(derive(self.seed, "job", index, 8), "big"),
            "batchMode": shape["batchMode"],
            "batchSize": shape["batchSize"],
        }
        body = {"config": config, "estimatedRuntime": 60.0, "priorityWeight": 1.0}
        clients = self.client_ids
        if shape["clients"] < len(clients):
            stride = len(clients) // shape["clients"]
            clients = clients[index % stride :: stride][: shape["clients"]]
            body["dataFilter"] = {"clientIds": clients}
        return body, clients

    def run(self, jobs: int, tally: Tally, pace: Pace) -> PhaseResult:
        jobs = max(jobs, 1)
        desk, api, headers = self.desk, self.desk.api, self.headers
        rounds_target = self.shape["totalRounds"]
        cycles, executor = Samples(), Samples()
        rounds = 0
        final_losses: list[float] = []
        digests: dict[str, str] = {}
        for j in range(jobs):
            desk.clock.advance(1)
            body, clients = self._job_body(j)
            nodes = PacedNodeRegistry.provision(clients)
            nodes.pace = pace
            pace.calibrate(BURST)
            start = perf_counter()
            meta = api.handle("GET", "/data/metadata", headers=headers)
            submit = api.handle("POST", "/jobs", headers=headers, body=body)
            before_run = perf_counter()
            record = desk.service.run_next(node_registry=nodes)
            after_run = perf_counter()
            job_id = submit.body.get("jobId")
            status = api.handle("GET", f"/jobs/{job_id}", headers=headers)
            metrics = api.handle("GET", f"/jobs/{job_id}/metrics", headers=headers)
            model = api.handle("GET", f"/jobs/{job_id}/model", headers=headers)
            cycles.add(start, perf_counter() - start)
            executor.add(before_run, after_run - before_run)
            pace.calibrate(BURST)

            tally.expect(
                meta.status == 200 and len(meta.body["clients"]) == len(self.client_ids),
                f"job {j} metadata: {meta.status}",
            )
            tally.expect(submit.status == 201, f"job {j} submit: {submit.status} {submit.body}")
            tally.expect(record is not None and record.job_id == job_id, f"job {j} was not the one run")
            executed = status.body.get("roundsExecuted", 0) if status.status == 200 else 0
            rounds += executed
            tally.expect(
                status.status == 200
                and status.body.get("state") == "completed"
                and executed == rounds_target,
                f"job {j} ended {status.body.get('state')} after {executed}/{rounds_target} rounds "
                f"({status.body.get('cause')})",
            )
            csv_rows = metrics.body.strip().splitlines()[1:] if metrics.status == 200 else []
            tally.expect(
                len(csv_rows) == rounds_target,
                f"job {j} metrics: {metrics.status}, {len(csv_rows)} rows",
            )
            final_loss = model.body.get("finalLoss") if model.status == 200 else None
            tally.expect(
                final_loss is not None and final_loss < INITIAL_LOGISTIC_LOSS,
                f"job {j} final loss {final_loss} not below initial {INITIAL_LOGISTIC_LOSS:.4f}",
            )
            if final_loss is not None:
                final_losses.append(final_loss)
            if record is not None and record.model_address:
                digests[f"{job_id}/model.json"] = file_digest(Path(record.model_address))

        loss = float(np.median(final_losses)) if final_losses else math.nan
        return PhaseResult(
            metrics={
                "rounds_per_s": rounds / executor.paced(pace).sum(),
                "job_s": np.median(cycles.paced(pace)),
                "final_loss": loss,
            },
            raw={
                "rounds_per_s": rounds / executor.raw().sum(),
                "job_s": np.median(cycles.raw()),
                "final_loss": loss,
            },
            details={
                "rounds_per_s": f"{rounds} rounds in {jobs} jobs, executor time only",
                "job_s": f"median job cycle, n={len(cycles)}",
                "final_loss": f"median over {len(final_losses)} jobs",
            },
            counts={
                "decisions": 0,
                "ledger.height": desk.chain.height,
                "access.pending.peak": desk.gateway.pending.peak_size,
            },
            digests=digests,
        )
