"""End-to-end desk scenario: identity setup, policy, access, one training job.

`run_demo` builds the shared desk (``fedgate.desk.build_desk``) and an event
log that mirrors every block of the desk's chain, then plays the story
of a small consortium: data owners, issuers and users register identifiers,
an owner deploys the access policy, an attestor issues membership claims,
each user walks one of the two authentication schemes, and whoever holds a
grant token submits a training job. Everything is driven by a simulated
clock and derived from one seed, so two runs with the same configuration
produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .access import SCHEME_CONTRACT_LOOKUP, SCHEME_USER_LOOKUP
from .canonical import canonical_json_bytes
from .clock import SimulatedClock
from .desk import MEMBERSHIP_CLAIM, Actor, build_desk
from .errors import ValidationError, from_camel_keys
from .fl import FederationConfig, LossSpec, SyntheticSpec, load_partitions, write_dataset
from .fl.config import _integer, _real
from .ledger import Chain, verify_chain_file
from .service import FaultEvent, FlaasService, NodeRegistry, ServiceApi

DEFAULT_FEDERATION = FederationConfig(
    total_rounds=8,
    total_clients=3,
    subset_size=2,
    local_epochs=2,
    learning_rate=0.5,
    loss=LossSpec(kind="logistic", feature_dim=2),
    rng_seed=7,
)


class EventLog:
    """Append-only record of everything a scenario does, one entry per step.

    The log mirrors ``chain``: before each entry, and before it is written,
    it adds one ``ledger-write`` entry for each block sealed since, stamped
    with the block time, so the log carries enough to rebuild the ledger
    (see ``replay_ledger``).
    """

    def __init__(self, clock: SimulatedClock, chain: Chain):
        self._clock = clock
        self._chain = chain
        self._mirrored = chain.height
        self.entries: list[dict] = []

    def _mirror_chain(self) -> None:
        blocks = self._chain.blocks
        for block in blocks[self._mirrored + 1 :]:
            (tx,) = block.transactions
            self.entries.append(
                {
                    "at": block.timestamp,
                    "event": "ledger-write",
                    "kind": tx.kind,
                    "payload": json.loads(tx.payload),
                    "submitter": tx.submitter,
                    "txId": tx.tx_id,
                }
            )
        self._mirrored = len(blocks) - 1

    def emit(self, event: str, **fields) -> None:
        self._mirror_chain()
        self.entries.append({"at": self._clock(), "event": event, **fields})

    def write(self, path: Path) -> Path:
        self._mirror_chain()
        path = Path(path)
        with path.open("wb") as fh:
            for entry in self.entries:
                fh.write(canonical_json_bytes(entry) + b"\n")
        return path


_INTEGER_FIELDS = (
    ("issuers", 1),
    ("users", 0),
    ("qualified_users", 0),
    ("samples_per_client", 1),
    ("standby_clients", 0),
    ("standby_servers", 0),
    ("seed", None),
    ("start_time", 0),
)


@dataclass(frozen=True)
class ScenarioConfig:
    """One runnable end-to-end story: who exists, how they authenticate,
    what gets trained, and which nodes die when. One data owner hosts each
    of the federation's ``total_clients`` partitions."""

    issuers: int = 1
    users: int = 2
    qualified_users: int = 1
    scheme: str = SCHEME_CONTRACT_LOOKUP
    federation: FederationConfig = DEFAULT_FEDERATION
    samples_per_client: int = 40
    separability: float = 2.0
    label_skew: float = 0.0
    fault_schedule: tuple[FaultEvent, ...] = ()
    standby_clients: int = 0
    standby_servers: int = 0
    seed: int = 7
    start_time: int = 1_000_000
    service: str = "fl-study"
    out_dir: str = "demo-out"

    def __post_init__(self) -> None:
        for name, minimum in _INTEGER_FIELDS:
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        for name in ("separability", "label_skew"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.qualified_users > self.users:
            raise ValidationError("qualified_users must lie in [0, users]")
        # run_demo steps the clock once per registration, claim and access
        # request, and once each for the deploy and the dataset. Every time it
        # stamps, up to the job's at the last step, must lie in [0, 2**64).
        steps = self.federation.total_clients + self.issuers + 2 * self.users + self.qualified_users + 2
        if self.start_time + steps >= 2**64:
            raise ValidationError(
                f"start_time plus the demo's {steps} clock steps must lie below 2**64, "
                f"got {self.start_time}"
            )
        if self.scheme not in (SCHEME_CONTRACT_LOOKUP, SCHEME_USER_LOOKUP):
            raise ValidationError(f"unknown scheme {self.scheme!r}")
        if not isinstance(self.service, str) or not self.service:
            raise ValidationError(f"service must be a non-empty string, got {self.service!r}")
        for event in self.fault_schedule:
            if event.round_index > self.federation.total_rounds:
                raise ValidationError(
                    f"fault at round {event.round_index} beyond T={self.federation.total_rounds}"
                )

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        def faults(events) -> tuple[FaultEvent, ...]:
            return tuple(from_camel_keys(FaultEvent, e, "fault event") for e in events)

        return from_camel_keys(
            cls, data, "scenario config", federation=FederationConfig.from_dict, fault_schedule=faults
        )


@dataclass(frozen=True)
class DemoResult:
    exit_code: int
    out_dir: Path
    chain_path: Path
    events_path: Path
    summary_path: Path
    decisions: tuple[dict, ...]
    job_state: str | None
    model_path: Path | None


def run_demo(config: ScenarioConfig) -> DemoResult:
    """Run the whole story and drop its artifacts in ``config.out_dir``.

    Exit code 0 means the scenario played out exactly as configured: every
    claimed user got in, every unclaimed user was turned away on-chain, the
    training job reached a healthy terminal state, and the ledger verifies.
    Exit code 1 flags a domain failure (no grants issued, job failed, chain
    broken); validation problems raise and are mapped to 2 by the CLI.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    clock = SimulatedClock(start=config.start_time)
    trusted = frozenset(f"did:efed:issuer-{i}" for i in range(config.issuers))
    desk = build_desk(config.seed, clock, trusted)
    log = EventLog(clock, desk.chain)
    log.emit(
        "scenario-start",
        seed=config.seed,
        scheme=config.scheme,
        startTime=config.start_time,
    )

    def register(role: str, index: int) -> Actor:
        actor = desk.register(f"{role}-{index}", desk.keypair(role, index))
        log.emit("did-registered", did=actor.did, role=role)
        clock.advance(1)
        return actor

    owners = [register("owner", i) for i in range(config.federation.total_clients)]
    issuers = [register("issuer", i) for i in range(config.issuers)]
    users = [register("user", i) for i in range(config.users)]

    contract = desk.deploy_policy(config.service, owners[0])
    log.emit("contract-deployed", contractId=contract.contract_id, service=config.service)
    clock.advance(1)

    claim_issuers = [desk.claim_issuer(actor) for actor in issuers]
    for i in range(config.qualified_users):
        subject = users[i].did
        issuer = claim_issuers[i % len(claim_issuers)]
        issuer.issue(subject, MEMBERSHIP_CLAIM, "yes", validity_seconds=86_400)
        log.emit("claim-issued", issuer=issuer.did, subject=subject)
        clock.advance(1)

    data_dir = out_dir / "data"
    spec = SyntheticSpec(
        n_clients=config.federation.total_clients,
        samples_per_client=config.samples_per_client,
        feature_dim=config.federation.loss.feature_dim,
        separability=config.separability,
        seed=config.seed,
        label_skew=config.label_skew,
    )
    write_dataset(spec, data_dir)
    partitions = load_partitions(data_dir)
    nodes = NodeRegistry.provision(
        [p.client_id for p in partitions],
        config.standby_clients,
        config.standby_servers,
        config.fault_schedule,
    )
    log.emit("dataset-written", clients=len(partitions), directory="data")
    clock.advance(1)

    service = FlaasService(
        desk.gateway, partitions, out_dir / "artifacts", clock, service_name=config.service
    )
    api = ServiceApi(desk.gateway, service, clock)

    decisions: list[dict] = []
    token: str | None = None
    for did in [user.did for user in users]:
        body = {
            "requester": did,
            "service": config.service,
            "scheme": config.scheme,
            "nonce": desk.nonce().hex(),
        }
        if config.scheme == SCHEME_USER_LOOKUP:
            lookup = desk.gateway.user_lookup(did, desk.nonce())
            if lookup.ok:
                body["attestation"] = lookup.attestation.to_dict()
        response = api.handle("POST", "/access/request", body=body)
        decisions.append(
            {
                "did": did,
                "decision": response.body["decision"],
                "missing": response.body.get("missing", []),
                "txId": response.body.get("txId"),
            }
        )
        log.emit("access-request", requester=did, decision=response.body["decision"])
        if response.body["decision"] == "granted" and token is None:
            token = response.body["grant"]["token"]
        clock.advance(1)

    job_record = None
    if token is not None:
        submit = api.handle(
            "POST",
            "/jobs",
            headers={"Authorization": f"Grant {token}"},
            body={
                "config": config.federation.to_dict(),
                "estimatedRuntime": 30.0,
                "priorityWeight": 1.0,
            },
        )
        log.emit("job-submitted", jobId=submit.body["jobId"])
        job_record = service.run_next(node_registry=nodes)
        for at, old, new in job_record.transitions:
            log.emit("job-transition", jobId=job_record.job_id, start=old, end=new, moment=at)

    chain_path = desk.chain.write_chain(out_dir / "chain.jsonl")
    events_path = log.write(out_dir / "events.jsonl")
    desk.registry.write_log(out_dir / "identity.jsonl")
    chain_ok, _ = verify_chain_file(chain_path)

    granted = [d for d in decisions if d["decision"] == "granted"]
    denied = [d for d in decisions if d["decision"] == "denied"]
    healthy_job = job_record is not None and job_record.state in (
        "completed",
        "terminated_early",
    )
    as_configured = (
        chain_ok
        and config.qualified_users > 0
        and len(granted) == config.qualified_users
        and len(denied) == config.users - config.qualified_users
        and healthy_job
    )
    exit_code = 0 if as_configured else 1

    model_path = None
    summary = {
        "seed": config.seed,
        "scheme": config.scheme,
        "decisions": decisions,
        "chainVerified": chain_ok,
        "chainBlocks": desk.chain.height + 1,
        "exitCode": exit_code,
    }
    if job_record is not None:
        model_path = (
            Path(job_record.model_address) if job_record.model_address else None
        )
        summary["job"] = {
            "jobId": job_record.job_id,
            "state": job_record.state,
            "cause": job_record.cause,
            "roundsExecuted": job_record.rounds_executed,
            "metrics": _relative(job_record.metrics_address, out_dir),
            "model": _relative(job_record.model_address, out_dir),
        }
    summary_path = out_dir / "summary.json"
    summary_path.write_bytes(canonical_json_bytes(summary) + b"\n")

    return DemoResult(
        exit_code=exit_code,
        out_dir=out_dir,
        chain_path=chain_path,
        events_path=events_path,
        summary_path=summary_path,
        decisions=tuple(decisions),
        job_state=job_record.state if job_record is not None else None,
        model_path=model_path,
    )


def _relative(address: str | None, root: Path) -> str | None:
    if address is None:
        return None
    return str(Path(address).relative_to(root))


def replay_ledger(events_path: Path) -> Chain:
    """Rebuild the ledger purely from an event log.

    The rebuilt chain carries the same transactions, timestamps, and block
    hashes as the original, which is what makes the event log a faithful
    record rather than a narration. The log opens with its scenario-start
    entry; a malformed line, or one whose transaction does not rebuild, is
    refused with a ``ValidationError`` naming the line.
    """
    chain = None
    with Path(events_path).open("rb") as fh:
        for number, line in enumerate(fh, start=1):
            try:
                entry = json.loads(line)
                if number == 1:
                    if entry["event"] != "scenario-start":
                        raise ValidationError("the log does not open with scenario-start")
                    clock = SimulatedClock(start=entry["startTime"])
                    chain = Chain(clock=clock)
                elif entry["event"] == "ledger-write":
                    clock.advance(entry["at"] - clock())
                    tx_id = chain.record(entry["kind"], entry["payload"], entry["submitter"])
                    if tx_id != entry["txId"]:
                        raise ValidationError(f"replay diverged: expected {entry['txId']}, rebuilt {tx_id}")
            except (ValidationError, ValueError, KeyError, TypeError) as error:
                raise ValidationError(f"{events_path} line {number}: {error}") from None
    if chain is None:
        raise ValidationError(f"{events_path} is empty")
    return chain
