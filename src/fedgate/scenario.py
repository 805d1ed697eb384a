"""End-to-end desk scenario: identity setup, policy, access, one training job.

`run_demo` builds the shared desk (``fedgate.desk.build_desk``) on a ledger
tap that mirrors every chain write into the event log, then plays the story
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
from .errors import ValidationError
from .fl import FederationConfig, LossSpec, SyntheticSpec, load_partitions, write_dataset
from .ledger import Chain
from .service import FaultEvent, FlaasService, ServiceApi

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
    """Append-only record of everything a scenario does, one entry per step."""

    def __init__(self, clock: SimulatedClock):
        self._clock = clock
        self.entries: list[dict] = []

    def emit(self, event: str, **fields) -> None:
        self.entries.append({"at": self._clock.now(), "event": event, **fields})

    def write(self, path: Path) -> Path:
        path = Path(path)
        with path.open("wb") as fh:
            for entry in self.entries:
                fh.write(canonical_json_bytes(entry) + b"\n")
        return path


class LedgerTap:
    """Chain wrapper that mirrors every write into the event log.

    Reads pass straight through; `record` is intercepted so the event log
    carries enough to rebuild the ledger (see `replay_ledger`).
    """

    def __init__(self, chain: Chain, log: EventLog):
        self._chain = chain
        self._log = log

    def record(self, kind: str, payload: dict, submitter: str) -> str:
        tx_id = self._chain.record(kind, payload, submitter)
        self._log.emit(
            "ledger-write", kind=kind, payload=payload, submitter=submitter, txId=tx_id
        )
        return tx_id

    def __getattr__(self, name: str):
        return getattr(self._chain, name)


@dataclass(frozen=True)
class ScenarioConfig:
    """One runnable end-to-end story: who exists, how they authenticate,
    what gets trained, and which nodes die when."""

    owners: int = 3
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
        if self.owners < 1 or self.issuers < 1:
            raise ValidationError("need at least one owner and one issuer")
        if self.users < 0 or not 0 <= self.qualified_users <= self.users:
            raise ValidationError("qualified_users must lie in [0, users]")
        if self.scheme not in (SCHEME_CONTRACT_LOOKUP, SCHEME_USER_LOOKUP):
            raise ValidationError(f"unknown scheme {self.scheme!r}")
        if self.federation.total_clients != self.owners:
            raise ValidationError(
                "each owner hosts exactly one partition: federation.total_clients "
                f"({self.federation.total_clients}) must equal owners ({self.owners})"
            )
        known_nodes = {"server-0"} | {f"node-{i:03d}" for i in range(self.owners)}
        for event in self.fault_schedule:
            if event.round_index > self.federation.total_rounds:
                raise ValidationError(
                    f"fault at round {event.round_index} is beyond the final round"
                )
            if event.node_id not in known_nodes:
                raise ValidationError(f"fault names unknown node {event.node_id!r}")

    def to_dict(self) -> dict:
        return {
            "owners": self.owners,
            "issuers": self.issuers,
            "users": self.users,
            "qualifiedUsers": self.qualified_users,
            "scheme": self.scheme,
            "federation": self.federation.to_dict(),
            "samplesPerClient": self.samples_per_client,
            "separability": self.separability,
            "labelSkew": self.label_skew,
            "faultSchedule": [
                {"roundIndex": e.round_index, "nodeId": e.node_id}
                for e in self.fault_schedule
            ],
            "standbyClients": self.standby_clients,
            "standbyServers": self.standby_servers,
            "seed": self.seed,
            "startTime": self.start_time,
            "service": self.service,
            "outDir": self.out_dir,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        defaults = cls()
        return cls(
            owners=data.get("owners", defaults.owners),
            issuers=data.get("issuers", defaults.issuers),
            users=data.get("users", defaults.users),
            qualified_users=data.get("qualifiedUsers", defaults.qualified_users),
            scheme=data.get("scheme", defaults.scheme),
            federation=(
                FederationConfig.from_dict(data["federation"])
                if "federation" in data
                else defaults.federation
            ),
            samples_per_client=data.get("samplesPerClient", defaults.samples_per_client),
            separability=data.get("separability", defaults.separability),
            label_skew=data.get("labelSkew", defaults.label_skew),
            fault_schedule=tuple(
                FaultEvent(e["roundIndex"], e["nodeId"])
                for e in data.get("faultSchedule", ())
            ),
            standby_clients=data.get("standbyClients", defaults.standby_clients),
            standby_servers=data.get("standbyServers", defaults.standby_servers),
            seed=data.get("seed", defaults.seed),
            start_time=data.get("startTime", defaults.start_time),
            service=data.get("service", defaults.service),
            out_dir=data.get("outDir", defaults.out_dir),
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
    log = EventLog(clock)
    chain = Chain(clock=clock)
    tap = LedgerTap(chain, log)
    log.emit(
        "scenario-start",
        seed=config.seed,
        scheme=config.scheme,
        startTime=config.start_time,
    )

    trusted = frozenset(f"did:efed:issuer-{i}" for i in range(config.issuers))
    desk = build_desk(config.seed, clock, trusted, chain=tap)

    def register(role: str, index: int) -> Actor:
        actor = desk.register(f"{role}-{index}", desk.keypair(role, index))
        log.emit("did-registered", did=actor.did, role=role)
        clock.advance(1)
        return actor

    owners = [register("owner", i) for i in range(config.owners)]
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
        n_clients=config.owners,
        samples_per_client=config.samples_per_client,
        feature_dim=config.federation.loss.feature_dim,
        separability=config.separability,
        seed=config.seed,
        label_skew=config.label_skew,
    )
    write_dataset(spec, data_dir)
    partitions = load_partitions(data_dir)
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
        job_record = service.run_next(
            fault_schedule=config.fault_schedule,
            standby_clients=config.standby_clients,
            standby_servers=config.standby_servers,
        )
        for at, old, new in job_record.transitions:
            log.emit("job-transition", jobId=job_record.job_id, start=old, end=new, moment=at)

    chain_path = chain.write_chain(out_dir / "chain.jsonl")
    events_path = log.write(out_dir / "events.jsonl")
    desk.registry.write_log(out_dir / "identity.jsonl")
    chain_ok, _ = chain.verify()

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
        "chainBlocks": chain.height + 1,
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
    record rather than a narration.
    """
    with Path(events_path).open() as fh:
        entries = [json.loads(line) for line in fh]
    try:
        start = next(e for e in entries if e["event"] == "scenario-start")["startTime"]
    except StopIteration:
        raise ValidationError("event log has no scenario-start entry") from None
    clock = SimulatedClock(start=start)
    chain = Chain(clock=clock)
    for entry in entries:
        if entry["event"] != "ledger-write":
            continue
        clock.advance(entry["at"] - clock.now())
        tx_id = chain.record(entry["kind"], entry["payload"], entry["submitter"])
        if tx_id != entry["txId"]:
            raise ValidationError(
                f"replay diverged: expected {entry['txId']}, rebuilt {tx_id}"
            )
    return chain
