"""End-to-end desk scenario: identity setup, policy, access, one training job.

`run_demo` builds the shared desk (``fedgate.desk.build_desk``) and an event
log that names each block of the desk's chain by its ``txId``, then plays
the story of a small consortium: data owners, one attestor and users register
identifiers, an owner deploys the access policy, the attestor issues
membership claims, each user walks one of the two authentication schemes,
and whoever holds a grant token submits a training job. Everything is
driven by a simulated clock and derived from one seed, so two runs with the
same configuration produce byte-identical artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

from .access import SCHEME_CONTRACT_LOOKUP, SCHEME_USER_LOOKUP
from .canonical import canonical_json_bytes, read_json_lines, write_json_lines
from .clock import SimulatedClock
from .desk import MEMBERSHIP_CLAIM, Actor, build_desk
from .errors import ValidationError, from_camel_keys
from .fl import FederationConfig, LossSpec, SyntheticSpec, load_partitions, write_dataset
from .fl.config import _integer
from .ledger import Chain, verify_chain_file
from .ledger.chain import Block
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

# What every demo shares: the one trusted attestor, each owner's synthetic
# partition, the clock's first reading and the service the policy gates.
ATTESTOR = "did:efed:issuer-0"
SAMPLES_PER_CLIENT = 40
SEPARABILITY = 2.0
LABEL_SKEW = 0.0
START_TIME = 1_000_000
SERVICE = "fl-study"


class EventLog:
    """Append-only record of everything a scenario does, one entry per step.

    The log points at ``chain``: before each entry, and before it is written,
    it adds one ``ledger-write`` entry for each block sealed since, holding
    only the block time (``at``) and the transaction's ``txId``. The chain
    file carries the transaction itself, so a step's own entry holds only
    what its block does not; ``replay_ledger`` checks that the log and the
    chain name the same transactions at the same times.
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
            self.entries.append({"at": block.timestamp, "event": "ledger-write", "txId": tx.tx_id})
        self._mirrored = len(blocks) - 1

    def emit(self, event: str, **fields) -> None:
        self._mirror_chain()
        self.entries.append({"at": self._clock(), "event": event, **fields})

    def write(self, path: Path) -> Path:
        self._mirror_chain()
        return write_json_lines(path, self.entries)


_INTEGER_FIELDS = (
    ("users", 0),
    ("qualified_users", 0),
    ("standby_clients", 0),
    ("standby_servers", 0),
    ("seed", None),
)


@dataclass(frozen=True)
class ScenarioConfig:
    """One runnable end-to-end story: who exists, how they authenticate,
    what gets trained, and which nodes die when. One data owner hosts each
    of the federation's ``total_clients`` partitions."""

    users: int = 2
    qualified_users: int = 1
    scheme: str = SCHEME_CONTRACT_LOOKUP
    federation: FederationConfig = DEFAULT_FEDERATION
    fault_schedule: tuple[FaultEvent, ...] = ()
    standby_clients: int = 0
    standby_servers: int = 0
    seed: int = 7
    out_dir: str = "demo-out"

    def __post_init__(self) -> None:
        for name, minimum in _INTEGER_FIELDS:
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        if self.qualified_users > self.users:
            raise ValidationError("qualified_users must lie in [0, users]")
        if self.scheme not in (SCHEME_CONTRACT_LOOKUP, SCHEME_USER_LOOKUP):
            raise ValidationError(f"unknown scheme {self.scheme!r}")
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


def run_demo(config: ScenarioConfig) -> dict:
    """Run the whole story, drop its artifacts in ``config.out_dir`` and
    return the summary it writes there as ``summary.json``.

    The ledger, event log and identity log are ``chain.jsonl``,
    ``events.jsonl`` and ``identity.jsonl`` in the out dir, and the
    summary's ``job`` names the job's metrics and model files relative to it.
    ``exitCode`` 0 means the scenario played out exactly as configured: every
    claimed user got in, every unclaimed user was turned away on-chain, the
    training job reached a healthy terminal state, and the ledger verifies.
    1 flags a domain failure (no grants issued, job failed, chain broken);
    validation problems raise and are mapped to 2 by the CLI.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    clock = SimulatedClock(start=START_TIME)
    desk = build_desk(config.seed, clock, frozenset({ATTESTOR}))
    log = EventLog(clock, desk.chain)
    log.emit("scenario-start", seed=config.seed, scheme=config.scheme)

    def register(role: str, index: int) -> Actor:
        actor = desk.register(f"{role}-{index}", desk.keypair(role, index))
        log.emit("did-registered", role=role)
        clock.advance(1)
        return actor

    owners = [register("owner", i) for i in range(config.federation.total_clients)]
    attestor = desk.claim_issuer(register("issuer", 0))
    users = [register("user", i) for i in range(config.users)]

    desk.deploy_policy(SERVICE, owners[0])
    log.emit("contract-deployed")
    clock.advance(1)

    for user in users[: config.qualified_users]:
        attestor.issue(user.did, MEMBERSHIP_CLAIM, "yes", validity_seconds=86_400)
        log.emit("claim-issued", issuer=attestor.did)
        clock.advance(1)

    data_dir = out_dir / "data"
    spec = SyntheticSpec(
        n_clients=config.federation.total_clients,
        samples_per_client=SAMPLES_PER_CLIENT,
        feature_dim=config.federation.loss.feature_dim,
        separability=SEPARABILITY,
        seed=config.seed,
        label_skew=LABEL_SKEW,
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

    service = FlaasService(desk.gateway, partitions, out_dir / "artifacts", clock, service_name=SERVICE)
    api = ServiceApi(desk.gateway, service, clock)

    decisions: list[dict] = []
    token: str | None = None
    for did in [user.did for user in users]:
        body = {
            "requester": did,
            "service": SERVICE,
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
        log.emit("access-request")
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
        for _, old, new in job_record.transitions:
            log.emit("job-transition", jobId=job_record.job_id, start=old, end=new)

    chain_path = desk.chain.write_chain(out_dir / "chain.jsonl")
    log.write(out_dir / "events.jsonl")
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
    summary = {
        "seed": config.seed,
        "scheme": config.scheme,
        "decisions": decisions,
        "chainVerified": chain_ok,
        "chainBlocks": desk.chain.height + 1,
        "exitCode": 0 if as_configured else 1,
    }
    if job_record is not None:
        summary["job"] = {
            "jobId": job_record.job_id,
            "state": job_record.state,
            "cause": job_record.cause,
            "roundsExecuted": job_record.rounds_executed,
            "metrics": _relative(job_record.metrics_address, out_dir),
            "model": _relative(job_record.model_address, out_dir),
        }
    (out_dir / "summary.json").write_bytes(canonical_json_bytes(summary) + b"\n")
    return summary


def _relative(address: str | None, root: Path) -> str | None:
    if address is None:
        return None
    return str(Path(address).relative_to(root))


def replay_ledger(events_path: Path, blocks: list[Block]) -> None:
    """Check an event log against the chain it points at, given as ``load_chain``'s blocks.

    The log's first line, ``scenario-start``, is stamped with the genesis
    block's time, and its n-th ``ledger-write`` line states block n's time
    and transaction id. The tx id covers kind, submitter and payload, and the
    block hash covers the id and the time, so that is the whole proof that
    the log records the chain. A malformed line, or one that is not a JSON
    line, is refused with a ``ValidationError`` naming the first such line,
    and a log that differs from the chain naming the first height where it
    does.
    """
    entries, unreadable = read_json_lines(events_path)
    stated = []
    for number, entry in enumerate(entries, start=1):
        try:
            if number == 1 and entry["event"] != "scenario-start":
                raise ValidationError("the log does not open with scenario-start")
            if number == 1 or entry["event"] == "ledger-write":
                fact = (entry["at"],) if number == 1 else (entry["at"], entry["txId"])
                if type(fact[0]) is not int:  # a bool is an int, and 1000000.0 == 1000000
                    raise ValidationError(f"a time must be an integer, got {fact[0]!r}")
                stated.append(fact)
        except (ValidationError, KeyError, TypeError) as error:
            raise ValidationError(f"{events_path} line {number}: {error}") from None
    if unreadable is not None:
        raise ValidationError(f"{events_path} line {unreadable + 1}: not a JSON line")
    sealed = [(blocks[0].timestamp,)] + [(b.timestamp, b.transactions[0].tx_id) for b in blocks[1:]]
    for height, (fact, block_fact) in enumerate(zip_longest(stated, sealed)):
        if fact != block_fact:
            raise ValidationError(f"{events_path} differs from the chain at height {height}")
