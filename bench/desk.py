"""Desk wiring for the benchmark, built only from fedgate's public constructors.

Every secret and every random choice derives from the workload seed: keys
from ``sha256(seed, role, index)``, request nonces and grant tokens from
counters hashed with the seed, and time from a simulated clock. Two desks
built from one seed and driven through the same calls therefore leave
byte-identical ``chain.jsonl`` and ``model.json`` files.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from pathlib import Path

from fedgate.access import AccessGateway, ClaimIssuer, make_claim_checker
from fedgate.clock import SimulatedClock
from fedgate.fl import DatasetPartition, SyntheticSpec, generate_partitions
from fedgate.identity import (
    DidDocument,
    DidIdentifier,
    DidRegistry,
    PublicKeyEntry,
    RegistryDriver,
    Resolver,
)
from fedgate.identity.registry import UnknownDidError
from fedgate.keys import KeyPair
from fedgate.ledger import (
    AccessPolicyContract,
    Chain,
    ClaimPredicate,
    ClaimRequirement,
    ContractEngine,
)
from fedgate.service import FlaasService, ServiceApi

SERVICE = "fl-study"
MEMBERSHIP = "consortium_member"
START_TIME = 1_000_000
LONG_VALIDITY = 10_000_000

# Gateway settings per desk. The access desk lifts both rate limits so the
# grant path, not the limiter, decides every request; the flood desk keeps
# the shipped limits and the paper's pending-table bound.
ACCESS_GATEWAY = {
    "contract_path_per_minute": 10**9,
    "front_desk_per_minute": 10**9,
    "pending_capacity": 4096,
    "pending_ttl_seconds": 30,
}
FLOOD_GATEWAY = {
    "contract_path_per_minute": 10,
    "front_desk_per_minute": 100,
    "pending_capacity": 256,
    "pending_ttl_seconds": 30,
}

# The training fleet: partitions x samples x features, logistic loss with
# bias, label skew across clients and a little label noise so the loss
# keeps falling for the whole job.
FLEET = {
    "n_clients": 1000,
    "samples_per_client": 100,
    "feature_dim": 20,
    "separability": 0.5,
    "label_skew": 0.6,
    "label_noise": 0.05,
}
# A handful of small partitions: enough for the metadata redemption on the
# access and flood desks without making it the cost being measured.
SMALL_FLEET = dict(FLEET, n_clients=4, samples_per_client=20)


def derive(seed: int, role: str, index: int, size: int = 32) -> bytes:
    return hashlib.sha256(f"fedgate-bench:{seed}:{role}:{index}".encode()).digest()[:size]


def fleet(seed: int, spec: dict = FLEET) -> list[DatasetPartition]:
    partitions, _manifest = generate_partitions(SyntheticSpec(seed=seed, **spec))
    return partitions


def register(registry: DidRegistry, seed: int, role: str, index: int) -> tuple[str, KeyPair]:
    """Register ``did:efed:<role>-<index>`` with a key derived from the seed."""
    key = KeyPair.generate(derive(seed, role, index))
    document = DidDocument(
        id=DidIdentifier("efed", f"{role}-{index}"),
        public_keys=(
            PublicKeyEntry(key_id="key-1", algorithm="Ed25519", public_bytes=key.public_bytes),
        ),
        authentication=("key-1",),
    )
    registry.register(document, profile_hash=f"profile:{role}-{index}")
    return str(document.id), key


@dataclass
class Desk:
    seed: int
    clock: SimulatedClock
    chain: Chain
    registry: DidRegistry
    gateway: AccessGateway
    service: FlaasService
    api: ServiceApi
    issuer: ClaimIssuer
    nonces: itertools.count

    def nonce(self) -> bytes:
        return derive(self.seed, "nonce", next(self.nonces), 16)

    def register(self, role: str, index: int) -> str:
        return register(self.registry, self.seed, role, index)[0]


def build_desk(
    seed: int,
    *,
    gateway: dict,
    partitions: list[DatasetPartition],
    out_dir: Path,
) -> Desk:
    """Registry, resolver, chain, policy contract, gateway, service and API."""
    clock = SimulatedClock(start=START_TIME)
    chain = Chain(clock=clock)
    registry = DidRegistry(recorder=chain.record)
    resolver = Resolver("bench-resolver", KeyPair.generate(derive(seed, "resolver", 0)))
    resolver.register_driver("efed", RegistryDriver(registry))

    def document_lookup(did: str):
        try:
            return registry.get(did)
        except UnknownDidError:
            return None

    issuer_did, issuer_key = register(registry, seed, "issuer", 0)
    owner_did, owner_key = register(registry, seed, "owner", 0)
    trusted = frozenset({issuer_did})
    tokens = itertools.count(1)
    engine = ContractEngine(
        chain,
        document_lookup=document_lookup,
        claim_checker=make_claim_checker(resolver, trusted),
        clock=clock,
        token_bytes=lambda: derive(seed, "token", next(tokens), 16),
    )
    contract = AccessPolicyContract.create(
        (ClaimRequirement(MEMBERSHIP, ClaimPredicate(kind="equals", value="yes")),),
        SERVICE,
        owner_did,
    )
    engine.deploy(contract, owner_key.sign(contract.signing_bytes()))
    access_gateway = AccessGateway(engine, resolver, clock, **gateway)
    service = FlaasService(access_gateway, partitions, out_dir, clock, service_name=SERVICE)
    return Desk(
        seed=seed,
        clock=clock,
        chain=chain,
        registry=registry,
        gateway=access_gateway,
        service=service,
        api=ServiceApi(access_gateway, service, clock),
        issuer=ClaimIssuer(issuer_did, issuer_key, registry, trusted, clock),
        nonces=itertools.count(1),
    )
