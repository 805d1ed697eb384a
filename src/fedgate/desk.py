"""One desk wiring, shared by the demo, the command line, the scripts and the tests.

``build_desk`` wires a ``DidRegistry`` that records onto the chain, a
``Resolver`` whose ``efed`` driver serves that registry, a ``ContractEngine``
that reads documents from the registry and checks claims against the trusted
issuers, and an ``AccessGateway`` in front. Every secret and fresh value
derives from the seed: keys from ``sha256("fedgate:<seed>:<role>:<index>")``,
request nonces from ``"nonce:<seed>:<n>"`` and grant tokens from
``"token:<seed>:<n>"``, so two desks built from one seed and driven the same
way leave byte-identical ledgers.

One thread drives a desk; adding a thread means bringing back
synchronisation. No table takes a lock: ``tests/test_src_threads.py`` guards that.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

from .access import AccessGateway, ClaimIssuer, make_claim_checker
from .clock import SimulatedClock
from .identity import DidDocument, DidRegistry, RegistryDriver, Resolver
from .keys import KeyPair
from .ledger import AccessPolicyContract, Chain, ClaimPredicate, ClaimRequirement, ContractEngine

MEMBERSHIP_CLAIM = "consortium_member"
MEMBERSHIP_POLICY = (
    ClaimRequirement(MEMBERSHIP_CLAIM, ClaimPredicate(kind="equals", value="yes")),
)


def _sha256(text: str) -> bytes:
    return hashlib.sha256(text.encode()).digest()


def _keypair(seed: int, role: str, index: int) -> KeyPair:
    return KeyPair.generate(_sha256(f"fedgate:{seed}:{role}:{index}"))


@dataclass(frozen=True)
class Actor:
    did: str
    key: KeyPair


@dataclass
class Desk:
    """A wired desk (see ``build_desk``) and the steps its callers share."""

    seed: int
    clock: SimulatedClock
    chain: Chain
    registry: DidRegistry
    resolver: Resolver
    engine: ContractEngine
    gateway: AccessGateway
    trusted: frozenset[str]
    _nonces: itertools.count = field(default_factory=lambda: itertools.count(1))

    def keypair(self, role: str, index: int) -> KeyPair:
        return _keypair(self.seed, role, index)

    def nonce(self) -> bytes:
        return _sha256(f"nonce:{self.seed}:{next(self._nonces)}")[:16]

    def register(self, specific_id: str, key: KeyPair) -> Actor:
        """Register ``did:efed:<specific_id>`` under ``key``."""
        document = DidDocument.for_key("efed", specific_id, key.public_bytes)
        self.registry.register(document, profile_hash=f"profile:{specific_id}")
        return Actor(str(document.id), key)

    def claim_issuer(self, actor: Actor) -> ClaimIssuer:
        return ClaimIssuer(actor.did, actor.key, self.registry, self.trusted, self.clock)

    def deploy_policy(self, service: str, owner: Actor) -> AccessPolicyContract:
        contract = AccessPolicyContract(MEMBERSHIP_POLICY, service, owner.did)
        self.engine.deploy(contract, owner.key.sign(contract.signing_bytes()))
        return contract


def build_desk(
    seed: int,
    clock: SimulatedClock,
    trusted_issuers: frozenset[str],
    **limits,
) -> Desk:
    """Wire a desk on a fresh chain; ``limits`` go to ``AccessGateway`` unchanged."""
    chain = Chain(clock=clock)
    registry = DidRegistry(recorder=chain.record)
    resolver = Resolver("desk-resolver", _keypair(seed, "resolver", 0))
    resolver.register_driver("efed", RegistryDriver(registry))
    tokens = itertools.count(1)
    engine = ContractEngine(
        chain,
        document_lookup=registry.find,
        claim_checker=make_claim_checker(resolver, trusted_issuers),
        clock=clock,
        token_bytes=lambda: _sha256(f"token:{seed}:{next(tokens)}")[:16],
    )
    gateway = AccessGateway(engine, resolver, clock, **limits)
    return Desk(seed, clock, chain, registry, resolver, engine, gateway, trusted_issuers)
