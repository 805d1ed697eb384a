"""Shared wiring for tests that need the full identity/ledger/access stack."""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

from fedgate.access import AccessGateway, AccessRequest, make_claim_checker
from fedgate.access.issuance import ClaimIssuer
from fedgate.clock import SimulatedClock
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

ISSUER_DID = "did:efed:issuer"
OWNER_DID = "did:efed:owner"


@dataclass
class Actor:
    did: str
    key: KeyPair


class Stack:
    """A fully wired desk: registry, resolver, chain, contracts, gateway."""

    def __init__(
        self,
        start_time: int = 100_000,
        pending_capacity: int = 256,
        pending_ttl: int = 30,
        contract_path_per_minute: int = 10,
        front_desk_per_minute: int = 100,
    ):
        self.clock = SimulatedClock(start=start_time)
        self.chain = Chain(clock=self.clock)
        self.registry = DidRegistry(recorder=self.chain.record)
        self.resolver = Resolver("desk-resolver", KeyPair.generate(b"\x51" * 32))
        self.resolver.register_driver("efed", RegistryDriver(self.registry))
        self.trusted = frozenset({ISSUER_DID})
        self._nonce_counter = itertools.count(1)
        self._token_counter = itertools.count(1)

        self.engine = ContractEngine(
            self.chain,
            document_lookup=self._lookup,
            claim_checker=make_claim_checker(self.resolver, self.trusted),
            clock=self.clock,
            token_bytes=lambda: next(self._token_counter).to_bytes(16, "big"),
        )
        self.issuer_actor = self.register_actor("issuer")
        self.issuer = ClaimIssuer(
            ISSUER_DID, self.issuer_actor.key, self.registry, self.trusted, self.clock
        )
        self.owner = self.register_actor("owner")
        self.gateway = AccessGateway(
            self.engine,
            self.resolver,
            self.clock,
            contract_path_per_minute=contract_path_per_minute,
            front_desk_per_minute=front_desk_per_minute,
            pending_capacity=pending_capacity,
            pending_ttl_seconds=pending_ttl,
        )

    def _lookup(self, did: str):
        try:
            return self.registry.get(did)
        except UnknownDidError:
            return None

    def fresh_nonce(self) -> bytes:
        return next(self._nonce_counter).to_bytes(16, "big")

    def register_actor(self, specific_id: str) -> Actor:
        # Keyed by the actor id, so any number of actors get distinct keys.
        key = KeyPair.generate(hashlib.sha256(f"actor:{specific_id}".encode()).digest())
        document = DidDocument(
            id=DidIdentifier("efed", specific_id),
            public_keys=(
                PublicKeyEntry(
                    key_id="key-1", algorithm="Ed25519", public_bytes=key.public_bytes
                ),
            ),
            authentication=("key-1",),
        )
        self.registry.register(document, profile_hash=f"profile:{specific_id}")
        return Actor(did=str(document.id), key=key)

    def deploy_policy(
        self, service: str, requirements: tuple[ClaimRequirement, ...]
    ) -> AccessPolicyContract:
        contract = AccessPolicyContract.create(requirements, service, self.owner.did)
        self.engine.deploy(contract, self.owner.key.sign(contract.signing_bytes()))
        return contract

    def deploy_membership_policy(self, service: str = "fl-study") -> AccessPolicyContract:
        return self.deploy_policy(
            service,
            (
                ClaimRequirement(
                    "consortium_member", ClaimPredicate(kind="equals", value="yes")
                ),
            ),
        )

    def request_a(self, requester: str, service: str = "fl-study"):
        request = AccessRequest(
            requester=requester,
            service=service,
            scheme="contract_lookup",
            nonce=self.fresh_nonce(),
            created_at=self.clock(),
        )
        return self.gateway.request_access(request)

    def request_b(self, requester: str, service: str = "fl-study"):
        lookup = self.gateway.user_lookup(requester, self.fresh_nonce())
        if not lookup.ok:
            return lookup
        request = AccessRequest(
            requester=requester,
            service=service,
            scheme="user_lookup",
            nonce=self.fresh_nonce(),
            created_at=self.clock(),
        )
        return self.gateway.request_access(request, attestation=lookup.attestation)
