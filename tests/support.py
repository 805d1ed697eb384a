"""The desk tests run on: ``fedgate.desk`` plus a trusted issuer and a
policy owner, under the short names the tests call."""

from __future__ import annotations

from fedgate.access import SCHEME_USER_LOOKUP
from fedgate.clock import SimulatedClock
from fedgate.desk import Actor, build_desk
from fedgate.ledger import AccessPolicyContract, ClaimRequirement

ISSUER_DID = "did:efed:issuer"


class Stack:
    """A desk with ``did:efed:issuer`` (trusted) and ``did:efed:owner``
    registered; ``limits`` go to the gateway unchanged."""

    def __init__(self, start_time: int = 100_000, **limits):
        self.desk = build_desk(
            0, SimulatedClock(start=start_time), frozenset({ISSUER_DID}), **limits
        )
        self.issuer_actor = self.register_actor("issuer")
        self.issuer = self.desk.claim_issuer(self.issuer_actor)
        self.owner = self.register_actor("owner")

    def __getattr__(self, name: str):
        return getattr(self.desk, name)

    def fresh_nonce(self) -> bytes:
        return self.desk.nonce()

    def register_actor(self, specific_id: str) -> Actor:
        return self.desk.register(specific_id)

    def deploy_policy(
        self, service: str, requirements: tuple[ClaimRequirement, ...]
    ) -> AccessPolicyContract:
        return self.desk.deploy_policy(service, self.owner, requirements)

    def deploy_membership_policy(self, service: str = "fl-study") -> AccessPolicyContract:
        return self.desk.deploy_policy(service, self.owner)

    def request_a(self, requester: str, service: str = "fl-study"):
        return self.desk.request(requester, service)

    def request_b(self, requester: str, service: str = "fl-study"):
        return self.desk.request(requester, service, SCHEME_USER_LOOKUP)
