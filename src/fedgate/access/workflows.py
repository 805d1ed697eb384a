"""The two authentication workflows over contracts, resolver, and ledger.

Contract-initiated lookup (scheme ``contract_lookup``): the requester
hands over only their DID; the gateway parks the request in the bounded
pending table, fetches the document, rate-limits, and runs the contract.
Requests whose DID never resolves stay parked until the ttl sweep
reclaims them — that bounded parking lot is the DoS story.

User-initiated lookup (scheme ``user_lookup``): the requester first asks
the resolver front desk for an attestation (never the document itself),
then submits that attestation. The gateway fetches the document
server-side, checks the attestation binds it, consumes the attestation
nonce, and runs the same contract — so the verdict matches scheme A for
the same holder, contract, and clock. The front desk fetches, applies its
own, larger rate limit, then attests; the pending table is never touched.

Both limiters run after the fetch, so a made-up DID never spends a limiter
slot and cannot evict a member's window. A rate-refused request's pending
entry leaves at once, its nonce unspent.

Only the front desk makes attestations: its attestation is the one that
leaves the desk. Every other step reads the document with
``Resolver.fetch``, which signs nothing, because a signature this process
makes and then checks itself proves nothing. The submit step checks the
attestation with ``Resolver.verify`` against the one the resolver kept, so a
grant makes no Ed25519 sign under contract lookup, one under user lookup,
and no verify beyond the claim's; and an attestation opens at most one
evaluation, ever, even once the nonce ring below has forgotten its nonce.

Verdicts the contract actually evaluated are sealed on-chain (grant or
denial), carry a ``tx_id``, and reach the requester as the engine's own
``AccessOutcome``; requests that failed before reaching the
contract (unresolvable DID, replay, stale attestation) are denied
without a ledger write so a flood cannot grow the chain. Such a refusal
carries nothing of its own, so each is one shared module constant and a
refused request builds no outcome; ``AccessOutcome`` is frozen, so sharing
one is safe.

A request nonce opens at most one evaluation: just before the contract
runs it is spent in the ring of the last ``NONCE_RING_SIZE`` nonces, which
attestation nonces share, so a replay is denied ``replay``, writes nothing
and never reuses a tx id. Every nonce is checked as 16 bytes before the
ring sees it. The bounded tables (pending entries, nonces,
grants) each keep one ``OrderedDict`` and evict from its front, unscanned.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from ..errors import ValidationError
from ..identity import Attestation, Resolver
from ..identity.resolver import UNRESOLVABLE
from ..ledger import AccessOutcome, AccessPolicyContract, ContractEngine, GrantToken
from .pending import PendingTable
from .ratelimit import SlidingWindowLimiter

SCHEME_CONTRACT_LOOKUP = "contract_lookup"
SCHEME_USER_LOOKUP = "user_lookup"
_SCHEMES = (SCHEME_CONTRACT_LOOKUP, SCHEME_USER_LOOKUP)
NONCE_RING_SIZE = 4096


REJECTED_RATE = AccessOutcome("rejected-rate", "per-requester rate limit")
REJECTED_CAPACITY = AccessOutcome("rejected-capacity", "pending table full")
DENIED_REPLAY = AccessOutcome("denied", "replay")
DENIED_UNRESOLVABLE = AccessOutcome("denied", "unresolvable")
DENIED_MISSING_ATTESTATION = AccessOutcome("denied", "missing-attestation")
DENIED_ATTESTATION_MISMATCH = AccessOutcome("denied", "attestation-mismatch")
DENIED_STALE_ATTESTATION = AccessOutcome("denied", "stale-attestation")


def _check_nonce(nonce: object, what: str) -> None:
    if type(nonce) is not bytes or len(nonce) != 16:
        raise ValidationError(f"{what} nonce must be 16 bytes")


class AccessRequest:
    """One request, its scheme and nonce checked as given; slotted, since a
    flood builds one per ghost."""

    __slots__ = ("requester", "service", "scheme", "nonce")

    def __init__(self, requester: str, service: str, scheme: str, nonce: bytes):
        if scheme not in _SCHEMES:
            raise ValidationError(f"unknown scheme {scheme!r}")
        _check_nonce(nonce, "request")
        self.requester = requester
        self.service = service
        self.scheme = scheme
        self.nonce = nonce


@dataclass(frozen=True)
class LookupResult:
    """Front-desk reply: an attestation or a reason — never a document."""

    ok: bool
    attestation: Attestation | None
    reason: str


class GrantStore:
    """Grant tokens the service layer can redeem until they expire.

    All grants share one lifetime and the clock only moves forward, so
    ``add`` drops expired grants from the front of the insertion order.
    """

    def __init__(self):
        self._records: OrderedDict[str, GrantToken] = OrderedDict()

    def add(self, grant: GrantToken, now: int) -> None:
        while self._records and now >= next(iter(self._records.values())).expires_at:
            self._records.popitem(last=False)
        self._records[grant.token] = grant

    def validate(self, token: str, now: int) -> GrantToken | None:
        record = self._records.get(token)
        if record is None or now >= record.expires_at:
            return None
        return record

    def __len__(self) -> int:
        return len(self._records)


class _NonceRing:
    """Remembers the most recent ``NONCE_RING_SIZE`` consumed nonces."""

    def __init__(self):
        self._seen: OrderedDict[str, None] = OrderedDict()

    def consume(self, nonce_hex: str) -> bool:
        """True if fresh (and now consumed); False on replay."""
        if nonce_hex in self._seen:
            return False
        self._seen[nonce_hex] = None
        if len(self._seen) > NONCE_RING_SIZE:
            self._seen.popitem(last=False)
        return True


class AccessGateway:
    def __init__(
        self,
        engine: ContractEngine,
        resolver: Resolver,
        clock: Callable[[], int],
        *,
        contract_path_per_minute: int = 10,
        front_desk_per_minute: int = 100,
        pending_capacity: int = 256,
        pending_ttl_seconds: int = 30,
    ):
        self.engine = engine
        self._resolver = resolver
        self._clock = clock
        self._contract_limiter = SlidingWindowLimiter(contract_path_per_minute, clock)
        self._front_desk_limiter = SlidingWindowLimiter(front_desk_per_minute, clock)
        self.pending = PendingTable(pending_capacity, pending_ttl_seconds, clock)
        self._used_nonces = _NonceRing()
        self.grants = GrantStore()

    # ---------------------------------------------------------- front desk

    def user_lookup(self, requester: str, nonce: bytes) -> LookupResult:
        """Scheme-B step one: resolve on the user's behalf, return attestation.

        The only caller of ``Resolver.resolve``, and so the only maker of attestations.
        """
        _check_nonce(nonce, "front-desk")
        try:
            document = self._resolver.fetch(requester)
        except UNRESOLVABLE:
            return LookupResult(False, None, "unresolvable")
        if not self._front_desk_limiter.allow(requester):
            return LookupResult(False, None, "rejected-rate")
        return LookupResult(True, self._resolver.resolve(document, nonce), "ok")

    # ------------------------------------------------------------ requests

    def request_access(
        self, request: AccessRequest, attestation: Attestation | None
    ) -> AccessOutcome:
        if request.scheme == SCHEME_CONTRACT_LOOKUP:
            return self._contract_lookup(request)
        return self._user_lookup_submit(request, attestation)

    def _contract_lookup(self, request: AccessRequest) -> AccessOutcome:
        contract = self.engine.for_service(request.service)
        nonce_hex = request.nonce.hex()
        if not self.pending.try_insert(nonce_hex):
            if self.pending.contains(nonce_hex):
                return DENIED_REPLAY
            return REJECTED_CAPACITY
        try:
            document = self._resolver.fetch(request.requester)
        except UNRESOLVABLE:
            # The lookup the contract kicked off never completes; the entry
            # stays parked until the ttl sweep reclaims it.
            return DENIED_UNRESOLVABLE
        if not self._contract_limiter.allow(request.requester):
            self.pending.remove(nonce_hex)  # its nonce stays unspent
            return REJECTED_RATE
        outcome = self._execute(contract, document, nonce_hex)
        self.pending.remove(nonce_hex)
        return outcome

    def _user_lookup_submit(
        self, request: AccessRequest, attestation: Attestation | None
    ) -> AccessOutcome:
        if attestation is None:
            return DENIED_MISSING_ATTESTATION
        _check_nonce(attestation.nonce, "attestation")
        if attestation.did != request.requester:
            return DENIED_ATTESTATION_MISMATCH
        contract = self.engine.for_service(request.service)
        if not self._used_nonces.consume(attestation.nonce.hex()):
            return DENIED_REPLAY
        try:
            document = self._resolver.fetch(request.requester)
        except UNRESOLVABLE:
            return DENIED_UNRESOLVABLE
        # The attestation came from outside, so it is checked here.
        if not self._resolver.verify(attestation, document):
            return DENIED_STALE_ATTESTATION
        return self._execute(contract, document, request.nonce.hex())

    def _execute(self, contract: AccessPolicyContract, document, nonce_hex: str) -> AccessOutcome:
        if not self._used_nonces.consume(nonce_hex):
            return DENIED_REPLAY
        outcome = self.engine.execute(contract, document, nonce_hex)
        if outcome.grant is not None:
            self.grants.add(outcome.grant, int(self._clock()))
        return outcome
