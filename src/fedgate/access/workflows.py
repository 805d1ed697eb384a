"""The two authentication workflows over contracts, resolver, and ledger.

Contract-initiated lookup (scheme ``contract_lookup``): the requester
hands over only their DID; the gateway rate-limits, parks the request in
the bounded pending table, fetches the document from the resolver, and
runs the contract. Requests whose DID never resolves stay parked until
the ttl sweep reclaims them — that bounded parking lot is the DoS story.

User-initiated lookup (scheme ``user_lookup``): the requester first asks
the resolver front desk for an attestation (never the document itself),
then submits that attestation. The gateway fetches the document
server-side, checks the attestation binds it, consumes the nonce, and
runs the same contract — so the verdict matches scheme A for the same
holder, contract, and clock. The front desk carries its own, larger
rate limit and the pending table is never touched.

Only the front desk signs: its attestation is the one that leaves the
desk. Every other step reads the document with ``Resolver.fetch``, which
signs nothing, because a signature this process makes and then checks
itself proves nothing.

Verdicts the contract actually evaluated are sealed on-chain (grant or
denial) and carry a ``tx_id``; requests that failed before reaching the
contract (unresolvable DID, replay, stale attestation) are denied
without a ledger write so a flood cannot grow the chain.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable

from ..canonical import to_hex
from ..errors import ValidationError
from ..identity import Attestation, NoDriverError, Resolver
from ..identity.did import DidParseError
from ..identity.registry import UnknownDidError
from ..ledger import ContractEngine, GrantToken, Verdict
from .pending import PendingTable
from .ratelimit import SlidingWindowLimiter

SCHEME_CONTRACT_LOOKUP = "contract_lookup"
SCHEME_USER_LOOKUP = "user_lookup"
_SCHEMES = (SCHEME_CONTRACT_LOOKUP, SCHEME_USER_LOOKUP)


@dataclass(frozen=True)
class AccessRequest:
    requester: str
    service: str
    scheme: str
    nonce: bytes
    created_at: int

    def __post_init__(self) -> None:
        if self.scheme not in _SCHEMES:
            raise ValidationError(f"unknown scheme {self.scheme!r}")
        if len(self.nonce) != 16:
            raise ValidationError("request nonce must be 16 bytes")


@dataclass(frozen=True)
class GrantRecord:
    token: str
    holder: str
    service: str
    metadata_address: str
    expires_at: int

    def to_dict(self) -> dict:
        return {
            "token": self.token,
            "holder": self.holder,
            "service": self.service,
            "metadataAddress": self.metadata_address,
            "expiresAt": self.expires_at,
        }


@dataclass(frozen=True)
class LookupResult:
    """Front-desk reply: an attestation or a reason — never a document."""

    ok: bool
    attestation: Attestation | None
    reason: str


@dataclass(frozen=True)
class AccessOutcome:
    """Requester-facing verdict; carries a tx id iff a contract evaluated it."""

    decision: str  # granted | denied | rejected-rate | rejected-capacity
    reason: str
    missing: tuple[str, ...] = ()
    grant: GrantRecord | None = None
    tx_id: str | None = None


class GrantStore:
    """Grant tokens the service layer can redeem until they expire.

    All grants share one lifetime and the clock only moves forward, so
    ``add`` drops expired grants from the front of the insertion order.
    """

    def __init__(self):
        self._records: dict[str, GrantRecord] = {}
        self._order: deque[GrantRecord] = deque()
        self._lock = threading.Lock()

    def add(self, token: GrantToken, metadata_address: str, now: int) -> GrantRecord:
        record = GrantRecord(
            token=token.token,
            holder=token.holder,
            service=token.service,
            metadata_address=metadata_address,
            expires_at=token.expires_at,
        )
        with self._lock:
            while self._order and now >= self._order[0].expires_at:
                expired = self._order.popleft()
                if self._records.get(expired.token) is expired:
                    del self._records[expired.token]
            self._records[record.token] = record
            self._order.append(record)
        return record

    def validate(self, token: str, now: int) -> GrantRecord | None:
        record = self._records.get(token)
        if record is None or now >= record.expires_at:
            return None
        return record

    def __len__(self) -> int:
        return len(self._records)


class _NonceRing:
    """Remembers the most recent ``size`` consumed nonces."""

    def __init__(self, size: int):
        self._order: deque[str] = deque()
        self._seen: set[str] = set()
        self._size = size
        self._lock = threading.Lock()

    def consume(self, nonce_hex: str) -> bool:
        """True if fresh (and now consumed); False on replay."""
        with self._lock:
            if nonce_hex in self._seen:
                return False
            self._seen.add(nonce_hex)
            self._order.append(nonce_hex)
            if len(self._order) > self._size:
                self._seen.discard(self._order.popleft())
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
        nonce_ring_size: int = 4096,
        metadata_address: str = "/data/metadata",
    ):
        self._engine = engine
        self._resolver = resolver
        self._clock = clock
        self._contract_limiter = SlidingWindowLimiter(
            contract_path_per_minute, 60, clock
        )
        self._front_desk_limiter = SlidingWindowLimiter(front_desk_per_minute, 60, clock)
        self.pending = PendingTable(pending_capacity, pending_ttl_seconds, clock)
        self._used_nonces = _NonceRing(nonce_ring_size)
        self.grants = GrantStore()
        self._metadata_address = metadata_address

    # ------------------------------------------------------------- queries

    def requirements(self, service: str):
        return self._engine.query_requirements(service)

    def services(self) -> list[str]:
        return self._engine.services()

    # ---------------------------------------------------------- front desk

    def user_lookup(self, requester: str, nonce: bytes) -> LookupResult:
        """Scheme-B step one: resolve on the user's behalf, return attestation.

        The only caller of ``Resolver.resolve``, and so the only signer.
        """
        if not self._front_desk_limiter.allow(requester):
            return LookupResult(False, None, "rejected-rate")
        try:
            result = self._resolver.resolve(requester, nonce)
        except (UnknownDidError, NoDriverError, DidParseError):
            return LookupResult(False, None, "unresolvable")
        return LookupResult(True, result.attestation, "ok")

    # ------------------------------------------------------------ requests

    def request_access(
        self, request: AccessRequest, attestation: Attestation | None = None
    ) -> AccessOutcome:
        if request.scheme == SCHEME_CONTRACT_LOOKUP:
            return self._contract_lookup(request)
        return self._user_lookup_submit(request, attestation)

    def _contract_lookup(self, request: AccessRequest) -> AccessOutcome:
        if not self._contract_limiter.allow(request.requester):
            return AccessOutcome("rejected-rate", "per-requester rate limit")
        contract = self._engine.for_service(request.service)
        nonce_hex = to_hex(request.nonce)
        if not self.pending.try_insert(nonce_hex, request):
            if self.pending.contains(nonce_hex):
                return AccessOutcome("denied", "replay")
            return AccessOutcome("rejected-capacity", "pending table full")
        try:
            document = self._resolver.fetch(request.requester)
        except (UnknownDidError, NoDriverError, DidParseError):
            # The lookup the contract kicked off never completes; the entry
            # stays parked until the ttl sweep reclaims it.
            return AccessOutcome("denied", "unresolvable")
        outcome = self._execute(contract.contract_id, document, nonce_hex)
        self.pending.remove(nonce_hex)
        return outcome

    def _user_lookup_submit(
        self, request: AccessRequest, attestation: Attestation | None
    ) -> AccessOutcome:
        if attestation is None:
            return AccessOutcome("denied", "missing-attestation")
        if attestation.did != request.requester:
            return AccessOutcome("denied", "attestation-mismatch")
        contract = self._engine.for_service(request.service)
        if not self._used_nonces.consume(to_hex(attestation.nonce)):
            return AccessOutcome("denied", "replay")
        try:
            document = self._resolver.fetch(request.requester)
        except (UnknownDidError, NoDriverError, DidParseError):
            return AccessOutcome("denied", "unresolvable")
        # The attestation came from outside, so it is checked here.
        if not attestation.verify(document.canonical_bytes(), self._resolver.public_key):
            return AccessOutcome("denied", "stale-attestation")
        return self._execute(contract.contract_id, document, to_hex(request.nonce))

    def _execute(
        self, contract_id: str, document, request_ref: str | None = None
    ) -> AccessOutcome:
        now = int(self._clock())
        verdict: Verdict = self._engine.execute(
            contract_id, document, now=now, request_ref=request_ref
        )
        if verdict.granted:
            record = self.grants.add(verdict.grant, self._metadata_address, now)
            return AccessOutcome(
                "granted", "all-claims-valid", grant=record, tx_id=verdict.tx_id
            )
        return AccessOutcome(
            "denied", "missing-claims", missing=verdict.missing, tx_id=verdict.tx_id
        )
