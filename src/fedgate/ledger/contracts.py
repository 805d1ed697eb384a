"""Access policies as data, executed deterministically against documents.

A contract lists required claims, each with the value its claim must
equal, names the service it gates, and is owned by a DID. Evaluation is a
pure function of (contract, document, now): it consults only the injected
claim checker. Execution additionally reads the engine's clock, mints a
session grant token and seals the verdict onto the chain as an
``access_grant`` or ``access_denial`` transaction. The verdict is an
:class:`AccessOutcome`, the value the requester receives. The clock and the
token source are required: no default stands in for them, since every caller
(and every test) passes its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..canonical import canonical_json_bytes, sha256_hex
from ..claims import VerifiableClaim
from ..errors import FedGateError, ValidationError, to_camel_dict
from ..keys import verify_signature
from .chain import Chain

GRANT_LIFETIME_SECONDS = 3600


class ContractNotFoundError(FedGateError):
    """No contract gates the requested service."""


@dataclass(frozen=True)
class ClaimPredicate:
    """The value a required claim must equal. The body is sealed and hashed into
    the contract id, so ``kind`` names the one rule ``evaluate`` runs."""

    kind: str
    value: str

    def __post_init__(self) -> None:
        if self.kind != "equals":
            raise ValidationError(f"unknown predicate kind {self.kind!r}")

    def to_dict(self) -> dict:
        return to_camel_dict(self)


@dataclass(frozen=True)
class ClaimRequirement:
    claim_type: str
    predicate: ClaimPredicate

    def to_dict(self) -> dict:
        return to_camel_dict(self)


@dataclass(frozen=True)
class AccessPolicyContract:
    required_claims: tuple[ClaimRequirement, ...]
    grants_service: str
    owner: str
    contract_id: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "required_claims", tuple(self.required_claims))
        if not self.required_claims:
            raise ValidationError("a contract must require at least one claim")
        object.__setattr__(self, "contract_id", sha256_hex(self.signing_bytes()))

    def signing_bytes(self) -> bytes:
        """Canonical body, every field but the id: what the owner signs and the id hashes."""
        return canonical_json_bytes(to_camel_dict(self))

    @classmethod
    def create(
        cls,
        required_claims: tuple[ClaimRequirement, ...],
        grants_service: str,
        owner: str,
    ) -> "AccessPolicyContract":
        return cls(required_claims, grants_service, owner)

    def to_dict(self) -> dict:
        return {"contractId": self.contract_id, **to_camel_dict(self)}


@dataclass(frozen=True)
class GrantToken:
    token: str
    contract_id: str
    holder: str
    service: str
    expires_at: int

    def to_dict(self) -> dict:
        """The ``access_grant`` payload. Every party reads the ledger, so it
        holds the SHA-256 of the bearer token's text, never the token itself
        (RFC 6750 §5.3): an auditor can match a presented token to its grant,
        and a reader of the ledger cannot present it."""
        return {
            "tokenDigest": sha256_hex(self.token.encode()),
            "contractId": self.contract_id,
            "holder": self.holder,
            "service": self.service,
            "expiresAt": self.expires_at,
        }


@dataclass(frozen=True)
class AccessOutcome:
    """Requester-facing verdict; carries a tx id iff a contract evaluated it."""

    decision: str  # granted | denied | rejected-rate | rejected-capacity
    reason: str
    missing: tuple[str, ...] = ()
    grant: GrantToken | None = None
    tx_id: str | None = None


GRANTED = AccessOutcome("granted", "all-claims-valid")


class ContractEngine:
    """Deploys policies, one per service, and evaluates documents against them.

    One table, keyed by service: a contract's id hashes its service, so the
    service check also refuses a second copy. ``for_service`` is the one
    lookup; its caller carries the contract to ``evaluate`` and ``execute``.

    ``document_lookup`` maps a DID string to its current document, or None
    when it has none; an exception it raises escapes ``deploy``.
    ``claim_checker(claim, now)`` returns ``(valid, reason)`` and carries the
    issuer-trust and signature policy. ``token_bytes`` mints each grant
    token's bytes, so a desk built from a seed mints reproducible ones.
    """

    def __init__(
        self,
        chain: Chain,
        *,
        document_lookup: Callable[[str], object],
        claim_checker: Callable[[VerifiableClaim, int], tuple[bool, str]],
        clock: Callable[[], int],
        token_bytes: Callable[[], bytes],
    ):
        self._chain = chain
        self._document_lookup = document_lookup
        self._claim_checker = claim_checker
        self._clock = clock
        self._token_bytes = token_bytes
        self._by_service: dict[str, AccessPolicyContract] = {}

    def deploy(self, contract: AccessPolicyContract, signature: bytes) -> None:
        """Store a policy after checking the owner's signature."""
        document = self._document_lookup(contract.owner)
        if document is None:
            raise FedGateError(f"owner {contract.owner} has no document")
        keys = document.authentication_keys()
        body = contract.signing_bytes()
        if not any(verify_signature(k, body, signature) for k in keys):
            raise FedGateError(f"signature does not verify against owner {contract.owner}")
        if contract.grants_service in self._by_service:
            raise ValidationError(
                f"service {contract.grants_service!r} already has a policy"
            )
        self._chain.record(
            "deploy_contract", contract.to_dict(), submitter=contract.owner
        )
        self._by_service[contract.grants_service] = contract

    def for_service(self, service: str) -> AccessPolicyContract:
        try:
            return self._by_service[service]
        except KeyError:
            raise ContractNotFoundError(f"no contract grants service {service!r}") from None

    def services(self) -> list[str]:
        return sorted(self._by_service)

    def evaluate(self, contract: AccessPolicyContract, document, now: int) -> AccessOutcome:
        """Pure verdict: no chain write, no token, same inputs → same output."""
        subject = str(document.id)
        missing = []
        for requirement in contract.required_claims:
            satisfied = False
            for claim in document.claims:
                if claim.claim_type != requirement.claim_type:
                    continue
                if claim.subject != subject:
                    continue
                if claim.value != requirement.predicate.value:
                    continue
                valid, _reason = self._claim_checker(claim, now)
                if valid:
                    satisfied = True
                    break
            if not satisfied:
                missing.append(requirement.claim_type)
        if missing:
            return AccessOutcome("denied", "missing-claims", tuple(missing))
        return GRANTED

    def execute(self, contract: AccessPolicyContract, document, request_ref: str) -> AccessOutcome:
        """Evaluate at the engine's clock and seal the verdict; grants mint a token.

        ``request_ref`` (the request nonce) is folded into the sealed payload
        so every evaluated request leaves its own transaction, even when two
        denials would otherwise be byte-identical.
        """
        now = int(self._clock())
        subject = str(document.id)
        verdict = self.evaluate(contract, document, now)
        grant = None
        if verdict.decision == "granted":
            grant = GrantToken(
                token=self._token_bytes().hex(),
                contract_id=contract.contract_id,
                holder=subject,
                service=contract.grants_service,
                expires_at=now + GRANT_LIFETIME_SECONDS,
            )
            kind, payload = "access_grant", grant.to_dict()
        else:
            kind, payload = "access_denial", {
                "contractId": contract.contract_id,
                "holder": subject,
                "service": contract.grants_service,
                "missing": list(verdict.missing),
            }
        payload["requestRef"] = request_ref
        tx_id = self._chain.record(kind, payload, submitter=subject)
        return AccessOutcome(verdict.decision, verdict.reason, verdict.missing, grant, tx_id)
