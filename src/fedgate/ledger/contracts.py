"""Access policies as data, executed deterministically against documents.

A contract lists required claims, each with a predicate over the claim
value (``equals`` / ``one_of`` / ``present``), names the service it
gates, and is owned by a DID. Evaluation is a pure function of
(contract, document, now): it consults only the injected claim checker.
Execution additionally mints a session grant token and seals the verdict
onto the chain as an ``access_grant`` or ``access_denial`` transaction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable

from ..canonical import canonical_json_bytes, sha256_hex, to_hex
from ..claims import VerifiableClaim
from ..clock import wall_clock
from ..errors import FedGateError, ValidationError
from ..keys import verify_signature
from .chain import Chain, Transaction

GRANT_LIFETIME_SECONDS = 3600
_PREDICATE_KINDS = ("equals", "one_of", "present")


class ContractNotFoundError(FedGateError):
    """No contract matches the requested id or service."""


class UnauthorizedError(FedGateError):
    """A signature did not verify against the claimed owner's keys."""


@dataclass(frozen=True)
class ClaimPredicate:
    kind: str
    value: str | None = None
    values: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _PREDICATE_KINDS:
            raise ValidationError(f"unknown predicate kind {self.kind!r}")
        if self.kind == "equals" and self.value is None:
            raise ValidationError("equals predicate needs a value")
        if self.kind == "one_of" and not self.values:
            raise ValidationError("one_of predicate needs a non-empty value set")
        object.__setattr__(self, "values", tuple(self.values))

    def matches(self, value: str) -> bool:
        if self.kind == "equals":
            return value == self.value
        if self.kind == "one_of":
            return value in self.values
        return True

    def to_dict(self) -> dict:
        if self.kind == "equals":
            return {"kind": "equals", "value": self.value}
        if self.kind == "one_of":
            return {"kind": "one_of", "values": sorted(self.values)}
        return {"kind": "present"}

    @classmethod
    def from_dict(cls, data: dict) -> "ClaimPredicate":
        return cls(
            kind=data["kind"],
            value=data.get("value"),
            values=tuple(data.get("values", ())),
        )


@dataclass(frozen=True)
class ClaimRequirement:
    claim_type: str
    predicate: ClaimPredicate

    def to_dict(self) -> dict:
        return {"claimType": self.claim_type, "predicate": self.predicate.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "ClaimRequirement":
        return cls(
            claim_type=data["claimType"],
            predicate=ClaimPredicate.from_dict(data["predicate"]),
        )


def _contract_body(
    required_claims: tuple[ClaimRequirement, ...], grants_service: str, owner: str
) -> bytes:
    return canonical_json_bytes(
        {
            "requiredClaims": [r.to_dict() for r in required_claims],
            "grantsService": grants_service,
            "owner": owner,
        }
    )


@dataclass(frozen=True)
class AccessPolicyContract:
    contract_id: str
    required_claims: tuple[ClaimRequirement, ...]
    grants_service: str
    owner: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "required_claims", tuple(self.required_claims))
        if not self.required_claims:
            raise ValidationError("a contract must require at least one claim")
        if not self.grants_service:
            raise ValidationError("grants_service must be non-empty")
        if self.contract_id != sha256_hex(self.signing_bytes()):
            raise ValidationError("contract_id does not match contract body")

    def signing_bytes(self) -> bytes:
        """Canonical body: what the owner signs and the id hashes."""
        return _contract_body(self.required_claims, self.grants_service, self.owner)

    @classmethod
    def create(
        cls,
        required_claims: tuple[ClaimRequirement, ...],
        grants_service: str,
        owner: str,
    ) -> "AccessPolicyContract":
        body = _contract_body(tuple(required_claims), grants_service, owner)
        return cls(
            contract_id=sha256_hex(body),
            required_claims=tuple(required_claims),
            grants_service=grants_service,
            owner=owner,
        )

    def to_dict(self) -> dict:
        return {
            "contractId": self.contract_id,
            "requiredClaims": [r.to_dict() for r in self.required_claims],
            "grantsService": self.grants_service,
            "owner": self.owner,
        }


@dataclass(frozen=True)
class GrantToken:
    token: str
    contract_id: str
    holder: str
    service: str
    expires_at: int

    def to_dict(self) -> dict:
        return {
            "token": self.token,
            "contractId": self.contract_id,
            "holder": self.holder,
            "service": self.service,
            "expiresAt": self.expires_at,
        }


@dataclass(frozen=True)
class Verdict:
    granted: bool
    contract_id: str
    subject: str
    missing: tuple[str, ...] = ()
    grant: GrantToken | None = None
    tx_id: str | None = None


class ContractEngine:
    """Deploys policies and evaluates documents against them.

    ``document_lookup`` maps a DID string to its current document (or
    raises/returns None); ``claim_checker(claim, now)`` returns
    ``(valid, reason)`` and carries the issuer-trust and signature
    policy. ``token_bytes`` is injectable so demos can mint reproducible
    grant tokens.
    """

    def __init__(
        self,
        chain: Chain,
        *,
        document_lookup: Callable[[str], object],
        claim_checker: Callable[[VerifiableClaim, int], tuple[bool, str]],
        clock: Callable[[], int] | None = None,
        token_bytes: Callable[[], bytes] | None = None,
    ):
        self._chain = chain
        self._document_lookup = document_lookup
        self._claim_checker = claim_checker
        self._clock = clock or wall_clock
        self._token_bytes = token_bytes or (lambda: os.urandom(16))
        self._contracts: dict[str, AccessPolicyContract] = {}
        self._by_service: dict[str, str] = {}

    def deploy(self, contract: AccessPolicyContract, signature: bytes) -> str:
        """Store a policy after checking the owner's signature; returns id."""
        document = self._document_lookup(contract.owner)
        if document is None:
            raise UnauthorizedError(f"owner {contract.owner} has no document")
        keys = document.authentication_keys()
        body = contract.signing_bytes()
        if not any(verify_signature(k, body, signature) for k in keys):
            raise UnauthorizedError(
                f"signature does not verify against owner {contract.owner}"
            )
        if contract.contract_id in self._contracts:
            raise ValidationError(f"contract {contract.contract_id} already deployed")
        if contract.grants_service in self._by_service:
            raise ValidationError(
                f"service {contract.grants_service!r} already has a policy"
            )
        self._chain.record(
            "deploy_contract", contract.to_dict(), submitter=contract.owner
        )
        self._contracts[contract.contract_id] = contract
        self._by_service[contract.grants_service] = contract.contract_id
        return contract.contract_id

    def get(self, contract_id: str) -> AccessPolicyContract:
        try:
            return self._contracts[contract_id]
        except KeyError:
            raise ContractNotFoundError(f"no contract {contract_id}") from None

    def for_service(self, service: str) -> AccessPolicyContract:
        contract_id = self._by_service.get(service)
        if contract_id is None:
            raise ContractNotFoundError(f"no contract grants service {service!r}")
        return self._contracts[contract_id]

    def query_requirements(self, service: str) -> tuple[ClaimRequirement, ...]:
        return self.for_service(service).required_claims

    def services(self) -> list[str]:
        return sorted(self._by_service)

    def evaluate(self, contract_id: str, document, now: int) -> Verdict:
        """Pure verdict: no chain write, no token, same inputs → same output."""
        contract = self.get(contract_id)
        subject = str(document.id)
        missing = []
        for requirement in contract.required_claims:
            satisfied = False
            for claim in document.claims:
                if claim.claim_type != requirement.claim_type:
                    continue
                if claim.subject != subject:
                    continue
                if not requirement.predicate.matches(claim.value):
                    continue
                valid, _reason = self._claim_checker(claim, now)
                if valid:
                    satisfied = True
                    break
            if not satisfied:
                missing.append(requirement.claim_type)
        return Verdict(
            granted=not missing,
            contract_id=contract_id,
            subject=subject,
            missing=tuple(missing),
        )

    def execute(
        self,
        contract_id: str,
        document,
        now: int | None = None,
        request_ref: str | None = None,
    ) -> Verdict:
        """Evaluate and seal the verdict onto the chain; grants mint a token.

        ``request_ref`` (typically the request nonce) is folded into the
        sealed payload so every evaluated request leaves its own transaction,
        even when two denials would otherwise be byte-identical.
        """
        now = int(self._clock()) if now is None else int(now)
        verdict = self.evaluate(contract_id, document, now)
        contract = self.get(contract_id)
        if verdict.granted:
            grant = GrantToken(
                token=to_hex(self._token_bytes()),
                contract_id=contract_id,
                holder=verdict.subject,
                service=contract.grants_service,
                expires_at=now + GRANT_LIFETIME_SECONDS,
            )
            payload = grant.to_dict()
            if request_ref is not None:
                payload["requestRef"] = request_ref
            tx_id = self._chain.record(
                "access_grant", payload, submitter=verdict.subject
            )
            return replace(verdict, grant=grant, tx_id=tx_id)
        payload = {
            "contractId": contract_id,
            "holder": verdict.subject,
            "service": contract.grants_service,
            "missing": list(verdict.missing),
        }
        if request_ref is not None:
            payload["requestRef"] = request_ref
        tx_id = self._chain.record("access_denial", payload, submitter=verdict.subject)
        return replace(verdict, tx_id=tx_id)
