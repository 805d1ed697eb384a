"""Claim issuance and verification policy.

Issuers live on an allow-list (the consortium). Issuing appends the
signed claim to the subject's document through the registry's update
path, so the document version ticks forward. Verification fetches the
issuer's document (unsigned; the check runs in-process) and checks
trust, signature, and validity window, reporting a machine-readable
reason for every rejection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..claims import VerifiableClaim, sign_claim
from ..errors import FedGateError
from ..identity import DidRegistry, Resolver
from ..identity.registry import UnknownDidError
from ..keys import KeyPair


class ForbiddenIssuerError(FedGateError):
    """The issuer DID is not on the trusted allow-list."""


@dataclass(frozen=True)
class ClaimVerdict:
    valid: bool
    reason: str


class ClaimIssuer:
    def __init__(
        self,
        did: str,
        keypair: KeyPair,
        registry: DidRegistry,
        trusted_issuers: frozenset[str],
        clock: Callable[[], int],
    ):
        self.did = did
        self._keypair = keypair
        self._registry = registry
        self._trusted = trusted_issuers
        self._clock = clock

    def issue(
        self, subject: str, claim_type: str, value: str, validity_seconds: int
    ) -> VerifiableClaim:
        """Sign a claim for a registered subject and attach it to their document."""
        if self.did not in self._trusted:
            raise ForbiddenIssuerError(f"{self.did} is not a trusted issuer")
        document = self._registry.get(subject)  # raises UnknownDidError
        now = int(self._clock())
        claim = sign_claim(
            self._keypair,
            claim_type=claim_type,
            value=value,
            subject=subject,
            issuer=self.did,
            issued_at=now,
            expires_at=now + int(validity_seconds),
        )
        self._registry.update(document.with_claim(claim))
        return claim


def verify_claim(
    claim: VerifiableClaim,
    now: int,
    resolver: Resolver,
    trusted_issuers: frozenset[str],
) -> ClaimVerdict:
    """Stand-alone verifier: trust, signature against issuer document, window."""
    if claim.issuer not in trusted_issuers:
        return ClaimVerdict(False, "untrusted-issuer")
    try:
        issuer = resolver.fetch(claim.issuer)
    except (UnknownDidError, FedGateError):
        return ClaimVerdict(False, "unresolvable-issuer")
    issuer_keys = [k.public_bytes for k in issuer.public_keys]
    if not claim.signature_valid(issuer_keys):
        return ClaimVerdict(False, "bad-signature")
    if now < claim.issued_at:
        return ClaimVerdict(False, "not-yet-valid")
    if now >= claim.expires_at:
        return ClaimVerdict(False, "expired")
    return ClaimVerdict(True, "valid")


def make_claim_checker(
    resolver: Resolver, trusted_issuers: frozenset[str]
) -> Callable[[VerifiableClaim, int], tuple[bool, str]]:
    """Adapter feeding this policy into the contract engine."""

    def checker(claim: VerifiableClaim, now: int) -> tuple[bool, str]:
        verdict = verify_claim(claim, now, resolver, trusted_issuers)
        return verdict.valid, verdict.reason

    return checker
