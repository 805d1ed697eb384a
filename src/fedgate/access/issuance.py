"""Claim issuance and verification policy.

Issuers live on an allow-list (the consortium) that verification checks, not
issuance. Issuing appends the signed claim to the subject's document through
the registry's update path, so the document version ticks forward.
Verification finds the issuer's document (unsigned; the check runs
in-process) and checks trust, signature, and validity window, reporting a
machine-readable reason for every rejection.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from ..claims import VerifiableClaim, sign_claim
from ..identity import DidRegistry, Resolver
from ..keys import KeyPair

CLAIM_CACHE_SIZE = 4096

SignatureCache = OrderedDict[tuple[VerifiableClaim, tuple[bytes, ...]], bool]


class ClaimIssuer:
    def __init__(
        self,
        did: str,
        keypair: KeyPair,
        registry: DidRegistry,
        trusted_issuers: frozenset[str],  # unread: verify_claim checks trust; bench/desk.py passes it
        clock: Callable[[], int],
    ):
        self.did = did
        self._keypair = keypair
        self._registry = registry
        self._clock = clock

    def issue(
        self, subject: str, claim_type: str, value: str, validity_seconds: int
    ) -> VerifiableClaim:
        """Sign a claim for a registered subject and attach it to their document."""
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
    cache: SignatureCache,
) -> tuple[bool, str]:
    """Stand-alone verifier: trust, signature against issuer document, window.

    Returns ``(valid, reason)``, the shape the contract engine's claim
    checker takes. ``cache`` holds the last ``CLAIM_CACHE_SIZE`` signature
    results, least recently used first, keyed by the claim and its issuer's
    current keys: a repeat check skips Ed25519, a rotated key misses. Trust,
    issuer lookup and the validity window run on every call.
    """
    if claim.issuer not in trusted_issuers:
        return False, "untrusted-issuer"
    issuer = resolver.find(claim.issuer)
    if issuer is None:
        return False, "unresolvable-issuer"
    key = (claim, tuple(k.public_bytes for k in issuer.public_keys))
    signed = cache.pop(key, None)
    if signed is None:
        signed = claim.signature_valid(key[1])
    cache[key] = signed
    while len(cache) > CLAIM_CACHE_SIZE:
        cache.popitem(last=False)
    if not signed:
        return False, "bad-signature"
    if now < claim.issued_at:
        return False, "not-yet-valid"
    if now >= claim.expires_at:
        return False, "expired"
    return True, "valid"


def make_claim_checker(
    resolver: Resolver, trusted_issuers: frozenset[str]
) -> Callable[[VerifiableClaim, int], tuple[bool, str]]:
    """Adapter feeding this policy into the contract engine, with its own cache."""
    cache: SignatureCache = OrderedDict()
    return lambda claim, now: verify_claim(claim, now, resolver, trusted_issuers, cache)
