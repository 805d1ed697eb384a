"""Driver-mediated DID resolution, with signed attestations at the front desk.

The resolver keeps a route table from DID method to driver backend.
``fetch`` routes a DID to its driver and returns the latest document
unsigned; every in-process reader (the contract path, claim checks, the
user-lookup submit step) uses it, since a signature the same process
makes and checks proves nothing. ``resolve`` is ``fetch`` plus an
attestation: an Ed25519 signature by the resolver over ``canonical
document bytes ‖ request nonce``. Only the front desk calls it, because
only there does the attestation leave the desk: the requester is never
shown the document, forwards the attestation, and the gateway checks it
against the document it fetches itself. Flipping a single bit of either
input breaks the check.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..canonical import from_hex, sha256_hex, to_hex
from ..errors import FedGateError, ValidationError
from ..keys import KeyPair, verify_signature
from .did import DidIdentifier, parse_did
from .document import DidDocument
from .registry import DidRegistry


class NoDriverError(FedGateError):
    """No driver is registered for the DID method."""


@dataclass(frozen=True)
class Attestation:
    did: str
    nonce: bytes
    document_digest: str
    resolver: str
    signature: bytes

    def signed_message(self, document_bytes: bytes) -> bytes:
        return document_bytes + self.nonce

    def verify(self, document_bytes: bytes, resolver_public: bytes) -> bool:
        """Check the attestation against the actual document bytes."""
        if sha256_hex(document_bytes) != self.document_digest:
            return False
        return verify_signature(
            resolver_public, self.signed_message(document_bytes), self.signature
        )

    def to_dict(self) -> dict:
        return {
            "did": self.did,
            "nonce": to_hex(self.nonce),
            "documentDigest": self.document_digest,
            "resolver": self.resolver,
            "signature": to_hex(self.signature),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Attestation":
        return cls(
            did=data["did"],
            nonce=from_hex(data["nonce"]),
            document_digest=data["documentDigest"],
            resolver=data["resolver"],
            signature=from_hex(data["signature"]),
        )


@dataclass(frozen=True)
class ResolutionResult:
    document: DidDocument
    resolved_by: str
    attestation: Attestation


class RegistryDriver:
    """Backend that serves documents straight from a :class:`DidRegistry`."""

    def __init__(self, registry: DidRegistry, name: str = "registry"):
        self._registry = registry
        self.name = name

    def fetch(self, did: DidIdentifier) -> DidDocument:
        return self._registry.get(did)


class Resolver:
    def __init__(self, name: str, keypair: KeyPair | None = None):
        self.name = name
        self._keypair = keypair or KeyPair.generate()
        self._drivers: dict[str, object] = {}

    @property
    def public_key(self) -> bytes:
        return self._keypair.public_bytes

    def register_driver(self, method: str, driver) -> None:
        if not method:
            raise ValidationError("driver method must be non-empty")
        if method in self._drivers:
            raise ValidationError(f"a driver for method {method!r} already exists")
        self._drivers[method] = driver

    def fetch(self, did: DidIdentifier | str) -> DidDocument:
        """The latest document from the method's driver, with no attestation."""
        identifier = parse_did(did) if isinstance(did, str) else did
        driver = self._drivers.get(identifier.method)
        if driver is None:
            raise NoDriverError(f"no driver registered for method {identifier.method!r}")
        return driver.fetch(identifier)

    def resolve(self, did: DidIdentifier | str, nonce: bytes) -> ResolutionResult:
        """Fetch the latest document and attest to it under ``nonce``.

        Signs, so only the front desk calls it; in-process readers ``fetch``.
        """
        identifier = parse_did(did) if isinstance(did, str) else did
        document = self.fetch(identifier)
        driver = self._drivers[identifier.method]
        body = document.canonical_bytes()
        attestation = Attestation(
            did=str(identifier),
            nonce=bytes(nonce),
            document_digest=sha256_hex(body),
            resolver=self.name,
            signature=self._keypair.sign(body + bytes(nonce)),
        )
        return ResolutionResult(
            document=document,
            resolved_by=getattr(driver, "name", type(driver).__name__),
            attestation=attestation,
        )
