"""Driver-mediated DID resolution, with signed attestations at the front desk.

The resolver keeps a route table from DID method to driver backend.
``fetch`` routes a DID to its driver and returns the latest document
unsigned; every in-process reader (the contract path, claim checks, the
user-lookup submit step) uses it, since a signature the same process
makes and checks proves nothing. ``resolve`` attests to a document the
caller has just fetched: an Ed25519 signature by the resolver over
``canonical document bytes ‖ request nonce``. Only the front desk calls it,
because only there does the attestation leave the desk: the requester is
never shown the document, forwards the attestation, and the gateway checks
it against the document it fetches itself.

That check is ``Resolver.verify``, and it signs nothing: the resolver keeps
each attestation it issues, by nonce, in one table of at most
``ISSUED_ATTESTATIONS``, oldest evicted first. ``verify`` pops the nonce's
entry and accepts only that attestation, field for field (the signature in
constant time), over the document just fetched: an attestation is checked
once, ever. So a user-lookup grant costs one Ed25519 sign and a
contract-lookup grant none. The key is a required argument: a resolver
never draws a random one, since every caller passes its own.
"""

from __future__ import annotations

import hmac
from collections import OrderedDict
from dataclasses import dataclass

from ..canonical import from_hex
from ..errors import ValidationError, from_camel_keys, to_camel_dict
from ..keys import KeyPair
from .did import DidIdentifier, parse_did
from .document import DidDocument
from .registry import DidRegistry, UnknownDidError

# What ``Resolver.fetch`` raises for a DID it cannot serve.
UNRESOLVABLE = (UnknownDidError, ValidationError)
ISSUED_ATTESTATIONS = 4096


@dataclass(frozen=True)
class Attestation:
    did: str
    nonce: bytes
    document_digest: str
    resolver: str
    signature: bytes

    def to_dict(self) -> dict:
        return to_camel_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Attestation":
        return from_camel_keys(cls, data, "attestation", nonce=from_hex, signature=from_hex)


class RegistryDriver:
    """Backend that serves documents straight from a :class:`DidRegistry`."""

    def __init__(self, registry: DidRegistry):
        self._registry = registry

    def fetch(self, did: DidIdentifier) -> DidDocument:
        return self._registry.get(did)


class Resolver:
    def __init__(self, name: str, keypair: KeyPair):
        self.name = name
        self._keypair = keypair
        self._drivers: dict[str, object] = {}
        self._issued: OrderedDict[bytes, Attestation] = OrderedDict()

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
            raise UnknownDidError(f"no driver registered for method {identifier.method!r}")
        return driver.fetch(identifier)

    def resolve(self, document: DidDocument, nonce: bytes) -> Attestation:
        """Attest to ``document``, just fetched, under ``nonce``; keep it for ``verify``.

        Signs, so only the front desk calls it, after its fetch and its rate
        limit; in-process readers only ``fetch``.
        """
        nonce = bytes(nonce)
        attestation = self._issued[nonce] = Attestation(
            did=str(document.id),
            nonce=nonce,
            document_digest=document.digest(),
            resolver=self.name,
            signature=self._keypair.sign(document.canonical_bytes() + nonce),
        )
        if len(self._issued) > ISSUED_ATTESTATIONS:
            self._issued.popitem(last=False)
        return attestation

    def verify(self, attestation: Attestation, document: DidDocument) -> bool:
        """True iff this resolver issued ``attestation``, unpresented, over ``document``.

        Pops the nonce's entry whatever the answer, so no attestation is
        checked twice; signs nothing, since the issued attestation is kept.
        """
        issued = self._issued.pop(attestation.nonce, None)
        return (
            issued is not None
            and (issued.did, issued.document_digest, issued.resolver)
            == (attestation.did, attestation.document_digest, attestation.resolver)
            and hmac.compare_digest(issued.signature, attestation.signature)
            and issued.document_digest == document.digest()
        )
