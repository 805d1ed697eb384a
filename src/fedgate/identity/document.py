"""DID documents: the resolvable record behind an identifier.

A document carries public key material, authentication descriptors,
service endpoints, attached claims, and a version counter. The canonical
JSON encoding (sorted keys, no whitespace, lowercase hex) is the byte
string every registry hash and resolver attestation operates on.

Canonical schema::

    {
      "authentication": ["key-1", ...],
      "claims": [<claim dict>, ...],
      "id": "did:efed:alice01",
      "publicKeys": [
        {"algorithm": "Ed25519", "keyId": "key-1", "publicKeyHex": "..."}
      ],
      "serviceEndpoints": [{"type": "flaas", "uri": "efed://..."}],
      "version": 1
    }
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..canonical import canonical_json_bytes, from_hex, sha256_hex, to_hex
from ..claims import VerifiableClaim
from ..errors import ValidationError
from .did import DidIdentifier, parse_did


@dataclass(frozen=True)
class PublicKeyEntry:
    key_id: str
    algorithm: str
    public_bytes: bytes

    def __post_init__(self) -> None:
        if not self.key_id:
            raise ValidationError("key_id must be non-empty")

    def to_dict(self) -> dict:
        return {
            "keyId": self.key_id,
            "algorithm": self.algorithm,
            "publicKeyHex": to_hex(self.public_bytes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PublicKeyEntry":
        return cls(
            key_id=data["keyId"],
            algorithm=data["algorithm"],
            public_bytes=from_hex(data["publicKeyHex"]),
        )


@dataclass(frozen=True)
class ServiceEndpoint:
    type: str
    uri: str

    def to_dict(self) -> dict:
        return {"type": self.type, "uri": self.uri}

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceEndpoint":
        return cls(type=data["type"], uri=data["uri"])


@dataclass(frozen=True)
class DidDocument:
    id: DidIdentifier
    public_keys: tuple[PublicKeyEntry, ...] = ()
    authentication: tuple[str, ...] = ()
    service_endpoints: tuple[ServiceEndpoint, ...] = ()
    claims: tuple[VerifiableClaim, ...] = ()
    version: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "public_keys", tuple(self.public_keys))
        object.__setattr__(self, "authentication", tuple(self.authentication))
        object.__setattr__(self, "service_endpoints", tuple(self.service_endpoints))
        object.__setattr__(self, "claims", tuple(self.claims))
        if self.version < 1:
            raise ValidationError(f"version must be >= 1, got {self.version}")
        key_ids = [k.key_id for k in self.public_keys]
        if len(set(key_ids)) != len(key_ids):
            raise ValidationError(f"duplicate key ids in document {self.id}")
        known = set(key_ids)
        for ref in self.authentication:
            if ref not in known:
                raise ValidationError(
                    f"authentication entry {ref!r} references no key in document {self.id}"
                )

    @classmethod
    def for_key(cls, method: str, specific_id: str, public_bytes: bytes) -> "DidDocument":
        """Version-1 document with one Ed25519 key, ``key-1``, that authenticates."""
        return cls(
            id=DidIdentifier(method, specific_id),
            public_keys=(PublicKeyEntry("key-1", "Ed25519", public_bytes),),
            authentication=("key-1",),
        )

    def authentication_keys(self) -> list[bytes]:
        """Public bytes of every key usable for authentication."""
        wanted = set(self.authentication)
        return [k.public_bytes for k in self.public_keys if k.key_id in wanted]

    def with_claim(self, claim: VerifiableClaim) -> "DidDocument":
        """Next document version with one more claim attached."""
        return replace(self, claims=self.claims + (claim,), version=self.version + 1)

    def canonical_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_dict())

    def digest(self) -> str:
        return sha256_hex(self.canonical_bytes())

    def to_dict(self) -> dict:
        return {
            "id": str(self.id),
            "publicKeys": [k.to_dict() for k in self.public_keys],
            "authentication": list(self.authentication),
            "serviceEndpoints": [s.to_dict() for s in self.service_endpoints],
            "claims": [c.to_dict() for c in self.claims],
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DidDocument":
        return cls(
            id=parse_did(data["id"]),
            public_keys=tuple(PublicKeyEntry.from_dict(k) for k in data["publicKeys"]),
            authentication=tuple(data["authentication"]),
            service_endpoints=tuple(
                ServiceEndpoint.from_dict(s) for s in data["serviceEndpoints"]
            ),
            claims=tuple(VerifiableClaim.from_dict(c) for c in data["claims"]),
            version=int(data["version"]),
        )
