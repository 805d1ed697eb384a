"""DID documents: the resolvable record behind an identifier.

A document carries public key material, authentication descriptors,
attached claims, and a version counter; it has no service endpoints, which
W3C DID Core makes optional and no desk program fills. The canonical JSON
encoding (sorted keys, no whitespace, lowercase hex) is the byte string
every registry hash and resolver attestation operates on.

Canonical schema::

    {
      "authentication": ["key-1", ...],
      "claims": [<claim dict>, ...],
      "id": "did:efed:alice01",
      "publicKeys": [
        {"algorithm": "Ed25519", "keyId": "key-1", "publicKeyHex": "..."}
      ],
      "version": 1
    }
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..canonical import canonical_json_bytes, from_hex, sha256_hex
from ..claims import VerifiableClaim
from ..errors import ValidationError, check_field_types, check_keys, to_camel_dict
from ..keys import ALGORITHM
from .did import DidIdentifier, parse_did

_DOCUMENT_KEYS = frozenset({"id", "publicKeys", "authentication", "claims", "version"})


@dataclass(frozen=True)
class PublicKeyEntry:
    key_id: str
    algorithm: str
    public_bytes: bytes

    def __post_init__(self) -> None:
        check_field_types(self, "public key", (("key_id", str), ("public_bytes", bytes)))
        if not self.key_id:
            raise ValidationError("key_id must be non-empty")
        if self.algorithm != ALGORITHM:
            raise ValidationError(f"key algorithm must be {ALGORITHM}, got {self.algorithm!r}")

    def to_dict(self) -> dict:
        return {
            "keyId": self.key_id,
            "algorithm": self.algorithm,
            "publicKeyHex": self.public_bytes.hex(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PublicKeyEntry":
        check_keys(data, "public key", {"keyId", "algorithm", "publicKeyHex"})
        return cls(
            key_id=data["keyId"],
            algorithm=data["algorithm"],
            public_bytes=from_hex(data["publicKeyHex"]),
        )


@dataclass(frozen=True)
class DidDocument:
    id: DidIdentifier
    public_keys: tuple[PublicKeyEntry, ...] = ()
    authentication: tuple[str, ...] = ()
    claims: tuple[VerifiableClaim, ...] = ()
    version: int = 1
    # (canonical bytes, their SHA-256), encoded once: this record and all it holds are frozen.
    _encoded: tuple[bytes, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "public_keys", tuple(self.public_keys))
        object.__setattr__(self, "authentication", tuple(self.authentication))
        object.__setattr__(self, "claims", tuple(self.claims))
        check_field_types(self, "document", (("version", int),))
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
        body = canonical_json_bytes(self.to_dict())
        object.__setattr__(self, "_encoded", (body, sha256_hex(body)))

    @classmethod
    def for_key(cls, method: str, specific_id: str, public_bytes: bytes) -> "DidDocument":
        """Version-1 document with one Ed25519 key, ``key-1``, that authenticates."""
        return cls(
            id=DidIdentifier(method, specific_id),
            public_keys=(PublicKeyEntry("key-1", ALGORITHM, public_bytes),),
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
        return self._encoded[0]

    def digest(self) -> str:
        return self._encoded[1]

    def to_dict(self) -> dict:
        return to_camel_dict(self, id=str)

    @classmethod
    def from_dict(cls, data: dict) -> "DidDocument":
        check_keys(data, "document", _DOCUMENT_KEYS)
        try:
            return cls(
                id=parse_did(data["id"]),
                public_keys=tuple(PublicKeyEntry.from_dict(k) for k in data["publicKeys"]),
                authentication=tuple(data["authentication"]),
                claims=tuple(VerifiableClaim.from_dict(c) for c in data["claims"]),
                version=data["version"],
            )
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise ValidationError(f"malformed DID document: {error!r}") from error
