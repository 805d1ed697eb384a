"""Ed25519 signing helpers.

Thin wrapper over ``cryptography`` keeping key material as raw 32-byte
strings so documents and logs stay canonical and comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

ALGORITHM = "Ed25519"


@dataclass(frozen=True)
class KeyPair:
    """An Ed25519 keypair with raw public bytes exposed; ``sign`` reuses one key object."""

    private_bytes: bytes = field(repr=False)
    public_bytes: bytes = field(init=False)
    _key: Ed25519PrivateKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.private_bytes) != 32:
            raise ValueError("Ed25519 seed must be exactly 32 bytes")
        key = Ed25519PrivateKey.from_private_bytes(self.private_bytes)
        object.__setattr__(self, "_key", key)
        public = key.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
        object.__setattr__(self, "public_bytes", public)

    @classmethod
    def generate(cls, seed: bytes) -> "KeyPair":
        """The keypair of a 32-byte seed; callers derive seeds, nothing is random."""
        return cls(seed)

    def sign(self, message: bytes) -> bytes:
        return self._key.sign(message)


def verify_signature(public_bytes: bytes, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` is a valid Ed25519 signature over ``message``."""
    try:
        Ed25519PublicKey.from_public_bytes(public_bytes).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False
