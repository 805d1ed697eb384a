"""Verifiable claims: issuer-signed, expiring attribute assertions.

A claim binds (claim_type, value) to a holder DID and is signed by the
issuer over the canonical bytes of every field except the signature
itself. Trust and expiry policy live in :mod:`fedgate.access`; this
module only defines the value type and its signature mechanics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .canonical import canonical_json_bytes, from_hex
from .errors import ValidationError, check_field_types, from_camel_keys
from .keys import KeyPair, verify_signature


@dataclass(frozen=True)
class VerifiableClaim:
    claim_type: str
    value: str
    subject: str
    issuer: str
    issued_at: int
    expires_at: int
    signature: bytes

    _FIELD_TYPES = (
        ("claim_type", str), ("value", str), ("subject", str), ("issuer", str),
        ("issued_at", int), ("expires_at", int), ("signature", bytes),
    )

    def __post_init__(self) -> None:
        # Claims are hashed as cache keys: each field must hold its declared type.
        check_field_types(self, "claim", self._FIELD_TYPES)
        if self.issued_at >= self.expires_at:
            raise ValidationError(
                f"claim '{self.claim_type}' issued_at {self.issued_at} must precede "
                f"expires_at {self.expires_at}"
            )

    def signing_bytes(self) -> bytes:
        """Canonical bytes covered by the issuer signature: ``to_dict`` without it."""
        body = self.to_dict()
        del body["signature"]
        return canonical_json_bytes(body)

    def signature_valid(self, issuer_public_keys: tuple[bytes, ...]) -> bool:
        """Check the signature against any of the issuer's published keys."""
        message = self.signing_bytes()
        return any(verify_signature(pk, message, self.signature) for pk in issuer_public_keys)

    def to_dict(self) -> dict:
        return {
            "claimType": self.claim_type,
            "value": self.value,
            "subject": self.subject,
            "issuer": self.issuer,
            "issuedAt": self.issued_at,
            "expiresAt": self.expires_at,
            "signature": self.signature.hex(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VerifiableClaim":
        return from_camel_keys(cls, data, "claim", signature=from_hex)


def sign_claim(
    issuer_key: KeyPair,
    *,
    claim_type: str,
    value: str,
    subject: str,
    issuer: str,
    issued_at: int,
    expires_at: int,
) -> VerifiableClaim:
    """Build a claim and sign it with the issuer key."""
    unsigned = VerifiableClaim(
        claim_type=claim_type,
        value=value,
        subject=subject,
        issuer=issuer,
        issued_at=issued_at,
        expires_at=expires_at,
        signature=b"",
    )
    return replace(unsigned, signature=issuer_key.sign(unsigned.signing_bytes()))
