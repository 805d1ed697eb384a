"""One-shot translation of legacy ``(username, role)`` accounts.

Each account becomes a fresh DID, ``did:efed:legacy-<username>`` (unsafe
characters become ``-``), under a key derived from the username so reruns
collide instead of duplicating; a registered one-key document; and an
issued ``role`` claim. Already-imported usernames are reported as skipped
rather than failing the whole batch.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path

from ..errors import ValidationError
from ..identity import DidDocument, DidRegistry
from ..identity.registry import AlreadyRegisteredError, DuplicateProfileError
from ..keys import KeyPair
from .issuance import ClaimIssuer

_USERNAME_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


@dataclass(frozen=True)
class LegacyImportResult:
    username: str
    did: str
    status: str  # imported | skipped
    claim_type: str = "role"
    value: str = ""


def read_accounts_csv(path: Path) -> list[tuple[str, str]]:
    """Read ``username,role`` rows (header required)."""
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"username", "role"} <= set(reader.fieldnames):
            raise ValidationError(f"{path} must have a username,role header")
        rows = []
        for row in reader:
            username = (row["username"] or "").strip()
            role = (row["role"] or "").strip()
            if not username or not role:
                raise ValidationError(f"{path}: blank username or role in {row}")
            rows.append((username, role))
    if not rows:
        raise ValidationError(f"{path} holds no account rows")
    return rows


def import_legacy_accounts(
    accounts: list[tuple[str, str]],
    registry: DidRegistry,
    issuer: ClaimIssuer,
    validity_seconds: int = 365 * 24 * 3600,
) -> list[LegacyImportResult]:
    """Register each account's DID and issue its role claim."""
    results = []
    for username, role in accounts:
        safe = "".join(c if c in _USERNAME_SAFE else "-" for c in username)
        key = KeyPair.generate(hashlib.sha256(f"legacy-account:{username}".encode()).digest())
        document = DidDocument.for_key("efed", f"legacy-{safe}", key.public_bytes)
        did = str(document.id)
        profile_hash = hashlib.sha256(f"legacy-profile:{username}".encode()).hexdigest()
        try:
            registry.register(document, profile_hash=profile_hash)
        except (AlreadyRegisteredError, DuplicateProfileError):
            results.append(LegacyImportResult(username, did, "skipped"))
            continue
        claim = issuer.issue(did, "role", role, validity_seconds)
        results.append(
            LegacyImportResult(username, did, "imported", value=claim.value)
        )
    return results
