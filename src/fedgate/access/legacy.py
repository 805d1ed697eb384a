"""One-shot translation of legacy ``(username, role)`` accounts.

Each account becomes a fresh DID, ``did:efed:legacy-<username>`` (unsafe
characters become ``-``), so reruns collide by DID instead of duplicating; a
registered one-key document under a key the desk derives from its seed and
the account's row, never from the username; and an issued ``role`` claim.
Already-imported usernames are reported as skipped rather than failing the
whole batch, but a batch in which two usernames map to one DID is refused.
"""

from __future__ import annotations

import csv
import hashlib
import io
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import ValidationError
from ..identity import DidDocument
from ..identity.registry import AlreadyRegisteredError
from .issuance import ClaimIssuer

if TYPE_CHECKING:
    from ..desk import Desk

ROLE_CLAIM = "role"
CLAIM_VALIDITY_SECONDS = 365 * 24 * 3600
_USERNAME_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


def read_accounts_csv(path: Path) -> list[tuple[str, str]]:
    """Read ``username,role`` rows (header required) from a UTF-8 file."""
    try:
        text = Path(path).read_bytes().decode()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8: {exc}") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
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
    desk: Desk,
    issuer: ClaimIssuer,
) -> list[dict]:
    """Register each account's DID and issue its ``CLAIM_VALIDITY_SECONDS`` role claim.

    Returns one ``report.json`` row per account: its ``username``, ``did``,
    ``status`` (``imported`` or ``skipped``), ``claimType`` and the claim's
    ``value``, empty for a skipped account.
    """
    ids = ["legacy-" + "".join(c if c in _USERNAME_SAFE else "-" for c in u) for u, _ in accounts]
    owners: dict[str, str] = {}
    for (username, _), specific_id in zip(accounts, ids):
        if owners.setdefault(specific_id, username) != username:
            raise ValidationError(
                f"usernames {owners[specific_id]!r} and {username!r} both map to did:efed:{specific_id}"
            )
    report = []
    for row, ((username, role), specific_id) in enumerate(zip(accounts, ids)):
        key = desk.keypair("legacy-account", row)
        document = DidDocument.for_key("efed", specific_id, key.public_bytes)
        did = str(document.id)
        profile_hash = hashlib.sha256(f"legacy-profile:{username}".encode()).hexdigest()
        try:
            desk.registry.register(document, profile_hash=profile_hash)
        except AlreadyRegisteredError:  # the DID or the profile hash is taken
            status, value = "skipped", ""
        else:
            status, value = "imported", issuer.issue(did, ROLE_CLAIM, role, CLAIM_VALIDITY_SECONDS).value
        report.append(
            {"username": username, "did": did, "status": status, "claimType": ROLE_CLAIM, "value": value}
        )
    return report
