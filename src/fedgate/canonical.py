"""Canonical byte encodings shared by signatures, hashes, and persistence.

Every signature and hash in the system operates on canonical JSON: UTF-8,
lexicographically sorted keys, no insignificant whitespace. Binary fields
are lowercase hex so the encoding round-trips through text transports.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def canonical_json_bytes(obj: Any) -> bytes:
    """Encode ``obj`` as canonical JSON bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def to_hex(data: bytes) -> str:
    return data.hex()


def from_hex(text: str) -> bytes:
    """Decode lowercase hex, rejecting anything else.

    Strictness matters for tamper evidence: ``bytes.fromhex`` accepts
    uppercase, so a single-bit case flip in a persisted hex field would
    otherwise decode to the same bytes and go unnoticed. It also skips
    whitespace, so only a string that ``hex()`` gives back unchanged is hex.
    """
    try:
        data = bytes.fromhex(text)
    except (TypeError, ValueError):
        data = None
    if data is None or data.hex() != text:
        raise ValueError(f"not canonical lowercase hex: {text!r}")
    return data
