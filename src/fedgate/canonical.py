"""Canonical byte encodings shared by signatures, hashes, and persistence.

Every signature and hash in the system operates on canonical JSON: UTF-8,
lexicographically sorted keys, no insignificant whitespace. Binary fields
are lowercase hex so the encoding round-trips through text transports.

A desk's two logs (``chain.jsonl``, ``identity.jsonl``) are JSON lines in
that encoding: ``write_json_lines`` writes each of them and
``read_json_lines`` reads each of them back, so both share one line rule.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)  # what json.dumps builds per call


def canonical_json_bytes(obj: Any) -> bytes:
    """Encode ``obj`` as canonical JSON bytes."""
    return _ENCODER.encode(obj).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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


def write_json_lines(path: Path, records: Iterable) -> Path:
    """Write each record's canonical JSON and a newline, in binary mode."""
    path = Path(path)
    with path.open("wb") as fh:
        fh.writelines(canonical_json_bytes(record) + b"\n" for record in records)
    return path


def read_json_lines(path: Path) -> tuple[list, int | None]:
    """The records of a JSON-lines file, and the index of its first unreadable line.

    Each line is decoded as UTF-8, strictly, before it is parsed, and holds
    one JSON value: a blank line, a byte-order mark or a stray non-UTF-8
    byte is unreadable. The records before that line are returned.
    """
    records = []
    with Path(path).open("rb") as fh:
        for line in fh:
            try:  # decoded here, strictly: ``json.loads`` would guess at an encoding
                records.append(json.loads(line.decode()))
            except ValueError:  # bad JSON or a blank line, bad UTF-8, an integer past the digit limit
                return records, len(records)
    return records, None
