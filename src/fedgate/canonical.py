"""Canonical byte encodings shared by signatures, hashes, and persistence.

Every signature and hash in the system operates on canonical JSON: UTF-8,
lexicographically sorted keys, no insignificant whitespace. Binary fields
are lowercase hex so the encoding round-trips through text transports.

A desk's two logs (``chain.jsonl``, ``identity.jsonl``) are JSON lines in
that encoding: ``write_json_lines`` writes each of them and
``read_json_lines`` reads each of them back, one line at a time, so both
share one line rule.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, Iterator

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)  # what json.dumps builds per call
_DECODE = json.JSONDecoder().raw_decode  # no whitespace skipped either side, unlike json.loads


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


def read_json_lines(path: Path) -> Iterator[tuple[str, Any]]:
    """Each line of a JSON-lines file, as its text and the value it holds, one at a time.

    Each line is decoded once: as UTF-8, strictly, then as one JSON value
    that starts at the line's first character and ends at its newline. At
    the first line that is not so (a blank line, a byte-order mark,
    whitespace around the value, a stray non-UTF-8 byte, an integer past the
    digit limit, nesting past the recursion limit, a last line with no
    newline) the generator raises
    ``ValueError``. Whitespace inside the value parses; a reader that holds a
    line to its writer's bytes compares the text. Close the generator
    (``contextlib.closing``) so the file closes when a reader stops early.
    """
    with Path(path).open("rb") as fh:
        for line in fh:
            text = line.decode()  # strictly: ``json.loads`` would guess at an encoding
            try:
                value, end = _DECODE(text)
            except RecursionError:  # arrays or objects nested past the interpreter's depth
                raise ValueError("a JSON line nests too deep") from None
            if text[end:] != "\n":
                raise ValueError(f"a JSON line holds one value and a newline, got {text[end:]!r:.40}")
            yield text, value
