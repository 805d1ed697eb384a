"""The authoritative DID document store.

Every successful mutation is reported to the recorder the registry is
built with (the desk passes ``Chain.record``; there is no local stand-in,
since a test can pass its own) and mirrored into an append-only JSON-lines
log, in the chain file's encoding (``fedgate.canonical``), that replays
back to identical state. ``replay_log`` is that log's one validator: it
replays each line as it reads it, and the first malformed line, line that is
not a JSON line, line that is not exactly the bytes ``write_log`` writes for
its value, or line the registry itself refuses (a second registration, a
version that skips a step), is refused with a ``ValidationError`` naming the
line.

Each registered principal supplies a non-empty string ``profile_hash``; a
second registration with the same hash is rejected, so one real-world
profile cannot hold two identities.
"""

from __future__ import annotations

from contextlib import closing
from pathlib import Path
from typing import Callable

from ..canonical import canonical_json_bytes, read_json_lines, write_json_lines
from ..errors import FedGateError, ValidationError, check_keys
from .did import DidIdentifier
from .document import DidDocument


class AlreadyRegisteredError(FedGateError):
    """The DID, or another DID for the same profile hash, is already registered."""


class UnknownDidError(FedGateError):
    """No document is stored for the requested DID."""


class DidRegistry:
    def __init__(self, recorder: Callable[[str, dict, str], str]):
        self._documents: dict[str, DidDocument] = {}
        self.find = self._documents.get  # the document under exactly a DID's text, or None
        self._profiles: dict[str, str] = {}
        self._log: list[tuple[dict, DidDocument]] = []  # each line but its document, encoded by write_log
        self._recorder = recorder

    def get(self, did: DidIdentifier | str) -> DidDocument:
        document = self.find(str(did))
        if document is None:
            raise UnknownDidError(f"no document registered for {did}")
        return document

    def register(self, document: DidDocument, profile_hash: str) -> str:
        """Store a fresh document at version 1; returns the recorder receipt."""
        if document.version != 1:
            raise ValidationError(
                f"fresh registrations start at version 1, got {document.version}"
            )
        if not isinstance(profile_hash, str) or not profile_hash:
            raise ValidationError("profile_hash must be a non-empty string")
        key = str(document.id)
        if key in self._documents:
            raise AlreadyRegisteredError(f"{key} is already registered")
        holder = self._profiles.get(profile_hash)
        if holder is not None:
            raise AlreadyRegisteredError(f"profile already registered under {holder}")
        return self._commit("register", document, profile_hash)

    def update(self, document: DidDocument) -> str:
        """Replace an existing document with its next version."""
        key = str(document.id)
        current = self._documents.get(key)
        if current is None:
            raise UnknownDidError(f"cannot update unregistered {key}")
        if document.version != current.version + 1:
            raise FedGateError(
                f"{key}: version must step {current.version} -> "
                f"{current.version + 1}, got {document.version}"
            )
        return self._commit("update", document, None)

    def _commit(self, op: str, document: DidDocument, profile_hash: str | None) -> str:
        payload = {
            "id": str(document.id),
            "version": document.version,
            "documentDigest": document.digest(),
        }
        receipt = self._recorder("did_registration", payload, str(document.id))
        self._documents[str(document.id)] = document
        if profile_hash is not None:
            self._profiles[profile_hash] = str(document.id)
        entry = {"op": op}
        if profile_hash is not None:
            entry["profileHash"] = profile_hash
        self._log.append((entry, document))
        return receipt

    # ------------------------------------------------------------ log I/O

    def write_log(self, path: Path) -> Path:
        """Persist the mutation history as one canonical JSON object per line."""
        return write_json_lines(path, ({**entry, "document": document.to_dict()} for entry, document in self._log))

    @classmethod
    def replay_log(cls, path: Path, recorder: Callable[[str, dict, str], str]) -> "DidRegistry":
        """Rebuild a registry by replaying a JSON-lines mutation log, one line at a time."""
        registry = cls(recorder)
        number = 0
        with closing(read_json_lines(path)) as lines:
            try:
                for number, (text, entry) in enumerate(lines, start=1):
                    try:
                        registry._replay(text, entry)
                    except (FedGateError, ValueError, KeyError, TypeError) as error:
                        raise ValidationError(f"{path} line {number}: {error}") from None
            except ValueError:  # the reader's: the line after ``number`` is unreadable
                raise ValidationError(f"{path} line {number + 1}: not a JSON line") from None
        return registry

    def _replay(self, text: str, entry: object) -> None:
        """Apply one log line, refused unless it is the bytes ``write_log`` writes."""
        check_keys(entry, "log entry", {"op", "document", "profileHash"})
        if canonical_json_bytes(entry) + b"\n" != text.encode():
            raise ValidationError("not the canonical JSON line its writer writes")
        op, document = entry["op"], DidDocument.from_dict(entry["document"])
        if op == "register":
            self.register(document, entry["profileHash"])
        elif op == "update":
            self.update(document)
        else:
            raise ValidationError(f"unknown log op {op!r}")
