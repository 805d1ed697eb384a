"""The authoritative DID document store.

Writers serialize on a lock; reads are lock-free snapshots. Every
successful mutation is reported to the recorder the registry is built with
(the desk passes ``Chain.record``; there is no local stand-in, since a test
can pass its own) and mirrored into an append-only JSON-lines log that
replays back to identical state. ``replay_log`` is that log's one validator:
any malformed line is refused with a ``ValidationError`` naming the line.

Each registered principal supplies a non-empty string ``profile_hash``; a
second registration with the same hash is rejected, so one real-world
profile cannot hold two identities.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Callable

from ..errors import FedGateError, ValidationError, check_keys
from .did import DidIdentifier
from .document import DidDocument


class AlreadyRegisteredError(FedGateError):
    """The DID, or another DID for the same profile hash, is already registered."""


class UnknownDidError(FedGateError):
    """No document is stored for the requested DID, or no driver serves its method."""


class DidRegistry:
    def __init__(self, recorder: Callable[[str, dict, str], str]):
        self._documents: dict[str, DidDocument] = {}
        self._profiles: dict[str, str] = {}
        self._log: list[dict] = []
        self._lock = threading.Lock()
        self._recorder = recorder

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, did: DidIdentifier | str) -> bool:
        return str(did) in self._documents

    def get(self, did: DidIdentifier | str) -> DidDocument:
        try:
            return self._documents[str(did)]
        except KeyError:
            raise UnknownDidError(f"no document registered for {did}") from None

    def register(self, document: DidDocument, profile_hash: str) -> str:
        """Store a fresh document at version 1; returns the recorder receipt."""
        if document.version != 1:
            raise ValidationError(
                f"fresh registrations start at version 1, got {document.version}"
            )
        if not isinstance(profile_hash, str) or not profile_hash:
            raise ValidationError("profile_hash must be a non-empty string")
        key = str(document.id)
        with self._lock:
            if key in self._documents:
                raise AlreadyRegisteredError(f"{key} is already registered")
            holder = self._profiles.get(profile_hash)
            if holder is not None:
                raise AlreadyRegisteredError(f"profile already registered under {holder}")
            receipt = self._commit("register", document, profile_hash)
        return receipt

    def update(self, document: DidDocument) -> str:
        """Replace an existing document with its next version."""
        key = str(document.id)
        with self._lock:
            current = self._documents.get(key)
            if current is None:
                raise UnknownDidError(f"cannot update unregistered {key}")
            if document.version != current.version + 1:
                raise FedGateError(
                    f"{key}: version must step {current.version} -> "
                    f"{current.version + 1}, got {document.version}"
                )
            receipt = self._commit("update", document, None)
        return receipt

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
        entry = {"op": op, "document": document.to_dict()}
        if profile_hash is not None:
            entry["profileHash"] = profile_hash
        self._log.append(entry)
        return receipt

    # ------------------------------------------------------------ log I/O

    def write_log(self, path: Path) -> Path:
        """Persist the mutation history as one JSON object per line."""
        path = Path(path)
        with path.open("w") as fh:
            for entry in self._log:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
        return path

    @classmethod
    def replay_log(cls, path: Path, recorder: Callable[[str, dict, str], str]) -> "DidRegistry":
        """Rebuild a registry by replaying a JSON-lines mutation log."""
        registry = cls(recorder)
        with Path(path).open("rb") as fh:
            for number, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                    check_keys(entry, "log entry", {"op", "document", "profileHash"})
                    op, document = entry["op"], DidDocument.from_dict(entry["document"])
                    if op == "register":
                        registry.register(document, entry["profileHash"])
                    elif op == "update":
                        registry.update(document)
                    else:
                        raise ValidationError(f"unknown log op {op!r}")
                except (ValidationError, ValueError, KeyError, TypeError) as error:
                    raise ValidationError(f"{path} line {number}: {error}") from None
        return registry
