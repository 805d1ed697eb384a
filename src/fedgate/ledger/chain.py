"""Single-writer append-only chain of hash-linked blocks, one transaction each.

Every transaction id is ``sha256(payload ‖ kind ‖ submitter)``. The genesis
block holds no transaction and its root is 32 zero bytes; every later block
holds exactly one, and its root is that transaction's id (stored as
``merkleRoot``, the root of a one-leaf tree). A block header hashes to
``sha256(height ‖ prev_hash ‖ root ‖ timestamp)`` with fixed-width
big-endian integers so the concatenation is unambiguous. Blocks link by
``prev_hash``; the genesis block links to 32 zero bytes. There is no
consensus and no mining — one authoritative writer appends, everyone else
reads, and blocks are stamped from the clock the writer is given: like the
rest of ``fedgate``, this module keeps no default that only a test would take
(here, wall time), since a test can pass what it needs.

The persisted form is JSON lines, one block per line, canonical
encoding. Chain files have one validator: ``Block.from_dict``, whose
``__post_init__`` checks (with ``Transaction``'s) every field and
recomputes every hash, plus a height and ``prev_hash`` check between
blocks. A block or transaction record holds only the keys its ``to_dict``
writes, and each field must hold its own JSON type, read as is: a height or
timestamp is an integer in ``[0, 2**64)`` and never a bool, a float or a
string.
``verify_chain_records``, ``verify_chain_file`` and ``load_chain`` all go
through it, so they agree on every input, and any single flipped bit in
the file surfaces as a verification failure at that height. A record built
in process leaves its hashes to that same ``__post_init__``, which fills
them in, so ``Chain.record`` computes each hash once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from ..canonical import canonical_json_bytes, from_hex, sha256_hex, to_hex
from ..errors import ValidationError, check_field_types, check_keys

TRANSACTION_KINDS = frozenset(
    {"deploy_contract", "did_registration", "access_grant", "access_denial"}
)

GENESIS_PREV_HASH = to_hex(b"\x00" * 32)
_GENESIS_ROOT = to_hex(b"\x00" * 32)
# The keys ``to_dict`` writes; a record read back may hold no other.
_TRANSACTION_KEYS = frozenset({"txId", "timestamp", "kind", "payload", "submitter"})
_BLOCK_KEYS = frozenset({"height", "prevHash", "merkleRoot", "timestamp", "transactions", "hash"})


def _tx_id(payload: bytes, kind: str, submitter: str) -> str:
    return sha256_hex(payload + kind.encode() + submitter.encode())


# Default of a hash field: ``__post_init__`` derives the value. No JSON value
# is this object, so a record read from a file always has its hashes compared.
_DERIVE = object()


def _settle(record, name: str, derived: str, what: str) -> None:
    """Fill in a hash field left to derive, or check the value claimed for it."""
    if getattr(record, name) is _DERIVE:
        object.__setattr__(record, name, derived)
    elif getattr(record, name) != derived:
        raise ValidationError(f"{what} does not match")


@dataclass(frozen=True)
class Transaction:
    timestamp: int
    kind: str
    payload: bytes
    submitter: str
    tx_id: str = _DERIVE

    _FIELD_TYPES = (("timestamp", int), ("kind", str), ("payload", bytes), ("submitter", str))

    def __post_init__(self) -> None:
        check_field_types(self, "transaction", self._FIELD_TYPES)
        if self.kind not in TRANSACTION_KINDS:
            raise ValidationError(f"unknown transaction kind {self.kind!r}")
        derived = _tx_id(self.payload, self.kind, self.submitter)
        _settle(self, "tx_id", derived, f"tx_id of a {self.kind} transaction")

    def to_dict(self) -> dict:
        return {
            "txId": self.tx_id,
            "timestamp": self.timestamp,
            "kind": self.kind,
            "payload": to_hex(self.payload),
            "submitter": self.submitter,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Transaction":
        check_keys(data, "transaction", _TRANSACTION_KEYS)
        return cls(
            timestamp=data["timestamp"],
            kind=data["kind"],
            payload=from_hex(data["payload"]),
            submitter=data["submitter"],
            tx_id=data["txId"],
        )


def _block_hash(height: int, prev_hash: str, root: str, timestamp: int) -> str:
    header = (
        height.to_bytes(8, "big")
        + from_hex(prev_hash)
        + from_hex(root)
        + timestamp.to_bytes(8, "big")
    )
    return sha256_hex(header)


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: str
    timestamp: int
    transactions: tuple[Transaction, ...]
    root: str = _DERIVE
    hash: str = _DERIVE

    _FIELD_TYPES = (("height", int), ("prev_hash", str), ("timestamp", int))

    def __post_init__(self) -> None:
        check_field_types(self, "block", self._FIELD_TYPES)
        object.__setattr__(self, "transactions", tuple(self.transactions))
        # Both are hashed as 8-byte unsigned integers (see ``_block_hash``); the
        # range also bounds the transaction timestamps, which equal the block's.
        if not (0 <= self.height < 2**64 and 0 <= self.timestamp < 2**64):
            raise ValidationError(f"block height or timestamp outside [0, 2**64) at {self.height}")
        if len(self.transactions) != (1 if self.height else 0):
            raise ValidationError(
                f"block at height {self.height} holds {len(self.transactions)} "
                "transactions; genesis holds none and every other block one"
            )
        # Sealing stamps every transaction with the block time, and the block
        # time feeds the block hash; without this equality a transaction's
        # timestamp would be the one field no hash covers.
        if any(t.timestamp != self.timestamp for t in self.transactions):
            raise ValidationError("transaction timestamps must match the block timestamp")
        root = self.transactions[0].tx_id if self.transactions else _GENESIS_ROOT
        _settle(self, "root", root, f"root at height {self.height}")
        derived = _block_hash(self.height, self.prev_hash, self.root, self.timestamp)
        _settle(self, "hash", derived, f"block hash at height {self.height}")

    def to_dict(self) -> dict:
        return {
            "height": self.height,
            "prevHash": self.prev_hash,
            "merkleRoot": self.root,
            "timestamp": self.timestamp,
            "transactions": [t.to_dict() for t in self.transactions],
            "hash": self.hash,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Block":
        check_keys(data, "block", _BLOCK_KEYS)
        return cls(
            height=data["height"],
            prev_hash=data["prevHash"],
            timestamp=data["timestamp"],
            transactions=tuple(Transaction.from_dict(t) for t in data["transactions"]),
            root=data["merkleRoot"],
            hash=data["hash"],
        )


class Chain:
    """The authoritative chain: the desk appends, every party reads the written file."""

    def __init__(self, clock: Callable[[], int]):
        self._clock = clock
        genesis = Block(
            height=0,
            prev_hash=GENESIS_PREV_HASH,
            timestamp=int(self._clock()),
            transactions=(),
        )
        self._blocks: list[Block] = [genesis]

    @property
    def height(self) -> int:
        return len(self._blocks) - 1

    @property
    def blocks(self) -> tuple[Block, ...]:
        return tuple(self._blocks)

    def record(self, kind: str, payload: dict, submitter: str) -> str:
        """Seal one transaction into its own block; returns its tx id.

        The block time is fixed first, so the transaction is built once,
        already stamped with it.
        """
        prev = self._blocks[-1]
        timestamp = max(int(self._clock()), prev.timestamp)
        tx = Transaction(timestamp, kind, canonical_json_bytes(payload), submitter)
        self._blocks.append(Block(prev.height + 1, prev.hash, timestamp, (tx,)))
        return tx.tx_id

    def written_lines(self) -> Iterator[bytes]:
        """The chain file's lines: each block's canonical JSON and a newline."""
        for block in self._blocks:
            yield canonical_json_bytes(block.to_dict()) + b"\n"

    def write_chain(self, path: Path) -> Path:
        path = Path(path)
        with path.open("wb") as fh:
            fh.writelines(self.written_lines())
        return path


def _build_blocks(records: list) -> tuple[list[Block], int | None]:
    """Blocks built from untrusted records, and the first bad height if any.

    ``Block.from_dict`` checks each record's own fields and hashes; this
    adds the links between blocks: heights count up from 0 and each
    ``prev_hash`` names the block before. A malformed record counts as
    invalid at the height where it appears; the blocks before it are
    returned.
    """
    blocks: list[Block] = []
    prev_hash = GENESIS_PREV_HASH
    for index, record in enumerate(records):
        try:
            block = Block.from_dict(record)
        except (KeyError, TypeError, ValueError, ValidationError):
            return blocks, index
        if block.height != index or block.prev_hash != prev_hash:
            return blocks, index
        blocks.append(block)
        prev_hash = block.hash
    return blocks, None if blocks else 0


def _read_records(path: Path) -> tuple[list, int | None]:
    """The JSON records of a chain file, and the height of an unparsable line."""
    records = []
    with Path(path).open("rb") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except ValueError:  # bad JSON, bad UTF-8, or an integer past Python's digit limit
                return records, len(records)
    return records, None


def verify_chain_records(records: list[dict]) -> tuple[bool, int | None]:
    """(ok, first bad height) for raw block dicts; never raises on bad data."""
    _, bad = _build_blocks(records)
    return bad is None, bad


def verify_chain_file(path: Path) -> tuple[bool, int | None]:
    """Verify a persisted chain; parse failures count as tampering."""
    records, unparsable = _read_records(path)
    if unparsable is not None:
        return False, unparsable
    return verify_chain_records(records)


def load_chain(path: Path) -> list[Block]:
    """Parse a persisted chain into validated blocks (raises on tampering)."""
    records, bad = _read_records(path)
    if bad is None:
        blocks, bad = _build_blocks(records)
    if bad is not None:
        raise ValidationError(f"chain file invalid at height {bad}")
    return blocks
