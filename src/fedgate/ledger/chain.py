"""Single-writer append-only chain of hash-linked blocks.

Every transaction id is ``sha256(payload ‖ kind ‖ submitter)``; every
block header hashes to ``sha256(height ‖ prev_hash ‖ merkle_root ‖
timestamp)`` with fixed-width big-endian integers so the concatenation
is unambiguous. Blocks link by ``prev_hash``; the genesis block links to
32 zero bytes. There is no consensus and no mining — one authoritative
writer appends, everyone else reads.

The persisted form is JSON lines, one block per line, canonical
encoding. Chain files have one validator: ``Block.from_dict``, whose
``__post_init__`` checks (with ``Transaction``'s) every field and
recomputes every hash, plus a height and ``prev_hash`` check between
blocks. ``verify_chain_records``, ``verify_chain_file``, ``load_chain``
and ``Chain.verify`` all go through it, so they agree on every input,
and any single flipped bit in the file surfaces as a verification
failure at that height. A record built in process leaves its hashes to
that same ``__post_init__``, which fills them in, so ``Chain.record``
computes each hash once.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path

from ..canonical import canonical_json_bytes, from_hex, sha256, sha256_hex, to_hex
from ..clock import wall_clock
from ..errors import ValidationError

TRANSACTION_KINDS = frozenset(
    {"deploy_contract", "did_registration", "access_grant", "access_denial"}
)

GENESIS_PREV_HASH = to_hex(b"\x00" * 32)
_EMPTY_MERKLE = to_hex(b"\x00" * 32)


def _tx_id(payload: bytes, kind: str, submitter: str) -> str:
    return sha256_hex(payload + kind.encode() + submitter.encode())


def merkle_root(tx_ids: list[str]) -> str:
    """Ordered pairwise hash tree over transaction ids, odd leaf duplicated."""
    if not tx_ids:
        return _EMPTY_MERKLE
    level = [from_hex(t) for t in tx_ids]
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [sha256(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return to_hex(level[0])


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

    def __post_init__(self) -> None:
        if self.kind not in TRANSACTION_KINDS:
            raise ValidationError(f"unknown transaction kind {self.kind!r}")
        if not isinstance(self.submitter, str):
            raise ValidationError("transaction submitter must be a string")
        if self.timestamp < 0:
            raise ValidationError("transaction timestamp must be non-negative")
        derived = _tx_id(self.payload, self.kind, self.submitter)
        _settle(self, "tx_id", derived, f"tx_id of a {self.kind} transaction")

    @classmethod
    def create(cls, kind: str, payload: dict, submitter: str, timestamp: int) -> "Transaction":
        return cls(
            timestamp=int(timestamp),
            kind=kind,
            payload=canonical_json_bytes(payload),
            submitter=submitter,
        )

    def payload_dict(self) -> dict:
        return json.loads(self.payload.decode("utf-8"))

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
        return cls(
            timestamp=int(data["timestamp"]),
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
    merkle_root: str = _DERIVE
    hash: str = _DERIVE

    def __post_init__(self) -> None:
        object.__setattr__(self, "transactions", tuple(self.transactions))
        if self.height < 0:
            raise ValidationError("block height must be >= 0")
        if self.height > 0 and not self.transactions:
            raise ValidationError("only the genesis block may be empty")
        # Sealing stamps every transaction with the block time, and the block
        # time feeds the block hash; without this equality a transaction's
        # timestamp would be the one field no hash covers.
        if any(t.timestamp != self.timestamp for t in self.transactions):
            raise ValidationError("transaction timestamps must match the block timestamp")
        root = merkle_root([t.tx_id for t in self.transactions])
        _settle(self, "merkle_root", root, f"merkle root at height {self.height}")
        derived = _block_hash(self.height, self.prev_hash, self.merkle_root, self.timestamp)
        _settle(self, "hash", derived, f"block hash at height {self.height}")

    def to_dict(self) -> dict:
        return {
            "height": self.height,
            "prevHash": self.prev_hash,
            "merkleRoot": self.merkle_root,
            "timestamp": self.timestamp,
            "transactions": [t.to_dict() for t in self.transactions],
            "hash": self.hash,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Block":
        return cls(
            height=int(data["height"]),
            prev_hash=data["prevHash"],
            timestamp=int(data["timestamp"]),
            transactions=tuple(Transaction.from_dict(t) for t in data["transactions"]),
            merkle_root=data["merkleRoot"],
            hash=data["hash"],
        )


class Chain:
    """The authoritative chain: one serialized writer, concurrent readers."""

    def __init__(self, clock=None):
        self._clock = clock or wall_clock
        self._lock = threading.Lock()
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

    def append_block(self, entries: list[tuple[str, dict, str]]) -> Block:
        """Seal ``(kind, payload, submitter)`` entries into the next block.

        The block time is fixed first, so each transaction is built once,
        already stamped with it.
        """
        if not entries:
            raise ValidationError("a block must carry at least one transaction")
        with self._lock:
            prev = self._blocks[-1]
            timestamp = max(int(self._clock()), prev.timestamp)
            block = Block(
                height=prev.height + 1,
                prev_hash=prev.hash,
                timestamp=timestamp,
                transactions=tuple(
                    Transaction.create(kind, payload, submitter, timestamp)
                    for kind, payload, submitter in entries
                ),
            )
            self._blocks.append(block)
        return block

    def record(self, kind: str, payload: dict, submitter: str) -> str:
        """Seal one transaction into its own block; returns its tx id."""
        return self.append_block([(kind, payload, submitter)]).transactions[0].tx_id

    def transactions(self, kind: str | None = None) -> list[Transaction]:
        txs = [t for b in self._blocks for t in b.transactions]
        if kind is not None:
            txs = [t for t in txs if t.kind == kind]
        return txs

    def find_transaction(self, tx_id: str) -> Transaction | None:
        for block in self._blocks:
            for tx in block.transactions:
                if tx.tx_id == tx_id:
                    return tx
        return None

    def verify(self) -> tuple[bool, int | None]:
        return verify_chain_records([b.to_dict() for b in self._blocks])

    def write_chain(self, path: Path) -> Path:
        path = Path(path)
        with path.open("wb") as fh:
            for block in self._blocks:
                fh.write(canonical_json_bytes(block.to_dict()) + b"\n")
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
        except (KeyError, TypeError, ValueError, OverflowError, ValidationError):
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
            except (json.JSONDecodeError, UnicodeDecodeError):
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
