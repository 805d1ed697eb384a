"""Single-writer append-only chain of hash-linked blocks, one transaction each.

Every transaction id is ``sha256(payload ‖ kind ‖ submitter)``. The genesis
block holds no transaction and its root is 32 zero bytes; every later block
holds exactly one, and its root is that transaction's id (the root of a
one-leaf tree). A block header hashes to
``sha256(height ‖ prev_hash ‖ root ‖ timestamp)`` with fixed-width
big-endian integers so the concatenation is unambiguous. Blocks link by
``prev_hash``; the genesis block links to 32 zero bytes. There is no
consensus and no mining — one authoritative writer appends, everyone else
reads, and blocks are stamped from the clock the writer is given: like the
rest of ``fedgate``, this module keeps no default that only a test would take
(here, wall time), since a test can pass what it needs.

The persisted form is JSON lines, one flat canonical line per block, written
and read by ``fedgate.canonical``'s JSON-lines pair, and a line states each
fact once. The genesis line holds exactly ``hash``, ``height``,
``prevHash`` and ``timestamp``; every later line holds those keys plus
``kind``, ``submitter`` and ``payload``, the transaction's canonical payload
JSON as a JSON string. The transaction id and the root are not written:
the reader derives them. A transaction carries no time of its own; its
block's timestamp is the time it was sealed.

Chain files have one validator: the ``Transaction`` and ``Block``
constructors. Each tests its fields' types as given (a height or timestamp
is an ``int`` in ``[0, 2**64)``, never a bool, a float or a string; a kind,
submitter or hash is a string) and derives its hash once. ``Chain.record``
builds its block through them, and so does ``Block.from_dict``, which reads
one line: the line holds exactly the keys the writer writes at its height,
and the hash it states must equal the one derived. ``_blocks`` adds the
links between blocks: heights count up from 0 and each ``prev_hash`` names
the block before. ``verify_chain_records``, ``verify_chain_file`` and
``load_chain`` all go through it, so they agree on every input, and any
single flipped bit in the file surfaces as a verification failure at that
height. The readers stream: ``fedgate.canonical`` hands them one line at a
time, so a verification holds one line and the previous hash, and a load
holds only the blocks it returns.
"""

from __future__ import annotations

from contextlib import closing
from pathlib import Path
from typing import Callable, Iterable, Iterator

from ..canonical import canonical_json_bytes, from_hex, read_json_lines, sha256_hex, write_json_lines
from ..errors import ValidationError

TRANSACTION_KINDS = frozenset(
    {"deploy_contract", "did_registration", "access_grant", "access_denial"}
)

GENESIS_PREV_HASH = (b"\x00" * 32).hex()
_GENESIS_ROOT = (b"\x00" * 32).hex()
# The keys the writer puts on a chain line; a line read back holds no other.
_GENESIS_KEYS = frozenset({"hash", "height", "prevHash", "timestamp"})
_LINE_KEYS = _GENESIS_KEYS | {"kind", "submitter", "payload"}


def _tx_id(payload: bytes, kind: str, submitter: str) -> str:
    return sha256_hex(payload + kind.encode() + submitter.encode())


def _block_hash(height: int, prev_hash: str, root: str, timestamp: int) -> str:
    # ``root`` is always derived here, so only ``prev_hash`` needs the strict decode.
    header = (
        height.to_bytes(8, "big")
        + from_hex(prev_hash)
        + bytes.fromhex(root)
        + timestamp.to_bytes(8, "big")
    )
    return sha256_hex(header)


class Transaction:
    """One sealed fact; its fields are checked as given and its id derived once."""

    __slots__ = ("kind", "payload", "submitter", "tx_id")

    def __init__(self, kind: str, payload: bytes, submitter: str):
        if type(kind) is not str or type(payload) is not bytes or type(submitter) is not str:
            raise ValidationError("a transaction's kind and submitter must be str, its payload bytes")
        if kind not in TRANSACTION_KINDS:
            raise ValidationError(f"unknown transaction kind {kind!r}")
        self.kind = kind
        self.payload = payload
        self.submitter = submitter
        self.tx_id = _tx_id(payload, kind, submitter)


class Block:
    """One block; its fields are checked as given and its hash derived once."""

    __slots__ = ("height", "prev_hash", "timestamp", "transactions", "hash")

    def __init__(
        self, height: int, prev_hash: str, timestamp: int, transactions: tuple[Transaction, ...]
    ):
        if type(height) is not int or type(prev_hash) is not str or type(timestamp) is not int:
            raise ValidationError("block fields must be int height, str prev_hash, int timestamp")
        # Both are hashed as 8-byte unsigned integers (see ``_block_hash``).
        if not (0 <= height < 2**64 and 0 <= timestamp < 2**64):
            raise ValidationError(f"block height or timestamp outside [0, 2**64) at {height}")
        if len(transactions) != (1 if height else 0):
            raise ValidationError(
                f"block at height {height} holds {len(transactions)} "
                "transactions; genesis holds none and every other block one"
            )
        root = transactions[0].tx_id if transactions else _GENESIS_ROOT
        self.height = height
        self.prev_hash = prev_hash
        self.timestamp = timestamp
        self.transactions = transactions
        self.hash = _block_hash(height, prev_hash, root, timestamp)

    def to_dict(self) -> dict:
        """The block's chain line, as the object it encodes."""
        line = {
            "hash": self.hash,
            "height": self.height,
            "prevHash": self.prev_hash,
            "timestamp": self.timestamp,
        }
        for tx in self.transactions:
            line["kind"] = tx.kind
            line["submitter"] = tx.submitter
            line["payload"] = tx.payload.decode()
        return line

    @classmethod
    def from_dict(cls, data: object) -> "Block":
        """The block one chain line states, built through the constructors.

        Raises ``ValidationError``, or ``ValueError`` for a ``prevHash`` that
        is not lowercase hex or a payload that does not encode as UTF-8.
        """
        if type(data) is not dict:
            raise ValidationError(f"a chain line must be an object, got {type(data).__name__}")
        keys = data.keys()
        if keys == _LINE_KEYS:
            payload = data["payload"]
            if type(payload) is not str:
                raise ValidationError("transaction field payload must be str")
            tx = Transaction(data["kind"], payload.encode(), data["submitter"])
            transactions = (tx,)
        elif keys == _GENESIS_KEYS:
            transactions = ()
        else:
            raise ValidationError(f"a chain line holds the keys {sorted(map(str, keys))}")
        block = cls(data["height"], data["prevHash"], data["timestamp"], transactions)
        if block.hash != data["hash"]:
            raise ValidationError(f"block hash at height {block.height} does not match")
        return block


class Chain:
    """The authoritative chain: the desk appends, every party reads the written file."""

    def __init__(self, clock: Callable[[], int]):
        self._clock = clock
        genesis = Block(0, GENESIS_PREV_HASH, int(self._clock()), ())
        self._blocks: list[Block] = [genesis]

    @property
    def height(self) -> int:
        return len(self._blocks) - 1

    @property
    def blocks(self) -> tuple[Block, ...]:
        return tuple(self._blocks)

    def record(self, kind: str, payload: dict, submitter: str) -> str:
        """Seal one transaction into its own block; returns its tx id."""
        prev = self._blocks[-1]
        timestamp = max(int(self._clock()), prev.timestamp)
        tx = Transaction(kind, canonical_json_bytes(payload), submitter)
        self._blocks.append(Block(prev.height + 1, prev.hash, timestamp, (tx,)))
        return tx.tx_id

    def write_chain(self, path: Path) -> Path:
        """Write the chain file: each block's canonical JSON and a newline."""
        return write_json_lines(path, (block.to_dict() for block in self._blocks))


def _blocks(records: Iterable) -> Iterator[Block]:
    """The blocks of untrusted records, each yielded once it is valid.

    ``Block.from_dict`` checks each record's own fields and hash; this adds
    the links between blocks. The first bad record raises ``ValidationError``
    (or ``ValueError``, as does the line reader at an unreadable line), so
    its height is the number of blocks yielded before it.
    """
    prev_hash = GENESIS_PREV_HASH
    for height, record in enumerate(records):
        block = Block.from_dict(record)
        if block.height != height or block.prev_hash != prev_hash:
            raise ValidationError(f"block at height {height} does not link to the one before")
        yield block
        prev_hash = block.hash


def verify_chain_records(records: Iterable) -> tuple[bool, int | None]:
    """(ok, first bad height) for raw block dicts, read one at a time from any
    iterable; never raises on bad data."""
    count = 0
    try:
        for count, _ in enumerate(_blocks(records), start=1):
            pass
    except (ValueError, ValidationError):
        return False, count
    return (True, None) if count else (False, 0)


def verify_chain_file(path: Path) -> tuple[bool, int | None]:
    """Verify a persisted chain, one line at a time; an unreadable line counts as tampering."""
    with closing(read_json_lines(path)) as lines:
        return verify_chain_records(record for _, record in lines)


def load_chain(path: Path) -> list[Block]:
    """Parse a persisted chain into validated blocks (raises on tampering)."""
    blocks: list[Block] = []
    with closing(read_json_lines(path)) as lines:
        try:
            for block in _blocks(record for _, record in lines):
                blocks.append(block)
        except (ValueError, ValidationError):
            raise ValidationError(f"chain invalid at height {len(blocks)}") from None
    if not blocks:
        raise ValidationError("chain invalid at height 0")
    return blocks
