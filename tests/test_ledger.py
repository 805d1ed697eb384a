import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgate.canonical import canonical_json_bytes
from fedgate.cli import main
from fedgate.clock import SimulatedClock
from fedgate.errors import ValidationError
from fedgate.ledger import (
    GENESIS_PREV_HASH,
    Chain,
    Transaction,
    load_chain,
    merkle_root,
    verify_chain_file,
    verify_chain_records,
)


def tx(n, kind="did_registration", submitter="did:efed:tester"):
    return Transaction.create(kind, {"n": n}, submitter, timestamp=n)


def entry(n, kind="did_registration", submitter="did:efed:tester"):
    return (kind, {"n": n}, submitter)


def build_chain(n_blocks=3, txs_per_block=2):
    clock = SimulatedClock(start=1000)
    chain = Chain(clock=clock)
    counter = 0
    for _ in range(n_blocks):
        clock.advance(10)
        batch = []
        for _ in range(txs_per_block):
            batch.append(entry(counter))
            counter += 1
        chain.append_block(batch)
    return chain


# -------------------------------------------------------------------- merkle


def test_merkle_single_leaf_is_itself():
    t = tx(1)
    assert merkle_root([t.tx_id]) == t.tx_id


def test_merkle_two_leaves_hand_computed():
    a, b = tx(1), tx(2)
    expected = hashlib.sha256(
        bytes.fromhex(a.tx_id) + bytes.fromhex(b.tx_id)
    ).hexdigest()
    assert merkle_root([a.tx_id, b.tx_id]) == expected


def test_merkle_three_leaves_duplicates_last():
    a, b, c = tx(1), tx(2), tx(3)
    left = hashlib.sha256(bytes.fromhex(a.tx_id) + bytes.fromhex(b.tx_id)).digest()
    right = hashlib.sha256(bytes.fromhex(c.tx_id) + bytes.fromhex(c.tx_id)).digest()
    expected = hashlib.sha256(left + right).hexdigest()
    assert merkle_root([a.tx_id, b.tx_id, c.tx_id]) == expected


def test_merkle_is_order_sensitive():
    a, b = tx(1), tx(2)
    assert merkle_root([a.tx_id, b.tx_id]) != merkle_root([b.tx_id, a.tx_id])


# -------------------------------------------------------------- transactions


def test_tx_id_is_hash_of_payload_kind_submitter():
    t = tx(7)
    expected = hashlib.sha256(
        t.payload + b"did_registration" + b"did:efed:tester"
    ).hexdigest()
    assert t.tx_id == expected


def test_tx_rejects_wrong_id_and_kind():
    t = tx(1)
    with pytest.raises(ValidationError):
        Transaction(
            tx_id="00" * 32,
            timestamp=1,
            kind=t.kind,
            payload=t.payload,
            submitter=t.submitter,
        )
    with pytest.raises(ValidationError):
        Transaction.create("mint_money", {}, "did:efed:x", timestamp=1)


def test_tx_round_trip():
    t = tx(3, kind="access_grant")
    assert Transaction.from_dict(t.to_dict()) == t


# -------------------------------------------------------------------- chain


def test_genesis_convention():
    chain = Chain(clock=SimulatedClock(start=50))
    genesis = chain.blocks[0]
    assert chain.height == 0
    assert genesis.height == 0
    assert genesis.prev_hash == GENESIS_PREV_HASH
    assert genesis.transactions == ()


def test_height_counts_appends():
    chain = Chain(clock=SimulatedClock())
    for i in range(5):
        chain.append_block([entry(i)])
        assert chain.height == i + 1


def test_append_links_blocks():
    chain = build_chain(3)
    blocks = chain.blocks
    for prev, block in zip(blocks, blocks[1:]):
        assert block.prev_hash == prev.hash
        assert block.height == prev.height + 1
    ok, bad = chain.verify()
    assert ok and bad is None


def test_empty_append_rejected():
    chain = Chain(clock=SimulatedClock())
    with pytest.raises(ValidationError):
        chain.append_block([])


def test_record_returns_findable_tx():
    chain = Chain(clock=SimulatedClock(start=9))
    tx_id = chain.record("access_denial", {"missing": ["role"]}, "did:efed:u")
    found = chain.find_transaction(tx_id)
    assert found is not None
    assert found.payload_dict() == {"missing": ["role"]}
    assert chain.transactions("access_denial") == [found]


def test_record_computes_each_hash_once(monkeypatch):
    from fedgate.ledger import chain as chain_module

    chain = Chain(clock=SimulatedClock(start=9))
    counts = {}
    for name in ("_tx_id", "merkle_root", "_block_hash"):
        original = getattr(chain_module, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(chain_module, name, counted)
    chain.record("access_denial", {"missing": ["role"]}, "did:efed:u")
    assert counts == {"_tx_id": 1, "merkle_root": 1, "_block_hash": 1}
    assert chain.verify() == (True, None)


# ---------------------------------------------------------- tamper evidence


def test_mutated_payload_detected_at_its_height():
    chain = build_chain(3)
    records = [b.to_dict() for b in chain.blocks]
    records[1]["transactions"][0]["payload"] = records[1]["transactions"][0][
        "payload"
    ].replace("7b", "7c", 1)
    ok, bad = verify_chain_records(records)
    assert not ok and bad == 1


def test_reordered_transactions_break_merkle_root():
    chain = build_chain(1, txs_per_block=3)
    records = [b.to_dict() for b in chain.blocks]
    txs = records[1]["transactions"]
    txs[0], txs[1] = txs[1], txs[0]
    records[1]["transactions"] = txs
    ok, bad = verify_chain_records(records)
    assert not ok and bad == 1


def test_unlinked_block_detected():
    chain = build_chain(2)
    records = [b.to_dict() for b in chain.blocks]
    records[2]["prevHash"] = "11" * 32
    ok, bad = verify_chain_records(records)
    assert not ok and bad == 2


def test_file_round_trip_and_tamper(tmp_path):
    chain = build_chain(4)
    path = chain.write_chain(tmp_path / "chain.jsonl")
    assert verify_chain_file(path) == (True, None)
    blocks = load_chain(path)
    assert [b.hash for b in blocks] == [b.hash for b in chain.blocks]

    raw = bytearray(path.read_bytes())
    # flip one bit inside a payload hex digit
    target = raw.index(b'"payload"') + 15
    raw[target] ^= 0x01
    path.write_bytes(bytes(raw))
    ok, _ = verify_chain_file(path)
    assert not ok
    with pytest.raises(ValidationError):
        load_chain(path)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_any_single_bit_flip_invalidates(data):
    chain = build_chain(3)
    payload = b"".join(
        canonical_json_bytes(b.to_dict()) + b"\n" for b in chain.blocks
    )
    bit = data.draw(st.integers(min_value=0, max_value=len(payload) * 8 - 1))
    flipped = bytearray(payload)
    flipped[bit // 8] ^= 1 << (bit % 8)
    records = []
    parse_failed = False
    for line in bytes(flipped).split(b"\n"):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except (json.JSONDecodeError, UnicodeDecodeError):
            parse_failed = True
            break
    if not parse_failed:
        ok, _ = verify_chain_records(records)
        assert not ok


# ------------------------------------------------------- one validator


def reseal(records, start):
    """Recompute tx ids, merkle roots, block hashes and links from ``start``
    on, the way a forger would, straight from the documented formulas."""
    for index in range(start, len(records)):
        record = records[index]
        for t in record["transactions"]:
            body = bytes.fromhex(t["payload"])
            t["txId"] = hashlib.sha256(
                body + t["kind"].encode() + t["submitter"].encode()
            ).hexdigest()
        record["merkleRoot"] = merkle_root([t["txId"] for t in record["transactions"]])
        if index > 0:
            record["prevHash"] = records[index - 1]["hash"]
        header = (
            record["height"].to_bytes(8, "big")
            + bytes.fromhex(record["prevHash"])
            + bytes.fromhex(record["merkleRoot"])
            + record["timestamp"].to_bytes(8, "big")
        )
        record["hash"] = hashlib.sha256(header).hexdigest()
    return records


def write_records(path, records):
    path.write_bytes(b"".join(canonical_json_bytes(r) + b"\n" for r in records))
    return path


def test_reseal_reproduces_an_honest_chain():
    records = [b.to_dict() for b in build_chain(3).blocks]
    assert reseal(json.loads(json.dumps(records)), 1) == records


def forged_unknown_kind():
    records = [b.to_dict() for b in build_chain(3).blocks]
    records[2]["transactions"][0]["kind"] = "mint_money"
    return reseal(records, 2)


def non_string_field(field, value=7):
    records = [b.to_dict() for b in build_chain(3).blocks]
    records[2]["transactions"][1][field] = value
    return records


def null_block_hash(field):
    records = [b.to_dict() for b in build_chain(3).blocks]
    records[2][field] = None
    return records


@pytest.mark.parametrize(
    "records",
    [
        forged_unknown_kind(),
        non_string_field("submitter"),
        non_string_field("kind"),
        non_string_field("txId", None),
        null_block_hash("merkleRoot"),
        null_block_hash("hash"),
    ],
    ids=[
        "unknown-kind-resealed", "int-submitter", "int-kind",
        "null-tx-id", "null-merkle-root", "null-hash",
    ],
)
def test_validators_agree_and_fail_as_values(tmp_path, records):
    assert verify_chain_records(records) == (False, 2)
    path = write_records(tmp_path / "chain.jsonl", records)
    assert verify_chain_file(path) == (False, 2)
    with pytest.raises(ValidationError, match="height 2"):
        load_chain(path)
    assert main(["verify-chain", str(path)]) == 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_field_replacement_never_raises_and_validators_agree(data, tmp_path_factory):
    records = [b.to_dict() for b in build_chain(2).blocks]
    index = data.draw(st.integers(min_value=0, max_value=len(records) - 1))
    target = records[index]
    if target["transactions"] and data.draw(st.booleans()):
        target = target["transactions"][data.draw(st.integers(0, len(target["transactions"]) - 1))]
    field = data.draw(st.sampled_from(sorted(target)))
    target[field] = data.draw(JSON_VALUES)

    ok, bad = verify_chain_records(records)
    path = write_records(tmp_path_factory.mktemp("chain") / "chain.jsonl", records)
    assert verify_chain_file(path) == (ok, bad)
    if ok:
        assert len(load_chain(path)) == len(records)
    else:
        assert bad == index
        with pytest.raises(ValidationError):
            load_chain(path)
