import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgate.canonical import canonical_json_bytes
from fedgate.cli import main
from fedgate.clock import SimulatedClock
from fedgate.errors import ValidationError
from fedgate.ledger import Chain, load_chain, verify_chain_file
from fedgate.ledger.chain import GENESIS_PREV_HASH, Block, Transaction, verify_chain_records

from support import find_transaction, payload_dict, transactions


def tx(n, kind="did_registration", submitter="did:efed:tester"):
    return Transaction(n, kind, canonical_json_bytes({"n": n}), submitter)


def entry(n, kind="did_registration", submitter="did:efed:tester"):
    return (kind, {"n": n}, submitter)


def build_chain(n_blocks=3, step=10):
    clock = SimulatedClock(start=1000)
    chain = Chain(clock=clock)
    for n in range(n_blocks):
        clock.advance(step)
        chain.record(*entry(n))
    return chain


# ---------------------------------------------------------------- block root


def test_merkle_single_leaf_is_itself():
    chain = build_chain(1)
    (block_tx,) = chain.blocks[1].transactions
    assert chain.blocks[1].to_dict()["merkleRoot"] == block_tx.tx_id


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
        Transaction(1, "mint_money", canonical_json_bytes({}), "did:efed:x")


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


@pytest.mark.parametrize("bad", [1.0, 0.5, True, "1"])
def test_simulated_clock_refuses_a_time_that_is_not_an_int(bad):
    with pytest.raises(ValidationError, match="whole seconds"):
        SimulatedClock(start=bad)
    clock = SimulatedClock(start=5)
    with pytest.raises(ValidationError, match="whole seconds"):
        clock.advance(bad)
    assert clock() == 5


def test_height_counts_appends():
    chain = Chain(clock=SimulatedClock(0))
    for i in range(5):
        chain.record(*entry(i))
        assert chain.height == i + 1


def test_append_links_blocks():
    chain = build_chain(3)
    blocks = chain.blocks
    for prev, block in zip(blocks, blocks[1:]):
        assert block.prev_hash == prev.hash
        assert block.height == prev.height + 1
    ok, bad = verify_chain_records([b.to_dict() for b in chain.blocks])
    assert ok and bad is None


def test_empty_append_rejected():
    genesis = Chain(clock=SimulatedClock(0)).blocks[0]
    with pytest.raises(ValidationError, match="holds 0 transactions"):
        Block(height=1, prev_hash=genesis.hash, timestamp=0, transactions=())


def test_record_returns_findable_tx():
    chain = Chain(clock=SimulatedClock(start=9))
    tx_id = chain.record("access_denial", {"missing": ["role"]}, "did:efed:u")
    found = find_transaction(chain, tx_id)
    assert found is not None
    assert payload_dict(found) == {"missing": ["role"]}
    assert transactions(chain, "access_denial") == [found]


def test_record_computes_each_hash_once(monkeypatch):
    from fedgate.ledger import chain as chain_module

    chain = Chain(clock=SimulatedClock(start=9))
    counts = {}
    for name in ("_tx_id", "_block_hash"):
        original = getattr(chain_module, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(chain_module, name, counted)
    chain.record("access_denial", {"missing": ["role"]}, "did:efed:u")
    assert counts == {"_tx_id": 1, "_block_hash": 1}
    assert verify_chain_records([b.to_dict() for b in chain.blocks]) == (True, None)


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
    records = [b.to_dict() for b in build_chain(2, step=0).blocks]
    first, second = records[1]["transactions"], records[2]["transactions"]
    records[1]["transactions"], records[2]["transactions"] = second, first
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


def test_integer_past_the_digit_limit_reads_as_tampering(tmp_path, capsys):
    # json.loads refuses a 5,000-digit integer with a plain ValueError, not a
    # JSONDecodeError; the line is unparsable like any other.
    path = build_chain(3).write_chain(tmp_path / "chain.jsonl")
    lines = path.read_bytes().splitlines(keepends=True)
    assert b'"height":1,' in lines[1]
    lines[1] = lines[1].replace(b'"height":1,', b'"height":' + b"9" * 5000 + b",")
    path.write_bytes(b"".join(lines))
    assert verify_chain_file(path) == (False, 1)
    with pytest.raises(ValidationError, match="height 1"):
        load_chain(path)
    capsys.readouterr()
    assert main(["verify-chain", str(path)]) == 1
    assert capsys.readouterr().out == "chain invalid at height 1\n"


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
    """Recompute tx ids, roots, block hashes and links from ``start`` on, the
    way a forger would, straight from the documented formulas (a block's root
    is its first transaction's id)."""
    for index in range(start, len(records)):
        record = records[index]
        for t in record["transactions"]:
            body = bytes.fromhex(t["payload"])
            t["txId"] = hashlib.sha256(
                body + t["kind"].encode() + t["submitter"].encode()
            ).hexdigest()
        txs = record["transactions"]
        record["merkleRoot"] = txs[0]["txId"] if txs else "00" * 32
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


def assert_readers_refuse(records, bad, tmp_path):
    assert verify_chain_records(records) == (False, bad)
    path = write_records(tmp_path / "chain.jsonl", records)
    assert verify_chain_file(path) == (False, bad)
    with pytest.raises(ValidationError, match=f"height {bad}"):
        load_chain(path)
    assert main(["verify-chain", str(path)]) == 1


def test_reseal_reproduces_an_honest_chain():
    records = [b.to_dict() for b in build_chain(3).blocks]
    assert reseal(json.loads(json.dumps(records)), 1) == records


def forged_unknown_kind():
    records = [b.to_dict() for b in build_chain(3).blocks]
    records[2]["transactions"][0]["kind"] = "mint_money"
    return reseal(records, 2)


def non_string_field(field, value=7):
    records = [b.to_dict() for b in build_chain(3).blocks]
    records[2]["transactions"][0][field] = value
    return records


def null_block_hash(field):
    records = [b.to_dict() for b in build_chain(3).blocks]
    records[2][field] = None
    return records


def injected_key(record_of, key="note"):
    """A key no writer writes, added to block 2 or to what ``record_of`` picks in it."""
    records = [b.to_dict() for b in build_chain(3).blocks]
    record_of(records[2])[key] = "hand edit"
    return records


def transaction_not_an_object():
    records = [b.to_dict() for b in build_chain(3).blocks]
    records[2]["transactions"] = ["not an object"]
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
        injected_key(lambda block: block),
        injected_key(lambda block: block["transactions"][0], "decoded"),
        transaction_not_an_object(),
    ],
    ids=[
        "unknown-kind-resealed", "int-submitter", "int-kind",
        "null-tx-id", "null-merkle-root", "null-hash",
        "block-extra-key", "transaction-extra-key", "transaction-not-an-object",
    ],
)
def test_validators_agree_and_fail_as_values(tmp_path, records):
    assert_readers_refuse(records, 2, tmp_path)


def stringly_timestamps():
    """A block timestamp as a JSON string and its transactions' as floats; read
    back with ``int()``, both would hash to the sealed value."""
    records = [b.to_dict() for b in build_chain(3).blocks]
    for t in records[2]["transactions"]:
        t["timestamp"] = float(t["timestamp"])
    records[2]["timestamp"] = str(records[2]["timestamp"])
    return records, 2


def retyped_height(index, value):
    records = [b.to_dict() for b in build_chain(3).blocks]
    records[index]["height"] = value
    return records, index


@pytest.mark.parametrize(
    "case",
    [stringly_timestamps(), retyped_height(0, False), retyped_height(1, 1.0)],
    ids=["string-and-float-timestamps", "false-genesis-height", "float-height"],
)
def test_chain_readers_refuse_wrong_json_types(tmp_path, case):
    records, bad = case
    assert_readers_refuse(records, bad, tmp_path)


def moved_transaction(into, take_from=1):
    """Block ``into`` carries one more transaction, block ``take_from``'s, stamped
    with its time, and the chain is resealed from ``into`` on so that every hash
    and link holds: only the one-transaction rule is broken."""
    records = [b.to_dict() for b in build_chain(3).blocks]
    extra = dict(records[take_from]["transactions"][0], timestamp=records[into]["timestamp"])
    records[into]["transactions"].append(extra)
    return reseal(records, into), into


@pytest.mark.parametrize(
    "case",
    [moved_transaction(2), moved_transaction(0)],
    ids=["two-transaction-block", "transaction-in-genesis"],
)
def test_chain_readers_refuse_a_block_of_the_wrong_size(tmp_path, case):
    records, bad = case
    assert_readers_refuse(records, bad, tmp_path)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_number_of_another_json_type_is_refused_alike(data, tmp_path_factory):
    records = [b.to_dict() for b in build_chain(2).blocks]
    index = data.draw(st.integers(min_value=0, max_value=len(records) - 1))
    target = records[index]
    if target["transactions"] and data.draw(st.booleans()):
        target = target["transactions"][data.draw(st.integers(0, len(target["transactions"]) - 1))]
    field = data.draw(st.sampled_from(sorted({"height", "timestamp"} & set(target))))
    value = target[field]
    others = [float(value), str(value), [value], {"n": value}, None]
    if value in (0, 1):
        others.append(bool(value))
    target[field] = data.draw(st.sampled_from(others))
    assert_readers_refuse(records, index, tmp_path_factory.mktemp("chain"))


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
