import gc
import hashlib
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgate.canonical import canonical_json_bytes
from fedgate.cli import main
from fedgate.clock import SimulatedClock
from fedgate.errors import ValidationError
from fedgate.ledger import Chain, load_chain, verify_chain_file
from fedgate.ledger.chain import GENESIS_PREV_HASH, TRANSACTION_KINDS, Block, Transaction, verify_chain_records
from fedgate.scenario import ScenarioConfig, run_demo

from support import awkward_text, find_transaction, payload_dict, transactions


def tx(n, kind="did_registration", submitter="did:efed:tester"):
    return Transaction(kind, canonical_json_bytes({"n": n}), submitter)


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
    # A block's root is its one transaction's id; the line does not store it.
    block = build_chain(1).blocks[1]
    (block_tx,) = block.transactions
    header = (
        block.height.to_bytes(8, "big")
        + bytes.fromhex(block.prev_hash)
        + bytes.fromhex(block_tx.tx_id)
        + block.timestamp.to_bytes(8, "big")
    )
    assert block.hash == hashlib.sha256(header).hexdigest()
    assert "merkleRoot" not in block.to_dict()


# -------------------------------------------------------------- transactions


def test_tx_id_is_hash_of_payload_kind_submitter():
    t = tx(7)
    expected = hashlib.sha256(
        t.payload + b"did_registration" + b"did:efed:tester"
    ).hexdigest()
    assert t.tx_id == expected


def test_tx_rejects_wrong_id_and_kind():
    # A transaction's id is derived, never read: a chain line that states one is refused.
    line = build_chain(1).blocks[1].to_dict()
    with pytest.raises(ValidationError, match="keys"):
        Block.from_dict(dict(line, txId="00" * 32))
    with pytest.raises(ValidationError):
        Transaction("mint_money", canonical_json_bytes({}), "did:efed:x")


@pytest.mark.parametrize(
    "fields",
    [
        (b"access_grant", b"{}", "did:efed:x"),
        ("access_grant", "{}", "did:efed:x"),
        ("access_grant", b"{}", None),
    ],
    ids=["bytes-kind", "str-payload", "null-submitter"],
)
def test_tx_refuses_a_field_of_another_type(fields):
    with pytest.raises(ValidationError, match="must be"):
        Transaction(*fields)


def test_tx_round_trip():
    # A transaction is written as its block's line and read back whole.
    block = build_chain(2).blocks[2]
    (written,) = block.transactions
    (read,) = Block.from_dict(json.loads(canonical_json_bytes(block.to_dict()))).transactions
    fields = ("tx_id", "kind", "payload", "submitter")
    assert [getattr(read, f) for f in fields] == [getattr(written, f) for f in fields]
    assert type(read.payload) is bytes


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


def test_a_simulated_clock_only_moves_forward():
    # The grant store and the pending table evict on this rule.
    clock = SimulatedClock(start=5)
    with pytest.raises(ValueError, match="^clocks only move forward$"):
        clock.advance(-1)
    assert clock() == 5
    assert clock.advance(0) == 5


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


def count_hashes(monkeypatch):
    """Count the calls to the tx-id and block-hash functions from now on."""
    from fedgate.ledger import chain as chain_module

    counts = {"_tx_id": 0, "_block_hash": 0}
    for name in counts:
        original = getattr(chain_module, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(chain_module, name, counted)
    return counts


def test_record_computes_each_hash_once(monkeypatch):
    chain = Chain(clock=SimulatedClock(start=9))
    counts = count_hashes(monkeypatch)
    for n in range(3):
        chain.record("access_denial", {"missing": ["role"], "n": n}, "did:efed:u")
        assert counts == {"_tx_id": n + 1, "_block_hash": n + 1}
    assert verify_chain_records([b.to_dict() for b in chain.blocks]) == (True, None)


@pytest.mark.parametrize("reader", [verify_chain_file, load_chain], ids=["verify", "load"])
def test_reading_a_chain_file_computes_each_hash_once(tmp_path, monkeypatch, reader):
    chain = build_chain(5)
    path = chain.write_chain(tmp_path / "chain.jsonl")
    n = len(chain.blocks)
    counts = count_hashes(monkeypatch)
    reader(path)
    assert counts == {"_tx_id": n - 1, "_block_hash": n}


# ---------------------------------------------------------- tamper evidence


def test_mutated_payload_detected_at_its_height():
    chain = build_chain(3)
    records = [b.to_dict() for b in chain.blocks]
    assert records[1]["payload"] == '{"n":0}'
    records[1]["payload"] = '{"n":5}'
    ok, bad = verify_chain_records(records)
    assert not ok and bad == 1


def test_reordered_transactions_break_merkle_root():
    records = [b.to_dict() for b in build_chain(2, step=0).blocks]
    for field in ("kind", "submitter", "payload"):
        records[1][field], records[2][field] = records[2][field], records[1][field]
    ok, bad = verify_chain_records(records)
    assert not ok and bad == 1


def test_unlinked_block_detected():
    chain = build_chain(2)
    records = [b.to_dict() for b in chain.blocks]
    records[2]["prevHash"] = "11" * 32
    ok, bad = verify_chain_records(records)
    assert not ok and bad == 2


@pytest.mark.parametrize("index", [0, 2])
def test_a_line_sealed_over_another_prev_hash_is_unlinked(index):
    # The line's own hash holds, so only the link between blocks refuses it.
    records = [b.to_dict() for b in build_chain(2).blocks]
    records[index]["prevHash"] = "11" * 32
    seal(records[index])
    assert verify_chain_records(records) == (False, index)


def test_file_round_trip_and_tamper(tmp_path):
    chain = build_chain(4)
    path = chain.write_chain(tmp_path / "chain.jsonl")
    assert verify_chain_file(path) == (True, None)
    blocks = load_chain(path)
    assert [b.hash for b in blocks] == [b.hash for b in chain.blocks]

    raw = bytearray(path.read_bytes())
    # flip one bit of a character inside the payload string
    target = raw.index(b'"payload"') + len(b'"payload":"{\\"')
    assert raw[target : target + 1] == b"n"
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


def seal(record):
    """Recompute one line's hash the way a forger would, straight from the
    documented formulas: its root is the id of its transaction,
    ``sha256(payload ‖ kind ‖ submitter)``, or 32 zero bytes on a line
    without one."""
    if "payload" in record:
        body = record["payload"].encode() + record["kind"].encode() + record["submitter"].encode()
        root = hashlib.sha256(body).digest()
    else:
        root = bytes(32)
    header = (
        record["height"].to_bytes(8, "big")
        + bytes.fromhex(record["prevHash"])
        + root
        + record["timestamp"].to_bytes(8, "big")
    )
    record["hash"] = hashlib.sha256(header).hexdigest()


def reseal(records, start):
    """Seal every line from ``start`` on, each linked to the one before."""
    for index in range(start, len(records)):
        if index > 0:
            records[index]["prevHash"] = records[index - 1]["hash"]
        seal(records[index])
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


@pytest.mark.parametrize(
    "field, value", [("timestamp", 2**64), ("timestamp", -1), ("height", 2**64)], ids=["timestamp-2**64", "timestamp--1", "height-2**64"]
)
def test_a_field_past_eight_unsigned_bytes_is_refused_not_raised(tmp_path, field, value):
    # The header hashes both as 8-byte unsigned integers, where 2**64 and -1
    # raise OverflowError; the readers must report the line instead.
    records = [b.to_dict() for b in build_chain(3).blocks]
    records[2][field] = value
    assert_readers_refuse(records, 2, tmp_path)


def test_reseal_reproduces_an_honest_chain():
    records = [b.to_dict() for b in build_chain(3).blocks]
    assert reseal(json.loads(json.dumps(records)), 0) == records


def lines():
    return [b.to_dict() for b in build_chain(3).blocks]


def forged_unknown_kind():
    records = lines()
    records[2]["kind"] = "mint_money"
    return reseal(records, 2)


def non_string_field(field, value=7):
    records = lines()
    records[2][field] = value
    return records


def null_block_hash(field):
    records = lines()
    records[2][field] = None
    return records


def injected_key(key, value="hand edit"):
    """Line 2 with a key its writer never writes."""
    records = lines()
    records[2][key] = value
    return records


def nested_line(block):
    """A block in the layout chain files had before the flat line: a
    ``transactions`` list of hex-payload objects and a ``merkleRoot``."""
    transactions = [
        {
            "kind": t.kind,
            "payload": t.payload.hex(),
            "submitter": t.submitter,
            "timestamp": block.timestamp,
            "txId": t.tx_id,
        }
        for t in block.transactions
    ]
    return {
        "hash": block.hash,
        "height": block.height,
        "merkleRoot": transactions[0]["txId"] if transactions else "00" * 32,
        "prevHash": block.prev_hash,
        "timestamp": block.timestamp,
        "transactions": transactions,
    }


def restated_key(key):
    """Line 2 restating, under the nested layout's key, a value the reader derives."""
    nested = nested_line(build_chain(3).blocks[2])
    nested["txId"] = nested["merkleRoot"]  # the id of the block's one transaction
    records = lines()
    records[2][key] = nested[key]
    return records


def without_key(key):
    records = lines()
    del records[2][key]
    return records


def line_not_an_object():
    records = lines()
    records[2] = "not an object"
    return records


@pytest.mark.parametrize(
    "records",
    [
        forged_unknown_kind(),
        non_string_field("submitter"),
        non_string_field("kind"),
        injected_key("txId", None),
        injected_key("merkleRoot", None),
        null_block_hash("hash"),
        injected_key("note"),
        injected_key("decoded", {"n": 1}),
        line_not_an_object(),
        non_string_field("payload", {"n": 1}),
        non_string_field("payload", 7),
        without_key("submitter"),
        restated_key("txId"),
        restated_key("merkleRoot"),
        restated_key("transactions"),
    ],
    ids=[
        "unknown-kind-resealed", "int-submitter", "int-kind",
        "null-tx-id", "null-merkle-root", "null-hash",
        "block-extra-key", "transaction-extra-key", "transaction-not-an-object",
        "payload-object", "payload-number", "missing-submitter",
        "old-tx-id-key", "old-merkle-root-key", "old-transactions-key",
    ],
)
def test_validators_agree_and_fail_as_values(tmp_path, records):
    assert_readers_refuse(records, 2, tmp_path)


def stringly_timestamps():
    """A block timestamp as a JSON string, and the next one as a float; read
    back with ``int()``, each would hash to the sealed value."""
    records = lines()
    records[2]["timestamp"] = str(records[2]["timestamp"])
    records[3]["timestamp"] = float(records[3]["timestamp"])
    return records, 2


def retyped_height(index, value):
    records = lines()
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
    """Line ``into`` also carries line ``take_from``'s transaction. A flat line
    has one slot per transaction field, so on a later line the second
    transaction turns its fields into lists, which no hash formula covers. The
    genesis line has no such fields, so it gains them and is resealed: every
    hash and link holds, and only the one-transaction rule is broken."""
    records = lines()
    target, source = records[into], records[take_from]
    if into:
        for field in ("kind", "submitter", "payload"):
            target[field] = [target[field], source[field]]
        return records, into
    target.update(kind=source["kind"], submitter=source["submitter"], payload=source["payload"])
    return reseal(records, 0), 0


def genesis_with_kind():
    records = lines()
    records[0]["kind"] = records[1]["kind"]
    return records, 0


@pytest.mark.parametrize(
    "case",
    [moved_transaction(2), moved_transaction(0), genesis_with_kind()],
    ids=["two-transaction-block", "transaction-in-genesis", "genesis-with-kind"],
)
def test_chain_readers_refuse_a_block_of_the_wrong_size(tmp_path, case):
    records, bad = case
    assert_readers_refuse(records, bad, tmp_path)


def test_a_block_holds_at_most_one_transaction():
    genesis = Chain(clock=SimulatedClock(0)).blocks[0]
    with pytest.raises(ValidationError, match="holds 2 transactions"):
        Block(1, genesis.hash, 0, (tx(0), tx(0)))


def test_a_chain_file_in_the_nested_layout_is_refused_at_genesis(tmp_path, capsys):
    # Every hash in it holds; only its layout is the old one. No reader converts it.
    path = write_records(tmp_path / "chain.jsonl", [nested_line(b) for b in build_chain(2).blocks])
    assert verify_chain_file(path) == (False, 0)
    with pytest.raises(ValidationError, match="height 0"):
        load_chain(path)
    capsys.readouterr()
    assert main(["verify-chain", str(path)]) == 1
    assert capsys.readouterr().out == "chain invalid at height 0\n"


def test_an_empty_chain_file_is_refused_at_genesis(tmp_path, capsys):
    # Every chain holds its genesis block, so a file of no lines holds no chain.
    path = tmp_path / "chain.jsonl"
    path.write_bytes(b"")
    assert verify_chain_file(path) == (False, 0)
    with pytest.raises(ValidationError, match="^chain invalid at height 0$"):
        load_chain(path)
    assert main(["verify-chain", str(path)]) == 1
    assert capsys.readouterr().out == "chain invalid at height 0\n"


def test_a_blank_line_in_a_chain_file_is_refused_at_its_height(tmp_path, capsys):
    # The writer writes no blank line, so a reader that skipped one would accept bytes it never wrote.
    run_demo(ScenarioConfig(out_dir=str(tmp_path / "demo"), seed=7))
    written = (tmp_path / "demo" / "chain.jsonl").read_bytes().splitlines(keepends=True)
    path = tmp_path / "blank.jsonl"
    path.write_bytes(b"".join(written[:3]) + b"\n  \n" + b"".join(written[3:]))
    assert verify_chain_file(path) == (False, 3)
    with pytest.raises(ValidationError, match="height 3"):
        load_chain(path)
    capsys.readouterr()
    assert main(["verify-chain", str(path)]) == 1
    assert capsys.readouterr().out == "chain invalid at height 3\n"


def test_every_bit_flip_of_two_seed_7_lines_is_refused_at_its_height(tmp_path):
    """Each single-bit flip of the seed-7 contract-lookup demo's genesis line
    and first ``access_grant`` line, newline included, is refused by both
    readers at that line's height."""
    run_demo(ScenarioConfig(out_dir=str(tmp_path / "demo"), seed=7))
    written = (tmp_path / "demo" / "chain.jsonl").read_bytes().splitlines(keepends=True)
    grant = next(h for h, line in enumerate(written) if b'"kind":"access_grant"' in line)
    path = tmp_path / "flipped.jsonl"
    accepted = []
    for height in (0, grant):
        before, line = b"".join(written[:height]), written[height]
        after = b"".join(written[height + 1 :])
        for bit in range(len(line) * 8):
            flipped = bytearray(line)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(before + flipped + after)
            if verify_chain_file(path) != (False, height):
                accepted.append((height, bit))
                continue
            try:
                load_chain(path)
            except ValidationError:
                continue
            accepted.append((height, bit))
    assert accepted == []


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_number_of_another_json_type_is_refused_alike(data, tmp_path_factory):
    records = [b.to_dict() for b in build_chain(2).blocks]
    index = data.draw(st.integers(min_value=0, max_value=len(records) - 1))
    target = records[index]
    field = data.draw(st.sampled_from(["height", "timestamp"]))
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


# ------------------------------------------------------- one line at a time


@pytest.fixture(scope="module")
def seed_7_chain(tmp_path_factory):
    """The lines of the seed-7 contract-lookup demo's chain file."""
    out = tmp_path_factory.mktemp("seed-7") / "demo"
    run_demo(ScenarioConfig(out_dir=str(out), seed=7))
    return (out / "chain.jsonl").read_bytes().splitlines(keepends=True)


def assert_refused_at(path, height):
    assert verify_chain_file(path) == (False, height)
    with pytest.raises(ValidationError, match=f"chain invalid at height {height}$"):
        load_chain(path)


def test_whitespace_around_a_lines_value_is_refused_at_its_height(seed_7_chain, tmp_path):
    # A line's value must end at its newline: parsed with ``json.loads``, this
    # file verified (True, None) and loaded all 11 blocks. The space after a
    # comma on line 6 is inside a value, where the chain readers still accept
    # whitespace; only the identity log's reader compares a line's bytes.
    lines = list(seed_7_chain)
    assert len(lines) == 11
    lines[4] = lines[4][:-1] + b" \r\n"
    lines[6] = lines[6].replace(b",", b", ", 1)
    path = tmp_path / "spaced.jsonl"
    path.write_bytes(b"".join(lines))
    assert_refused_at(path, 4)
    for height, spoiled in ((2, b" " + seed_7_chain[2]), (3, seed_7_chain[3][:-1] + b"\t\n")):
        path.write_bytes(b"".join(seed_7_chain[:height] + [spoiled] + seed_7_chain[height + 1 :]))
        assert_refused_at(path, height)


def test_a_line_nested_past_the_recursion_limit_is_refused_not_raised(seed_7_chain, tmp_path, capsys):
    # The JSON decoder raises RecursionError, not ValueError, on such a line.
    path = tmp_path / "deep.jsonl"
    path.write_bytes(b"".join(seed_7_chain[:2]) + b"[" * 100_000 + b"\n")
    assert_refused_at(path, 2)
    capsys.readouterr()
    assert main(["verify-chain", str(path)]) == 1
    assert capsys.readouterr().out == "chain invalid at height 2\n"


def test_a_last_line_without_its_newline_is_refused(seed_7_chain, tmp_path):
    path = tmp_path / "cut.jsonl"
    path.write_bytes(b"".join(seed_7_chain)[:-1])
    assert_refused_at(path, len(seed_7_chain) - 1)


def test_the_readers_close_the_file_when_they_stop_early(seed_7_chain, tmp_path, monkeypatch):
    import fedgate.canonical as canonical

    opened = []
    original = canonical.Path.open

    def tracked(self, *args, **kwargs):
        opened.append(original(self, *args, **kwargs))
        return opened[-1]

    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"".join(seed_7_chain[:3]) + b"not json\n" + b"".join(seed_7_chain[4:]))
    monkeypatch.setattr(canonical.Path, "open", tracked)
    assert_refused_at(path, 3)
    assert len(opened) == 2 and all(fh.closed for fh in opened)


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.sampled_from(sorted(TRANSACTION_KINDS)),
            st.dictionaries(awkward_text, awkward_text | st.integers(), max_size=3),
            awkward_text,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_a_chain_of_awkward_text_reads_back_block_for_block(entries, tmp_path_factory):
    """Payloads and submitters with quotes, backslashes, control characters,
    line separators, non-ASCII and astral text: the file holds each block's
    canonical JSON line and reads back through both strict readers to equal
    blocks."""
    clock = SimulatedClock(start=5)
    chain = Chain(clock=clock)
    for kind, payload, submitter in entries:
        clock.advance(1)
        chain.record(kind, payload, submitter)
    path = chain.write_chain(tmp_path_factory.mktemp("chain") / "chain.jsonl")
    assert path.read_bytes() == b"".join(canonical_json_bytes(b.to_dict()) + b"\n" for b in chain.blocks)
    assert verify_chain_file(path) == (True, None)

    def fields(blocks):
        return [
            (b.hash, b.height, b.prev_hash, b.timestamp, [(t.kind, t.payload, t.submitter) for t in b.transactions])
            for b in blocks
        ]

    assert fields(load_chain(path)) == fields(chain.blocks)


def write_long_chain(path, n_blocks):
    """A chain file of ``n_blocks`` written one block at a time, so the writer holds no chain."""
    block = Block(0, GENESIS_PREV_HASH, 0, ())
    with path.open("wb") as fh:
        fh.write(canonical_json_bytes(block.to_dict()) + b"\n")
        for height in range(1, n_blocks):
            tx = Transaction("access_grant", canonical_json_bytes({"n": height, "pad": "x" * 200}), "did:efed:m")
            block = Block(height, block.hash, height, (tx,))
            fh.write(canonical_json_bytes(block.to_dict()) + b"\n")
    return path


def heap_use(fn, *args):
    """``fn(*args)``'s result, and the bytes it left allocated and its heap peak, by ``tracemalloc``."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


def test_an_audit_holds_one_line_at_a_time(tmp_path):
    """``verify_chain_file``'s heap peak stays under one small bound whatever
    the chain's length, and ``load_chain`` peaks at the blocks it returns plus
    that bound: neither holds a list of parsed lines (which took 4 MB and
    2 MB on the 2,000-block chain, 40 MB and 21 MB on the 20,000-block one)."""
    bound = 64 * 1024
    small = write_long_chain(tmp_path / "small.jsonl", 10)
    verify_chain_file(small), load_chain(small)  # first calls, outside the measure
    for n_blocks in (2_000, 20_000):
        path = write_long_chain(tmp_path / f"chain-{n_blocks}.jsonl", n_blocks)
        result, _, peak = heap_use(verify_chain_file, path)
        assert result == (True, None)
        assert peak < bound, (n_blocks, peak)
        blocks, retained, peak = heap_use(load_chain, path)
        assert len(blocks) == n_blocks
        assert peak - retained < bound, (n_blocks, peak, retained)
