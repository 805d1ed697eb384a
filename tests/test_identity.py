import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgate import scenario
from fedgate.canonical import canonical_json_bytes, from_hex, sha256_hex
from fedgate.claims import VerifiableClaim, sign_claim
from fedgate.errors import ValidationError
from fedgate.identity import (
    Attestation,
    DidDocument,
    DidIdentifier,
    DidRegistry,
    PublicKeyEntry,
    RegistryDriver,
    Resolver,
)
from fedgate.identity.did import parse_did
from fedgate.identity.registry import AlreadyRegisteredError, UnknownDidError
from fedgate.errors import FedGateError
from fedgate.keys import KeyPair, verify_signature

from support import Stack, awkward_text, is_lowercase_hex, receipt

METHOD_ALPHA = "abcdefghijklmnopqrstuvwxyz0123456789"
SPECIFIC_ALPHA = METHOD_ALPHA + METHOD_ALPHA.upper() + "._-"


def make_document(specific_id="alice01", method="efed", version=1, claims=(), seed=1):
    key = KeyPair.generate(bytes([seed]) * 32)
    return (
        DidDocument(
            id=DidIdentifier(method=method, specific_id=specific_id),
            public_keys=(
                PublicKeyEntry(key_id="key-1", algorithm="Ed25519", public_bytes=key.public_bytes),
            ),
            authentication=("key-1",),
            claims=tuple(claims),
            version=version,
        ),
        key,
    )


# ------------------------------------------------------------------ parsing


def test_parse_three_parts():
    did = parse_did("did:efed:alice01")
    assert (did.method, did.specific_id) == ("efed", "alice01")
    assert str(did) == "did:efed:alice01"


def test_identifier_text_is_formatted_once_and_is_no_part_of_its_value():
    did = DidIdentifier("efed", "alice01")
    assert str(did) is str(did)  # a field read, not a new string per call
    assert repr(did) == "DidIdentifier(method='efed', specific_id='alice01')"
    assert did == parse_did("did:efed:alice01") and hash(did) == hash(parse_did("did:efed:alice01"))
    assert did != DidIdentifier("efed", "alice02")


def test_parse_error_variants():
    with pytest.raises(ValidationError, match="scheme must be 'did'"):
        parse_did("urn:efed:alice01")
    with pytest.raises(ValidationError, match="expected three colon-separated parts, got 2"):
        parse_did("did:efed")
    with pytest.raises(ValidationError, match="expected three colon-separated parts, got 4"):
        parse_did("did:efed:a:b")
    with pytest.raises(ValidationError, match="method-specific id must be non-empty"):
        parse_did("did:efed:")
    with pytest.raises(ValidationError, match="method must be lowercase alphanumeric"):
        parse_did("did:EFED:alice")
    with pytest.raises(ValidationError, match=r"specific id may only use \[A-Za-z0-9._-\]"):
        parse_did("did:efed:al ice")


@pytest.mark.parametrize(
    "text, refusal",
    [("did:efed:alice\n", "specific id may only use"), ("did:efed\n:alice", "method must be lowercase")],
    ids=["id", "method"],
)
def test_a_trailing_newline_is_no_did(text, refusal):
    # A "$" anchor also matches before a final newline; each part must match whole.
    with pytest.raises(ValidationError, match=refusal):
        parse_did(text)


@settings(max_examples=200, deadline=None)
@given(
    method=st.text(alphabet=METHOD_ALPHA, min_size=1, max_size=12),
    specific=st.text(alphabet=SPECIFIC_ALPHA, min_size=1, max_size=24),
)
def test_parse_format_round_trip(method, specific):
    text = f"did:{method}:{specific}"
    did = parse_did(text)
    assert str(did) == text
    assert parse_did(str(did)) == did


# -------------------------------------------------------------------- keys


def test_seeded_keypair_is_pinned_and_comparable():
    key = KeyPair.generate(b"\x07" * 32)
    assert key.public_bytes.hex() == (
        "ea4a6c63e29c520abef5507b132ec5f9954776aebebe7b92421eea691446d22c"
    )
    assert key == KeyPair.generate(b"\x07" * 32)
    assert key != KeyPair.generate(b"\x08" * 32)
    # the Ed25519 library refuses a seed of any other length than 32 bytes
    for size in (0, 31, 33):
        with pytest.raises(ValueError, match="32 bytes"):
            KeyPair.generate(b"\x07" * size)


def test_keypairs_verify_only_their_own_signatures():
    a, b = KeyPair.generate(b"\x01" * 32), KeyPair.generate(b"\x02" * 32)
    for key in (a, b):
        assert verify_signature(key.public_bytes, b"message", key.sign(b"message"))
    assert not verify_signature(b.public_bytes, b"message", a.sign(b"message"))


# ---------------------------------------------------------------- hex


HEX_ALPHABET = "0123456789abcdef" + "ABCDEF" + " \n" + "\u0661\u0662\uff11"


@settings(max_examples=400, deadline=None)
@given(text=st.text(alphabet=HEX_ALPHABET, max_size=12) | st.text(max_size=6))
def test_from_hex_accepts_exactly_what_the_regex_accepts(text):
    if is_lowercase_hex(text):
        assert from_hex(text) == bytes.fromhex(text)
    else:
        with pytest.raises(ValueError):
            from_hex(text)


@pytest.mark.parametrize("value", [b"ab", bytearray(b"ab"), None, 171, ["ab"]])
def test_from_hex_refuses_what_is_not_a_string(value):
    with pytest.raises(ValueError):
        from_hex(value)


# ---------------------------------------------------------------- document


def test_authentication_must_reference_a_key():
    key = KeyPair.generate(b"\x07" * 32)
    with pytest.raises(ValidationError):
        DidDocument(
            id=DidIdentifier(method="efed", specific_id="x"),
            public_keys=(
                PublicKeyEntry(key_id="key-1", algorithm="Ed25519", public_bytes=key.public_bytes),
            ),
            authentication=("key-2",),
        )


def test_document_round_trip_and_digest_stability():
    claim = sign_claim(
        KeyPair.generate(b"\x09" * 32),
        claim_type="consortium_member",
        value="yes",
        subject="did:efed:alice01",
        issuer="did:efed:issuer",
        issued_at=100,
        expires_at=200,
    )
    doc, _ = make_document(claims=(claim,))
    again = DidDocument.from_dict(doc.to_dict())
    assert again == doc
    assert again.digest() == doc.digest()
    assert json.loads(doc.canonical_bytes()) == doc.to_dict()


def test_with_claim_bumps_version():
    doc, _ = make_document()
    claim = sign_claim(
        KeyPair.generate(b"\x0a" * 32),
        claim_type="role",
        value="researcher",
        subject=str(doc.id),
        issuer="did:efed:issuer",
        issued_at=1,
        expires_at=2,
    )
    updated = doc.with_claim(claim)
    assert updated.version == doc.version + 1
    assert updated.claims[-1] == claim
    assert doc.claims == ()


CLAIMS = st.builds(
    VerifiableClaim,
    claim_type=st.text(min_size=1, max_size=8),
    value=st.text(max_size=8),
    subject=st.just("did:efed:alice01"),
    issuer=st.just("did:efed:issuer"),
    issued_at=st.integers(min_value=0, max_value=10**6),
    expires_at=st.integers(min_value=10**6 + 1, max_value=2 * 10**6),
    signature=st.binary(min_size=64, max_size=64),
)


def assert_stored_encoding(doc):
    body = canonical_json_bytes(doc.to_dict())
    assert doc.canonical_bytes() == body
    assert doc.digest() == sha256_hex(body)


@settings(max_examples=60, deadline=None)
@given(
    method=st.text(alphabet=METHOD_ALPHA, min_size=1, max_size=12),
    specific=st.text(alphabet=SPECIFIC_ALPHA, min_size=1, max_size=24),
    public_bytes=st.binary(min_size=32, max_size=32),
    claims=st.lists(CLAIMS, max_size=4),
)
def test_stored_document_bytes_are_its_canonical_encoding(method, specific, public_bytes, claims):
    docs = [DidDocument.for_key(method, specific, public_bytes)]
    for claim in claims:
        docs.append(docs[-1].with_claim(claim))
    docs += [DidDocument.from_dict(doc.to_dict()) for doc in docs]
    for doc in docs:
        assert_stored_encoding(doc)
    # The stored encoding takes no part in equality or hashing.
    twin = DidDocument.from_dict(docs[-1].to_dict())
    object.__setattr__(twin, "_encoded", (b"", ""))
    assert twin == docs[-1] and hash(twin) == hash(docs[-1])


def test_seed_7_demo_documents_store_their_canonical_encoding(tmp_path, monkeypatch):
    desks, build = [], scenario.build_desk

    def capture(*args, **kwargs):
        desks.append(build(*args, **kwargs))
        return desks[-1]

    monkeypatch.setattr(scenario, "build_desk", capture)
    out = tmp_path / "demo"
    scenario.run_demo(scenario.ScenarioConfig(out_dir=str(out), seed=7))
    replayed = DidRegistry.replay_log(out / "identity.jsonl", receipt)
    ids = {json.loads(line)["document"]["id"] for line in (out / "identity.jsonl").read_text().splitlines()}
    assert len(ids) == len(desks[0].registry) > 2
    for did in ids:
        live = desks[0].registry.get(did)
        assert_stored_encoding(live)
        assert_stored_encoding(replayed.get(did))
        assert replayed.get(did).digest() == live.digest()


CLAIM_DICT = sign_claim(
    KeyPair.generate(b"\x0d" * 32),
    claim_type="role",
    value="researcher",
    subject="did:efed:alice01",
    issuer="did:efed:issuer",
    issued_at=5,
    expires_at=9,
).to_dict()

BAD_CLAIM_FIELDS = [
    ("claimType", 5),
    ("value", ["yes"]),
    ("value", None),
    ("subject", {"id": "did:efed:alice01"}),
    ("issuer", b"did:efed:issuer"),
    ("issuedAt", "5"),
    ("issuedAt", 5.0),
    ("issuedAt", False),
    ("expiresAt", [9]),
    ("expiresAt", True),
]


@pytest.mark.parametrize(("field", "value"), BAD_CLAIM_FIELDS)
def test_claim_rejects_fields_of_the_wrong_type(field, value):
    assert VerifiableClaim.from_dict(CLAIM_DICT).to_dict() == CLAIM_DICT
    with pytest.raises(ValidationError):
        VerifiableClaim.from_dict({**CLAIM_DICT, field: value})


def test_claim_signature_must_be_bytes():
    claim = VerifiableClaim.from_dict(CLAIM_DICT)
    with pytest.raises(ValidationError):
        VerifiableClaim(**{**vars(claim), "signature": CLAIM_DICT["signature"]})


# ---------------------------------------------------------------- registry


def test_register_and_get():
    registry = DidRegistry(receipt)
    doc, _ = make_document()
    registry.register(doc, profile_hash="profile-a")
    assert registry.get("did:efed:alice01") == doc
    assert "did:efed:alice01" in registry


def test_duplicate_id_rejected():
    registry = DidRegistry(receipt)
    doc, _ = make_document()
    registry.register(doc, profile_hash="profile-a")
    with pytest.raises(AlreadyRegisteredError):
        registry.register(doc, profile_hash="profile-b")


def test_duplicate_profile_rejected():
    registry = DidRegistry(receipt)
    a, _ = make_document("alice01")
    b, _ = make_document("bob01")
    registry.register(a, profile_hash="same-person")
    with pytest.raises(AlreadyRegisteredError, match="profile already registered under did:efed:alice"):
        registry.register(b, profile_hash="same-person")


def test_update_requires_exact_version_step():
    registry = DidRegistry(receipt)
    doc, _ = make_document()
    registry.register(doc, profile_hash="p")
    with pytest.raises(FedGateError, match="version must step 1 -> 2, got 3"):
        registry.update(make_document(version=3)[0])
    with pytest.raises(FedGateError, match="version must step 1 -> 2, got 1"):
        registry.update(doc)  # version 1 again is a rollback
    registry.update(make_document(version=2)[0])
    assert registry.get(str(doc.id)).version == 2
    with pytest.raises(UnknownDidError):
        registry.update(make_document("ghost")[0])


def test_registration_must_start_at_version_one():
    registry = DidRegistry(receipt)
    with pytest.raises(ValidationError):
        registry.register(make_document(version=2)[0], profile_hash="p")


def test_recorder_sees_every_mutation():
    seen = []

    def recorder(kind, payload, submitter):
        seen.append((kind, payload["version"], submitter))
        return f"tx-{len(seen)}"

    registry = DidRegistry(recorder=recorder)
    doc, _ = make_document()
    r1 = registry.register(doc, profile_hash="p")
    claim = sign_claim(
        KeyPair.generate(b"\x0b" * 32),
        claim_type="role",
        value="researcher",
        subject=str(doc.id),
        issuer="did:efed:issuer",
        issued_at=1,
        expires_at=2,
    )
    r2 = registry.update(doc.with_claim(claim))
    assert (r1, r2) == ("tx-1", "tx-2")
    assert seen == [
        ("did_registration", 1, "did:efed:alice01"),
        ("did_registration", 2, "did:efed:alice01"),
    ]


def test_log_replay_reproduces_state(tmp_path):
    registry = DidRegistry(receipt)
    a, _ = make_document("alice01")
    b, _ = make_document("bob01", seed=2)
    registry.register(a, profile_hash="pa")
    registry.register(b, profile_hash="pb")
    claim = sign_claim(
        KeyPair.generate(b"\x0c" * 32),
        claim_type="role",
        value="owner",
        subject=str(a.id),
        issuer="did:efed:issuer",
        issued_at=5,
        expires_at=9,
    )
    registry.update(a.with_claim(claim))

    path = registry.write_log(tmp_path / "registry.jsonl")
    replayed = DidRegistry.replay_log(path, receipt)
    assert len(replayed) == len(registry) == 2
    for did in (a.id, b.id):
        assert replayed.get(did) == registry.get(did)
    # replay enforces the same uniqueness rules
    with pytest.raises(AlreadyRegisteredError, match="profile already registered"):
        replayed.register(make_document("carol01", seed=3)[0], profile_hash="pa")


@pytest.mark.parametrize(("field", "value"), BAD_CLAIM_FIELDS[:2])
def test_log_replay_rejects_a_claim_of_the_wrong_type(tmp_path, field, value):
    document, _ = make_document()
    line = {"op": "register", "document": document.to_dict(), "profileHash": "p"}
    line["document"]["claims"] = [{**CLAIM_DICT, field: value}]
    path = tmp_path / "registry.jsonl"
    path.write_bytes(canonical_json_bytes(line) + b"\n")
    with pytest.raises(ValidationError):
        DidRegistry.replay_log(path, receipt)


def _key_id_list(doc):
    doc["publicKeys"][0]["keyId"] = ["key-1"]
    doc["authentication"] = [["key-1"]]


BAD_DOCUMENT_FIELDS = {
    "version-bool": lambda doc: doc.update(version=True),
    "version-text": lambda doc: doc.update(version="2"),
    "version-fraction": lambda doc: doc.update(version=1.9),
    "key-id-list": _key_id_list,
    "authentication-list": lambda doc: doc.update(authentication=[["key-1"]]),
    "key-algorithm-int": lambda doc: doc["publicKeys"][0].update(algorithm=5),
    "key-algorithm-rsa": lambda doc: doc["publicKeys"][0].update(algorithm="RSA"),
    "endpoint-int-and-null": lambda doc: doc.update(serviceEndpoints=[{"type": 1, "uri": None}]),
}


@pytest.mark.parametrize("spoil", BAD_DOCUMENT_FIELDS.values(), ids=BAD_DOCUMENT_FIELDS)
def test_document_fields_of_the_wrong_type_are_refused(tmp_path, spoil):
    good = make_document()[0].to_dict()
    assert DidDocument.from_dict(good).to_dict() == good
    bad = json.loads(json.dumps(good))
    spoil(bad)
    with pytest.raises(ValidationError):
        DidDocument.from_dict(bad)
    path = tmp_path / "registry.jsonl"
    path.write_bytes(canonical_json_bytes({"op": "register", "document": bad, "profileHash": "p"}) + b"\n")
    with pytest.raises(ValidationError):
        DidRegistry.replay_log(path, receipt)


def _upper_key_hex(doc):
    doc["publicKeys"][0]["publicKeyHex"] = doc["publicKeys"][0]["publicKeyHex"].upper()


def _upper_claim_signature(doc):
    doc["claims"] = [{**CLAIM_DICT, "signature": CLAIM_DICT["signature"].upper()}]


MALFORMED_DOCUMENTS = {
    "key-hex-uppercase": _upper_key_hex,
    "claim-signature-uppercase": _upper_claim_signature,
    "id-int": lambda doc: doc.update(id=5),
    "public-keys-object": lambda doc: doc.update(publicKeys=doc["publicKeys"][0]),
    "version-missing": lambda doc: doc.pop("version"),
    "claims-missing": lambda doc: doc.pop("claims"),
    "id-list": lambda doc: doc.update(id=["did:efed:alice01"]),
    "document-extra-key": lambda doc: doc.update(role="admin"),
    "key-extra-key": lambda doc: doc["publicKeys"][0].update(revoked=False),
    "claim-extra-key": lambda doc: doc["claims"][0].update(note="hand edit"),
    "key-not-an-object": lambda doc: doc.update(publicKeys=["key-1"]),
}


@pytest.mark.parametrize("spoil", MALFORMED_DOCUMENTS.values(), ids=MALFORMED_DOCUMENTS)
def test_malformed_documents_are_refused_with_validation_error(tmp_path, spoil):
    good = make_document()[0].to_dict()
    good["claims"] = [CLAIM_DICT]
    assert DidDocument.from_dict(good).to_dict() == good
    bad = json.loads(json.dumps(good))
    spoil(bad)
    with pytest.raises(ValidationError):
        DidDocument.from_dict(bad)
    path = tmp_path / "registry.jsonl"
    path.write_bytes(canonical_json_bytes({"op": "register", "document": bad, "profileHash": "p"}) + b"\n")
    with pytest.raises(ValidationError):
        DidRegistry.replay_log(path, receipt)


def _log_line(specific_id="alice01", seed=1, **changes):
    entry = {"op": "register", "document": make_document(specific_id, seed=seed)[0].to_dict()}
    entry = {**entry, "profileHash": specific_id, **changes}
    return canonical_json_bytes({k: v for k, v in entry.items() if v is not None}).decode()


MALFORMED_LOG_LINES = {
    "not-json": "{not json",
    "json-list": f"[{_log_line()}]",
    "op-missing": _log_line(op=None),
    "profile-hash-missing": _log_line(profileHash=None),
    "profile-hash-int": _log_line(profileHash=5),
    "entry-extra-key": _log_line(note="hand edit"),
}


@pytest.mark.parametrize("line", MALFORMED_LOG_LINES.values(), ids=MALFORMED_LOG_LINES)
def test_log_replay_refuses_a_malformed_line_naming_it(tmp_path, line):
    good = _log_line("bob01", seed=2)
    path = tmp_path / "registry.jsonl"
    path.write_text(good + "\n" + line + "\n")
    with pytest.raises(ValidationError, match="line 2"):
        DidRegistry.replay_log(path, receipt)


# Canonical lines whose only fault is one a document, key or claim check refuses.
REFUSED_LOG_LINES = {
    "empty-key-id": (lambda entry: entry["document"]["publicKeys"][0].update(keyId=""), "key_id must be non-empty"),
    "version-0": (lambda entry: entry["document"].update(version=0), "version must be >= 1, got 0"),
    "duplicate-key-id": (
        lambda entry: entry["document"].update(publicKeys=entry["document"]["publicKeys"] * 2),
        "duplicate key ids in document did:efed:alice01",
    ),
    "unknown-op": (lambda entry: entry.update(op="delete"), "unknown log op 'delete'"),
    "claim-expires-as-issued": (
        lambda entry: entry["document"].update(claims=[{**CLAIM_DICT, "issuedAt": 9}]),
        "claim 'role' issued_at 9 must precede expires_at 9",
    ),
}


@pytest.mark.parametrize("spoil, message", REFUSED_LOG_LINES.values(), ids=REFUSED_LOG_LINES)
def test_log_replay_refuses_a_canonical_line_a_record_check_refuses_naming_it(tmp_path, spoil, message):
    entry = json.loads(_log_line())
    spoil(entry)
    path = tmp_path / "registry.jsonl"
    path.write_bytes(_log_line("bob01", seed=2).encode() + b"\n" + canonical_json_bytes(entry) + b"\n")
    with pytest.raises(ValidationError, match=f"line 2: {re.escape(message)}$"):
        DidRegistry.replay_log(path, receipt)


# Key ids are strings, so an authentication entry that is not one names no key,
# and one that cannot be hashed cannot be sought among them.
@pytest.mark.parametrize(
    "ref, message",
    [(5, "authentication entry 5 references no key"), (["key-1"], "malformed DID document")],
    ids=["int", "list"],
)
def test_log_replay_refuses_an_authentication_entry_that_is_no_string_naming_it(tmp_path, ref, message):
    entry = json.loads(_log_line())
    entry["document"]["authentication"] = [ref]
    path = tmp_path / "registry.jsonl"
    path.write_bytes(_log_line("bob01", seed=2).encode() + b"\n" + canonical_json_bytes(entry) + b"\n")
    with pytest.raises(ValidationError, match=f"line 2: {re.escape(message)}"):
        DidRegistry.replay_log(path, receipt)


# Each is refused as the chain reader refuses it, naming the first such line.
@pytest.mark.parametrize(
    "before, between, number",
    [
        (b"", b"\n\n", 2),
        (b"\xef\xbb\xbf", b"\n", 1),
        (b"", b'\n{"op":"caf\xe9"}\n', 2),
        (b"", b"\n" + b"[" * 100_000 + b"\n", 2),
    ],
    ids=["blank-line", "bom-on-line-1", "latin-1-byte", "nested-past-the-recursion-limit"],
)
def test_log_replay_refuses_a_line_that_is_not_a_json_line_naming_it(tmp_path, before, between, number):
    good = [_log_line(name, seed=seed).encode() for name, seed in (("bob01", 2), ("carol01", 3))]
    path = tmp_path / "registry.jsonl"
    path.write_bytes(before + good[0] + between + good[1] + b"\n")
    with pytest.raises(ValidationError, match=f"line {number}: not a JSON line$"):
        DidRegistry.replay_log(path, receipt)


def test_log_replay_refuses_whitespace_its_writer_never_writes_naming_the_line(tmp_path):
    good = [_log_line(name, seed=seed) for name, seed in (("bob01", 2), ("carol01", 3))]
    path = tmp_path / "registry.jsonl"
    for spaced in (good[1].replace(",", ", ", 1), good[1].replace(":", ": ", 1)):
        path.write_text(good[0] + "\n" + spaced + "\n")
        with pytest.raises(ValidationError, match="line 2: not the canonical JSON line its writer writes$"):
            DidRegistry.replay_log(path, receipt)
    path.write_text(good[0] + " \n" + good[1] + "\n")
    with pytest.raises(ValidationError, match="line 1: not a JSON line$"):
        DidRegistry.replay_log(path, receipt)


@pytest.fixture(scope="module")
def seed_7_identity_log(tmp_path_factory):
    """The lines of the seed-7 contract-lookup demo's identity log."""
    out = tmp_path_factory.mktemp("seed-7") / "demo"
    scenario.run_demo(scenario.ScenarioConfig(out_dir=str(out), seed=7))
    return (out / "identity.jsonl").read_bytes().splitlines(keepends=True)


def string_interiors(line: bytes) -> set[int]:
    """The offsets inside a JSON string literal of ``line``: after its opening
    quote, up to and including its closing one."""
    offsets, start, escaped = set(), None, False
    for offset, byte in enumerate(line):
        if start is None:
            start = offset if byte == ord('"') else None
        elif escaped:
            escaped = False
        elif byte == ord("\\"):
            escaped = True
        elif byte == ord('"'):
            offsets.update(range(start + 1, offset + 1))
            start = None
    return offsets


def test_a_space_tab_or_cr_inserted_in_a_seed_7_identity_line_is_refused(seed_7_identity_log, tmp_path):
    """A tab or a CR before any byte of the log's last line (a claim update)
    is refused naming that line, and so is a space anywhere outside a string.
    A space inside a string is not whitespace but another value (a claim
    value, a profile hash) in the writer's own bytes, which no line rule can
    tell apart; the log proving itself against the chain would."""
    lines = seed_7_identity_log
    number, line = len(lines), lines[-1]
    assert b'"op":"update"' in line
    interiors = string_interiors(line)
    assert line[min(interiors) - 1 : min(interiors) + 9] == b'"document"'
    path = tmp_path / "identity.jsonl"
    accepted = []
    for offset in range(len(line)):
        for char in (b" ", b"\t", b"\r"):
            if char == b" " and offset in interiors:
                continue
            path.write_bytes(b"".join(lines[:-1]) + line[:offset] + char + line[offset:])
            try:
                DidRegistry.replay_log(path, receipt)
            except ValidationError as error:
                if f"line {number}: " in str(error):
                    continue
            accepted.append((offset, char))
    assert accepted == []



@settings(max_examples=30, deadline=None)
@given(values=st.lists(awkward_text, min_size=1, max_size=3), profile=awkward_text)
def test_an_identity_log_of_awkward_text_replays_document_for_document(tmp_path_factory, values, profile):
    """Claim values and a profile hash with quotes, backslashes, control
    characters, non-ASCII and astral text are written and read back whole."""
    registry = DidRegistry(receipt)
    document, _ = make_document()
    registry.register(document, profile_hash="p" + profile)
    issuer = KeyPair.generate(b"\x0c" * 32)
    for n, value in enumerate(values):
        claim = sign_claim(
            issuer,
            claim_type="t" + value,
            value=value,
            subject=str(document.id),
            issuer="did:efed:issuer",
            issued_at=n,
            expires_at=n + 9,
        )
        document = document.with_claim(claim)
        registry.update(document)
    path = registry.write_log(tmp_path_factory.mktemp("log") / "identity.jsonl")
    replayed = DidRegistry.replay_log(path, receipt)
    assert len(replayed) == 1 and replayed.get(document.id) == document
    with pytest.raises(AlreadyRegisteredError, match="profile already registered"):
        replayed.register(make_document("carol01", seed=3)[0], profile_hash="p" + profile)


# ---------------------------------------------------------------- resolver


def make_resolver():
    registry = DidRegistry(receipt)
    resolver = Resolver("desk-resolver", KeyPair.generate(b"\x21" * 32))
    resolver.register_driver("efed", RegistryDriver(registry))
    return registry, resolver


def test_resolve_returns_latest_version():
    registry, resolver = make_resolver()
    doc, _ = make_document()
    registry.register(doc, profile_hash="p")
    attestation = resolver.resolve(resolver.find("did:efed:alice01"), nonce=b"\x01" * 16)
    assert attestation.did == "did:efed:alice01"
    assert resolver.verify(attestation, doc)

    updated = make_document(version=2)[0]
    registry.update(updated)
    attestation2 = resolver.resolve(resolver.find("did:efed:alice01"), nonce=b"\x02" * 16)
    assert attestation2.document_digest == updated.digest()
    assert not resolver.verify(attestation2, doc)  # a stale document
    attestation3 = resolver.resolve(resolver.find("did:efed:alice01"), nonce=b"\x03" * 16)
    assert resolver.verify(attestation3, updated)


def test_resolve_errors(monkeypatch):
    """The front desk fetches before it resolves, so a DID that does not
    resolve is answered ``unresolvable``: nothing signed, kept or counted."""
    stack = Stack()
    signed = []
    monkeypatch.setattr(KeyPair, "sign", lambda self, m: signed.append(m))
    for did in ("did:bogus:alice01", "did:efed:ghost"):
        assert stack.gateway.user_lookup(did, stack.fresh_nonce()).reason == "unresolvable"
    assert signed == [] and not stack.resolver._issued
    assert not stack.gateway._front_desk_limiter._hits


def test_fetch_routes_like_resolve_and_signs_nothing(monkeypatch):
    registry, resolver = make_resolver()
    doc, _ = make_document()
    registry.register(doc, profile_hash="p")
    signed = []
    original = KeyPair.sign
    monkeypatch.setattr(KeyPair, "sign", lambda self, m: signed.append(m) or original(self, m))
    assert resolver.find("did:efed:alice01") == doc
    assert signed == []
    attestation = resolver.resolve(resolver.find("did:efed:alice01"), nonce=b"\x03" * 16)
    assert len(signed) == 1
    assert resolver.verify(attestation, doc)
    assert len(signed) == 1  # the check signs nothing
    assert resolver.find("did:bogus:alice01") is None
    assert resolver.find("did:efed:ghost") is None


class LoopbackDriver:
    """A second backend holding one fixed document, to show routing by method."""

    def __init__(self, document):
        self._document = document

    def find(self, text):
        return self._document if text == str(self._document.id) else None


def test_driver_routing_is_per_method():
    registry, resolver = make_resolver()
    doc, _ = make_document()
    registry.register(doc, profile_hash="p")
    other, _ = make_document("probe", method="loop", seed=4)
    loop = LoopbackDriver(other)
    resolver.register_driver("loop", loop)

    routes = {"did:efed:alice01": doc, "did:loop:probe": other}
    for did, expected in routes.items():
        attestation = resolver.resolve(resolver.find(did), nonce=b"\x05" * 16)
        assert resolver.verify(attestation, expected)
    assert resolver.find("did:loop:probe") == other
    assert resolver.find("did:loop:alice01") is None
    with pytest.raises(ValidationError):
        resolver.register_driver("efed", loop)


def test_fetch_finds_a_held_text_only_under_its_own_methods_driver():
    registry, resolver = make_resolver()
    stray, _ = make_document("probe", method="loop", seed=3)
    registry.register(stray, profile_hash="stray")  # the efed driver's registry holds a loop DID
    lost, _ = make_document("lost", method="loop", seed=5)
    registry.register(lost, profile_hash="lost")  # and one the loop driver does not hold
    other, _ = make_document("probe", method="loop", seed=4)
    resolver.register_driver("loop", LoopbackDriver(other))
    assert resolver.find("did:loop:probe") == other
    assert resolver.find(str(stray.id)) == other
    assert resolver.find(str(lost.id)) is None


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("x", ValidationError, "expected three colon-separated parts, got 1 in 'x'"),
        ("did:efed", ValidationError, "expected three colon-separated parts, got 2 in 'did:efed'"),
        ("did:EFED:a", ValidationError, "method must be lowercase alphanumeric, got 'EFED'"),
        ("did:efed:bad id", ValidationError, "specific id may only use [A-Za-z0-9._-], got 'bad id'"),
        ("did:efed:nobody", UnknownDidError, "no document registered for did:efed:nobody"),
        ("did:web:a", UnknownDidError, "no document registered for did:web:a"),
    ],
)
def test_fetch_refuses_a_text_no_driver_holds_naming_its_defect(text, error, message):
    """``Resolver.find`` answers None for a text no driver holds, parsing
    nothing and raising nothing; the strict readers still name its defect:
    ``parse_did`` a malformed text's, ``DidRegistry.get`` a well-formed one's."""
    registry, resolver = make_resolver()
    registry.register(make_document()[0], profile_hash="p")
    assert resolver.find(text) is None
    with pytest.raises(error) as refused:
        parse_did(text) if error is ValidationError else registry.get(text)
    assert type(refused.value) is error and str(refused.value) == message


def test_distinct_nonces_distinct_attestations():
    registry, resolver = make_resolver()
    doc, _ = make_document()
    registry.register(doc, profile_hash="p")
    r1 = resolver.resolve(resolver.find("did:efed:alice01"), nonce=b"\xaa" * 16)
    r2 = resolver.resolve(resolver.find("did:efed:alice01"), nonce=b"\xbb" * 16)
    assert r1.document_digest == r2.document_digest
    assert r1.signature != r2.signature
    # an attestation is bound to its own nonce
    swapped = Attestation(
        did=r1.did,
        nonce=r2.nonce,
        document_digest=r1.document_digest,
        resolver=r1.resolver,
        signature=r1.signature,
    )
    assert not resolver.verify(swapped, doc)
    assert resolver.verify(r1, doc)
    # Each attestation opens one check: the swap spent r2's entry, r1's was spent.
    assert not resolver.verify(r2, doc)
    assert not resolver.verify(r1, doc)


class BytesDocument:
    """Stands in for a document whose canonical bytes are ``body``, which need not parse."""

    def __init__(self, body: bytes):
        self._digest = sha256_hex(body)

    def digest(self) -> str:
        return self._digest


def flip_bit(data, value: bytes) -> bytes:
    flipped = bytearray(value)
    bit = data.draw(st.integers(min_value=0, max_value=len(flipped) * 8 - 1))
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), target=st.sampled_from(["document", "signature"]))
def test_attestation_detects_any_bit_flip(data, target):
    registry, resolver = make_resolver()
    doc, _ = make_document()
    registry.register(doc, profile_hash="p")
    attestation = resolver.resolve(resolver.find("did:efed:alice01"), nonce=b"\x0f" * 16)
    document = BytesDocument(doc.canonical_bytes())
    if target == "document":
        document = BytesDocument(flip_bit(data, doc.canonical_bytes()))
    else:
        attestation = replace(attestation, signature=flip_bit(data, attestation.signature))
    assert not resolver.verify(attestation, document)


ALTERED_ATTESTATIONS = {
    "did": lambda att: replace(att, did="did:efed:mallory"),
    "document-digest": lambda att: replace(att, document_digest="0" * 64),
    "resolver": lambda att: replace(att, resolver="other-resolver"),
    "nonce": lambda att: replace(att, nonce=b"\x10" * 16),
    "signature": lambda att: replace(att, signature=bytes(64)),
}


@pytest.mark.parametrize("alter", ALTERED_ATTESTATIONS.values(), ids=ALTERED_ATTESTATIONS)
def test_attestation_altered_in_any_field_is_refused(alter):
    registry, resolver = make_resolver()
    doc, _ = make_document()
    registry.register(doc, profile_hash="p")
    attestation = resolver.resolve(resolver.find("did:efed:alice01"), nonce=b"\x0e" * 16)
    assert not resolver.verify(alter(attestation), doc)


def test_attestation_round_trip():
    registry, resolver = make_resolver()
    doc, _ = make_document()
    registry.register(doc, profile_hash="p")
    att = resolver.resolve(resolver.find("did:efed:alice01"), nonce=b"\x3c" * 16)
    again = Attestation.from_dict(att.to_dict())
    assert again == att
    assert resolver.verify(again, doc)
