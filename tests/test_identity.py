import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgate.claims import sign_claim
from fedgate.errors import ValidationError
from fedgate.identity import (
    AlreadyRegisteredError,
    Attestation,
    DidDocument,
    DidIdentifier,
    DidRegistry,
    DuplicateProfileError,
    EmptySpecificIdError,
    IllegalCharacterError,
    NoDriverError,
    PartCountError,
    PublicKeyEntry,
    RegistryDriver,
    Resolver,
    ServiceEndpoint,
    UnknownDidError,
    VersionSequenceError,
    WrongSchemeError,
    parse_did,
)
from fedgate.keys import KeyPair

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
            service_endpoints=(ServiceEndpoint(type="flaas", uri="efed://svc"),),
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


def test_parse_error_variants():
    with pytest.raises(WrongSchemeError):
        parse_did("urn:efed:alice01")
    with pytest.raises(PartCountError):
        parse_did("did:efed")
    with pytest.raises(PartCountError):
        parse_did("did:efed:a:b")
    with pytest.raises(EmptySpecificIdError):
        parse_did("did:efed:")
    with pytest.raises(IllegalCharacterError):
        parse_did("did:EFED:alice")
    with pytest.raises(IllegalCharacterError):
        parse_did("did:efed:al ice")


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


# ---------------------------------------------------------------- registry


def test_register_and_get():
    registry = DidRegistry()
    doc, _ = make_document()
    registry.register(doc, profile_hash="profile-a")
    assert registry.get("did:efed:alice01") == doc
    assert "did:efed:alice01" in registry


def test_duplicate_id_rejected():
    registry = DidRegistry()
    doc, _ = make_document()
    registry.register(doc, profile_hash="profile-a")
    with pytest.raises(AlreadyRegisteredError):
        registry.register(doc, profile_hash="profile-b")


def test_duplicate_profile_rejected():
    registry = DidRegistry()
    a, _ = make_document("alice01")
    b, _ = make_document("bob01")
    registry.register(a, profile_hash="same-person")
    with pytest.raises(DuplicateProfileError):
        registry.register(b, profile_hash="same-person")


def test_update_requires_exact_version_step():
    registry = DidRegistry()
    doc, _ = make_document()
    registry.register(doc, profile_hash="p")
    with pytest.raises(VersionSequenceError):
        registry.update(make_document(version=3)[0])
    with pytest.raises(VersionSequenceError):
        registry.update(doc)  # version 1 again is a rollback
    registry.update(make_document(version=2)[0])
    assert registry.get(str(doc.id)).version == 2
    with pytest.raises(UnknownDidError):
        registry.update(make_document("ghost")[0])


def test_registration_must_start_at_version_one():
    registry = DidRegistry()
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
    registry = DidRegistry()
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
    replayed = DidRegistry.replay_log(path)
    assert replayed.ids() == registry.ids()
    for did in registry.ids():
        assert replayed.get(did) == registry.get(did)
    # replay enforces the same uniqueness rules
    with pytest.raises(DuplicateProfileError):
        replayed.register(make_document("carol01", seed=3)[0], profile_hash="pa")


# ---------------------------------------------------------------- resolver


def make_resolver():
    registry = DidRegistry()
    resolver = Resolver("desk-resolver", KeyPair.generate(b"\x21" * 32))
    resolver.register_driver("efed", RegistryDriver(registry))
    return registry, resolver


def test_resolve_returns_latest_version():
    registry, resolver = make_resolver()
    doc, _ = make_document()
    registry.register(doc, profile_hash="p")
    result = resolver.resolve("did:efed:alice01", nonce=b"\x01" * 16)
    assert result.document == doc
    assert result.resolved_by == "registry"
    assert result.attestation.verify(doc.canonical_bytes(), resolver.public_key)

    registry.update(make_document(version=2)[0])
    result2 = resolver.resolve("did:efed:alice01", nonce=b"\x02" * 16)
    assert result2.document.version == 2


def test_resolve_errors():
    registry, resolver = make_resolver()
    with pytest.raises(NoDriverError):
        resolver.resolve("did:bogus:alice01", nonce=b"\x00" * 16)
    with pytest.raises(UnknownDidError):
        resolver.resolve("did:efed:ghost", nonce=b"\x00" * 16)


def test_fetch_routes_like_resolve_and_signs_nothing(monkeypatch):
    registry, resolver = make_resolver()
    doc, _ = make_document()
    registry.register(doc, profile_hash="p")
    signed = []
    original = KeyPair.sign
    monkeypatch.setattr(KeyPair, "sign", lambda self, m: signed.append(m) or original(self, m))
    assert resolver.fetch("did:efed:alice01") == doc
    assert signed == []
    assert resolver.resolve("did:efed:alice01", nonce=b"\x03" * 16).document == doc
    assert len(signed) == 1
    with pytest.raises(NoDriverError):
        resolver.fetch("did:bogus:alice01")
    with pytest.raises(UnknownDidError):
        resolver.fetch("did:efed:ghost")


class LoopbackDriver:
    """A second backend with one fixed document, to show routing by method."""

    name = "loopback"

    def __init__(self, document):
        self._document = document

    def fetch(self, did):
        return self._document


def test_driver_routing_is_per_method():
    registry, resolver = make_resolver()
    doc, _ = make_document()
    registry.register(doc, profile_hash="p")
    other, _ = make_document("probe", method="loop", seed=4)
    loop = LoopbackDriver(other)
    resolver.register_driver("loop", loop)

    routes = {
        "did:efed:alice01": "registry",
        "did:loop:probe": "loopback",
    }
    for did, expected in routes.items():
        assert resolver.resolve(did, nonce=b"\x05" * 16).resolved_by == expected
    with pytest.raises(ValidationError):
        resolver.register_driver("efed", loop)


def test_distinct_nonces_distinct_attestations():
    registry, resolver = make_resolver()
    doc, _ = make_document()
    registry.register(doc, profile_hash="p")
    r1 = resolver.resolve("did:efed:alice01", nonce=b"\xaa" * 16)
    r2 = resolver.resolve("did:efed:alice01", nonce=b"\xbb" * 16)
    assert r1.document == r2.document
    assert r1.attestation.signature != r2.attestation.signature
    body = doc.canonical_bytes()
    assert r1.attestation.verify(body, resolver.public_key)
    assert r2.attestation.verify(body, resolver.public_key)
    # an attestation is bound to its own nonce
    swapped = Attestation(
        did=r1.attestation.did,
        nonce=r2.attestation.nonce,
        document_digest=r1.attestation.document_digest,
        resolver=r1.attestation.resolver,
        signature=r1.attestation.signature,
    )
    assert not swapped.verify(body, resolver.public_key)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_attestation_detects_any_bit_flip(data):
    registry, resolver = make_resolver()
    doc, _ = make_document()
    registry.register(doc, profile_hash="p")
    result = resolver.resolve("did:efed:alice01", nonce=b"\x0f" * 16)
    body = bytearray(doc.canonical_bytes())
    bit = data.draw(st.integers(min_value=0, max_value=len(body) * 8 - 1))
    body[bit // 8] ^= 1 << (bit % 8)
    assert not result.attestation.verify(bytes(body), resolver.public_key)


def test_attestation_round_trip():
    registry, resolver = make_resolver()
    doc, _ = make_document()
    registry.register(doc, profile_hash="p")
    att = resolver.resolve("did:efed:alice01", nonce=b"\x3c" * 16).attestation
    again = Attestation.from_dict(att.to_dict())
    assert again == att
    assert again.verify(doc.canonical_bytes(), resolver.public_key)
