import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgate.canonical import sha256_hex
from fedgate.claims import sign_claim
from fedgate.clock import SimulatedClock
from fedgate.errors import ValidationError
from fedgate.identity import DidDocument, DidIdentifier, PublicKeyEntry
from fedgate.keys import KeyPair
from fedgate.ledger import (
    AccessPolicyContract,
    Chain,
    ClaimPredicate,
    ClaimRequirement,
    ContractEngine,
    ContractNotFoundError,
    UnauthorizedError,
)

from support import payload_dict, transactions

ISSUER_DID = "did:efed:issuer"
REQUEST_REF = "0f" * 16
ISSUER_KEY = KeyPair.generate(b"\x31" * 32)
OWNER_KEY = KeyPair.generate(b"\x32" * 32)
HOLDER_KEY = KeyPair.generate(b"\x33" * 32)


def simple_document(did, key, claims=()):
    return DidDocument(
        id=did if isinstance(did, DidIdentifier) else DidIdentifier("efed", did),
        public_keys=(
            PublicKeyEntry(key_id="key-1", algorithm="Ed25519", public_bytes=key.public_bytes),
        ),
        authentication=("key-1",),
        claims=tuple(claims),
    )


def claim_checker(claim, now):
    """Test policy: signed by the one trusted issuer and inside validity."""
    if claim.issuer != ISSUER_DID:
        return False, "untrusted-issuer"
    if not claim.signature_valid([ISSUER_KEY.public_bytes]):
        return False, "bad-signature"
    if now < claim.issued_at:
        return False, "not-yet-valid"
    if now >= claim.expires_at:
        return False, "expired"
    return True, "valid"


def counting_tokens():
    counter = itertools.count(1)
    return lambda: next(counter).to_bytes(16, "big")


def make_engine(token_bytes=None):
    documents = {}
    clock = SimulatedClock(start=10_000)
    chain = Chain(clock=clock)
    engine = ContractEngine(
        chain,
        document_lookup=documents.get,
        claim_checker=claim_checker,
        clock=clock,
        token_bytes=token_bytes or counting_tokens(),
    )
    owner_doc = simple_document("owner", OWNER_KEY)
    documents[str(owner_doc.id)] = owner_doc
    return engine, chain, documents


def membership_contract(service="fl-study", claim_type="consortium_member"):
    return AccessPolicyContract.create(
        required_claims=(
            ClaimRequirement(claim_type, ClaimPredicate(kind="equals", value="yes")),
        ),
        grants_service=service,
        owner="did:efed:owner",
    )


def holder_with(claims):
    return simple_document("holder", HOLDER_KEY, claims=claims)


def membership_claim(value="yes", issued_at=9_000, expires_at=20_000, issuer=ISSUER_DID, key=ISSUER_KEY):
    return sign_claim(
        key,
        claim_type="consortium_member",
        value=value,
        subject="did:efed:holder",
        issuer=issuer,
        issued_at=issued_at,
        expires_at=expires_at,
    )


# ---------------------------------------------------------------- predicates


def test_predicate_matching():
    assert ClaimPredicate(kind="equals", value="a").matches("a")
    assert not ClaimPredicate(kind="equals", value="a").matches("b")
    assert ClaimPredicate(kind="one_of", values=("a", "b")).matches("b")
    assert not ClaimPredicate(kind="one_of", values=("a", "b")).matches("c")
    assert ClaimPredicate(kind="present").matches("anything")
    with pytest.raises(ValidationError):
        ClaimPredicate(kind="equals")
    with pytest.raises(ValidationError):
        ClaimPredicate(kind="one_of")
    with pytest.raises(ValidationError):
        ClaimPredicate(kind="matches_regex")


def test_contract_requires_claims():
    with pytest.raises(ValidationError):
        AccessPolicyContract.create((), "svc", "did:efed:owner")


def test_contract_id_binds_body():
    c = membership_contract()
    assert c.contract_id == sha256_hex(c.signing_bytes())
    assert AccessPolicyContract(c.required_claims, c.grants_service, c.owner) == c
    assert membership_contract(service="other-service").contract_id != c.contract_id
    assert membership_contract(claim_type="other-claim").contract_id != c.contract_id
    with pytest.raises(TypeError):
        AccessPolicyContract(c.required_claims, c.grants_service, c.owner, c.contract_id)


# -------------------------------------------------------------------- deploy


def test_deploy_and_query():
    engine, chain, _ = make_engine()
    contract = membership_contract()
    engine.deploy(contract, OWNER_KEY.sign(contract.signing_bytes()))
    assert engine.for_service("fl-study") is contract
    assert engine.services() == ["fl-study"]
    assert len(transactions(chain, "deploy_contract")) == 1


def test_deploy_rejects_wrong_signer():
    engine, _, _ = make_engine()
    contract = membership_contract()
    with pytest.raises(UnauthorizedError):
        engine.deploy(contract, HOLDER_KEY.sign(contract.signing_bytes()))


def test_deploy_rejects_unknown_owner_and_duplicates():
    engine, _, _ = make_engine()
    ghost = AccessPolicyContract.create(
        (ClaimRequirement("x", ClaimPredicate(kind="present")),),
        "svc",
        "did:efed:ghost",
    )
    with pytest.raises(UnauthorizedError):
        engine.deploy(ghost, OWNER_KEY.sign(ghost.signing_bytes()))
    contract = membership_contract()
    engine.deploy(contract, OWNER_KEY.sign(contract.signing_bytes()))
    with pytest.raises(ValidationError):
        engine.deploy(contract, OWNER_KEY.sign(contract.signing_bytes()))


def test_two_services_have_independent_requirements():
    engine, _, _ = make_engine()
    a = membership_contract(service="svc-a", claim_type="consortium_member")
    b = AccessPolicyContract.create(
        (
            ClaimRequirement("role", ClaimPredicate(kind="one_of", values=("doctor", "nurse"))),
            ClaimRequirement("hospital", ClaimPredicate(kind="present")),
        ),
        "svc-b",
        "did:efed:owner",
    )
    engine.deploy(a, OWNER_KEY.sign(a.signing_bytes()))
    engine.deploy(b, OWNER_KEY.sign(b.signing_bytes()))
    assert engine.for_service("svc-a").required_claims == a.required_claims
    assert engine.for_service("svc-b").required_claims == b.required_claims
    assert engine.services() == ["svc-a", "svc-b"]
    with pytest.raises(ContractNotFoundError):
        engine.for_service("svc-c")


# ------------------------------------------------------------------ verdicts


def test_grant_when_all_claims_valid():
    engine, chain, _ = make_engine()
    contract = membership_contract()
    engine.deploy(contract, OWNER_KEY.sign(contract.signing_bytes()))
    holder = holder_with([membership_claim()])
    verdict = engine.execute(contract, holder, REQUEST_REF)
    assert verdict.decision == "granted"
    assert verdict.grant is not None
    assert verdict.grant.expires_at == 10_000 + 3600
    grants = transactions(chain, "access_grant")
    assert len(grants) == 1
    assert payload_dict(grants[0])["token"] == verdict.grant.token


def test_denial_lists_missing_claim_types():
    engine, chain, _ = make_engine()
    contract = AccessPolicyContract.create(
        (
            ClaimRequirement("consortium_member", ClaimPredicate(kind="equals", value="yes")),
            ClaimRequirement("role", ClaimPredicate(kind="present")),
        ),
        "fl-study",
        "did:efed:owner",
    )
    engine.deploy(contract, OWNER_KEY.sign(contract.signing_bytes()))
    holder = holder_with([membership_claim()])
    verdict = engine.execute(contract, holder, REQUEST_REF)
    assert verdict.decision == "denied" and verdict.grant is None
    assert verdict.missing == ("role",)
    denials = transactions(chain, "access_denial")
    assert len(denials) == 1
    assert payload_dict(denials[0])["missing"] == ["role"]


def test_expired_claim_denied():
    engine, _, _ = make_engine()
    contract = membership_contract()
    engine.deploy(contract, OWNER_KEY.sign(contract.signing_bytes()))
    holder = holder_with([membership_claim(expires_at=9_500)])
    verdict = engine.execute(contract, holder, REQUEST_REF)
    assert verdict.decision == "denied"
    assert verdict.missing == ("consortium_member",)


def test_tampered_claim_is_the_missing_one():
    engine, _, _ = make_engine()
    contract = AccessPolicyContract.create(
        (
            ClaimRequirement("consortium_member", ClaimPredicate(kind="equals", value="yes")),
            ClaimRequirement("role", ClaimPredicate(kind="present")),
            ClaimRequirement("hospital", ClaimPredicate(kind="equals", value="st-mary")),
        ),
        "fl-study",
        "did:efed:owner",
    )
    engine.deploy(contract, OWNER_KEY.sign(contract.signing_bytes()))

    good_role = sign_claim(
        ISSUER_KEY, claim_type="role", value="researcher",
        subject="did:efed:holder", issuer=ISSUER_DID, issued_at=9_000, expires_at=20_000,
    )
    forged = sign_claim(
        HOLDER_KEY, claim_type="hospital", value="st-mary",
        subject="did:efed:holder", issuer=ISSUER_DID, issued_at=9_000, expires_at=20_000,
    )
    holder = holder_with([membership_claim(), good_role, forged])
    verdict = engine.execute(contract, holder, REQUEST_REF)
    assert verdict.missing == ("hospital",)


def test_claim_for_other_subject_does_not_count():
    engine, _, _ = make_engine()
    contract = membership_contract()
    engine.deploy(contract, OWNER_KEY.sign(contract.signing_bytes()))
    borrowed = sign_claim(
        ISSUER_KEY, claim_type="consortium_member", value="yes",
        subject="did:efed:somebody-else", issuer=ISSUER_DID,
        issued_at=9_000, expires_at=20_000,
    )
    verdict = engine.execute(contract, holder_with([borrowed]), REQUEST_REF)
    assert verdict.decision == "denied"


def test_unknown_contract():
    engine, chain, _ = make_engine()
    contract = membership_contract()
    engine.deploy(contract, OWNER_KEY.sign(contract.signing_bytes()))
    height = chain.height
    with pytest.raises(ContractNotFoundError):
        engine.for_service("unknown-service")
    assert chain.height == height


def test_evaluation_is_deterministic():
    engine, chain, _ = make_engine()
    contract = membership_contract()
    engine.deploy(contract, OWNER_KEY.sign(contract.signing_bytes()))
    holder = holder_with([membership_claim()])
    height_before = chain.height
    verdicts = {engine.evaluate(contract, holder, now=10_000) for _ in range(1000)}
    assert len(verdicts) == 1
    assert chain.height == height_before  # evaluate never writes


def test_granted_now_implies_granted_since_issuance():
    engine, _, _ = make_engine()
    contract = membership_contract()
    engine.deploy(contract, OWNER_KEY.sign(contract.signing_bytes()))
    claim = membership_claim(issued_at=9_000, expires_at=20_000)
    holder = holder_with([claim])
    now = 15_000
    assert engine.evaluate(contract, holder, now=now).decision == "granted"
    for t in range(9_000, now + 1, 500):
        assert engine.evaluate(contract, holder, now=t).decision == "granted"


def test_injected_token_source_gives_reproducible_tokens():
    engine, _, _ = make_engine(token_bytes=counting_tokens())
    contract = membership_contract()
    engine.deploy(contract, OWNER_KEY.sign(contract.signing_bytes()))
    holder = holder_with([membership_claim()])
    assert engine.execute(contract, holder, REQUEST_REF).grant.token == ("00" * 15) + "01"
    assert engine.execute(contract, holder, REQUEST_REF).grant.token == ("00" * 15) + "02"


@settings(max_examples=60, deadline=None)
@given(
    value=st.sampled_from(["yes", "no", "maybe"]),
    now=st.integers(min_value=8_000, max_value=25_000),
    issuer_trusted=st.booleans(),
)
def test_verdict_matches_predicate_and_validity_oracle(value, now, issuer_trusted):
    engine, chain, _ = make_engine()
    contract = membership_contract()
    engine.deploy(contract, OWNER_KEY.sign(contract.signing_bytes()))
    issuer = ISSUER_DID if issuer_trusted else "did:efed:rogue"
    claim = membership_claim(value=value, issuer=issuer)
    verdict = engine.evaluate(contract, holder_with([claim]), now=now)
    should_grant = (
        value == "yes" and issuer_trusted and 9_000 <= now < 20_000
    )
    assert (verdict.decision == "granted") == should_grant
