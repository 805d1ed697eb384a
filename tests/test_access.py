import dataclasses
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgate.access import (
    AccessRequest,
    PendingTable,
    SlidingWindowLimiter,
    import_legacy_accounts,
    read_accounts_csv,
    verify_claim,
)
from fedgate.access.issuance import ForbiddenIssuerError
from fedgate.claims import sign_claim
from fedgate.clock import SimulatedClock
from fedgate.errors import ValidationError
from fedgate.identity import DidDocument
from fedgate.identity.registry import UnknownDidError
from fedgate.keys import KeyPair, verify_signature
from fedgate.ledger import ClaimPredicate, ClaimRequirement

from support import ISSUER_DID, Stack


# ---------------------------------------------------------------- issuance


def test_issue_appends_claim_and_bumps_version():
    stack = Stack()
    alice = stack.register_actor("alice")
    before = stack.registry.get(alice.did)
    claim = stack.issuer.issue(alice.did, "consortium_member", "yes", 3600)
    after = stack.registry.get(alice.did)
    assert after.version == before.version + 1
    assert after.claims[-1] == claim
    assert claim.issuer == ISSUER_DID
    assert claim.expires_at - claim.issued_at == 3600


def test_untrusted_issuer_forbidden():
    stack = Stack()
    alice = stack.register_actor("alice")
    rogue_actor = stack.register_actor("rogue")
    from fedgate.access.issuance import ClaimIssuer

    rogue = ClaimIssuer(
        rogue_actor.did, rogue_actor.key, stack.registry, stack.trusted, stack.clock
    )
    with pytest.raises(ForbiddenIssuerError):
        rogue.issue(alice.did, "consortium_member", "yes", 3600)


def test_issue_to_unknown_subject():
    stack = Stack()
    with pytest.raises(UnknownDidError):
        stack.issuer.issue("did:efed:ghost", "consortium_member", "yes", 3600)


def test_verify_claim_verdicts():
    stack = Stack()
    alice = stack.register_actor("alice")
    claim = stack.issuer.issue(alice.did, "consortium_member", "yes", 3600)
    now = stack.clock()

    ok = verify_claim(claim, now, stack.resolver, stack.trusted)
    assert ok.valid and ok.reason == "valid"

    expired = verify_claim(claim, now + 3600, stack.resolver, stack.trusted)
    assert not expired.valid and expired.reason == "expired"

    early = verify_claim(claim, claim.issued_at - 1, stack.resolver, stack.trusted)
    assert not early.valid and early.reason == "not-yet-valid"

    tampered = dataclasses.replace(claim, value="no")
    bad = verify_claim(tampered, now, stack.resolver, stack.trusted)
    assert not bad.valid and bad.reason == "bad-signature"

    untrusted = verify_claim(claim, now, stack.resolver, frozenset({"did:efed:other"}))
    assert not untrusted.valid and untrusted.reason == "untrusted-issuer"

    ghost_issuer = sign_claim(
        stack.issuer_actor.key,
        claim_type="x",
        value="y",
        subject=alice.did,
        issuer="did:efed:ghost",
        issued_at=now,
        expires_at=now + 10,
    )
    unresolvable = verify_claim(
        ghost_issuer, now, stack.resolver, frozenset({"did:efed:ghost"})
    )
    assert not unresolvable.valid and unresolvable.reason == "unresolvable-issuer"


def test_signature_swap_between_claims_is_invalid():
    stack = Stack()
    alice = stack.register_actor("alice")
    a = stack.issuer.issue(alice.did, "consortium_member", "yes", 3600)
    b = stack.issuer.issue(alice.did, "role", "researcher", 3600)
    franken = dataclasses.replace(a, signature=b.signature)
    verdict = verify_claim(franken, stack.clock(), stack.resolver, stack.trusted)
    assert not verdict.valid and verdict.reason == "bad-signature"


# --------------------------------------------------------------- ratelimit


def test_limiter_allows_up_to_limit_then_blocks():
    clock = SimulatedClock(start=0)
    limiter = SlidingWindowLimiter(3, 60, clock)
    assert [limiter.allow("u") for _ in range(5)] == [True, True, True, False, False]
    clock.advance(61)
    assert limiter.allow("u")


def test_limiter_window_slides():
    clock = SimulatedClock(start=0)
    limiter = SlidingWindowLimiter(2, 60, clock)
    assert limiter.allow("u")
    clock.advance(30)
    assert limiter.allow("u")
    assert not limiter.allow("u")
    clock.advance(31)  # first hit leaves the window
    assert limiter.allow("u")


def test_limiter_keys_are_independent_and_bounded():
    clock = SimulatedClock(start=0)
    limiter = SlidingWindowLimiter(1, 60, clock, max_keys=100)
    assert limiter.allow("a")
    assert limiter.allow("b")
    assert not limiter.allow("a")
    for i in range(1000):
        limiter.allow(f"flood-{i}")
    assert limiter.tracked_keys <= 100


# ----------------------------------------------------------------- pending


def test_pending_capacity_and_duplicates():
    table = PendingTable(2, 30, SimulatedClock(start=0))
    assert table.try_insert("n1", "r1")
    assert not table.try_insert("n1", "r1-again")
    assert table.try_insert("n2", "r2")
    assert not table.try_insert("n3", "r3")
    assert table.size == 2 and table.peak_size == 2


def test_pending_ttl_sweep():
    clock = SimulatedClock(start=0)
    table = PendingTable(10, 30, clock)
    for i in range(5):
        table.try_insert(f"n{i}", i)
    clock.advance(10)
    for i in range(5, 8):
        table.try_insert(f"n{i}", i)
    clock.advance(20)  # first five are now 30s old
    assert table.sweep() == 5
    assert table.size == 3
    assert table.sweep() == 0


def test_pending_insert_sweeps_first():
    clock = SimulatedClock(start=0)
    table = PendingTable(2, 30, clock)
    table.try_insert("n1", 1)
    table.try_insert("n2", 2)
    clock.advance(31)
    assert table.try_insert("n3", 3)  # old entries evicted in passing
    assert table.size == 1


def test_pending_churn_never_exceeds_capacity():
    clock = SimulatedClock(start=0)
    table = PendingTable(16, 30, clock)
    for step in range(600):  # 10 simulated minutes, one insert per second
        table.try_insert(f"n{step}", step)
        assert table.size <= 16
        clock.advance(1)
    assert table.peak_size <= 16


# --------------------------------------------------------------- workflows


def qualified_user(stack, name="alice"):
    actor = stack.register_actor(name)
    stack.issuer.issue(actor.did, "consortium_member", "yes", 3600)
    return actor


def test_scheme_a_grant_happy_path():
    stack = Stack()
    stack.deploy_membership_policy()
    alice = qualified_user(stack)
    outcome = stack.request_a(alice.did)
    assert outcome.decision == "granted"
    assert outcome.grant is not None
    assert outcome.grant.holder == alice.did
    assert outcome.tx_id is not None
    grants = stack.chain.transactions("access_grant")
    assert len(grants) == 1
    assert grants[0].payload_dict()["token"] == outcome.grant.token
    assert stack.gateway.pending.size == 0
    assert stack.gateway.grants.validate(outcome.grant.token, stack.clock()) is not None


def test_grant_store_evicts_expired_grants():
    stack = Stack(contract_path_per_minute=1000)
    stack.deploy_membership_policy()
    member = stack.register_actor("member")
    stack.issuer.issue(member.did, "consortium_member", "yes", 86_400)
    for _ in range(200):
        assert stack.request_a(member.did).decision == "granted"
    stack.clock.advance(3599)  # all still valid, so none is dropped
    stack.request_a(member.did)
    assert len(stack.gateway.grants) == 201
    stack.clock.advance(7200)
    latest = stack.request_a(member.did).grant
    assert len(stack.gateway.grants) == 1
    assert stack.gateway.grants.validate(latest.token, stack.clock()) == latest


def test_scheme_a_denial_lists_missing_and_hits_chain():
    stack = Stack()
    stack.deploy_membership_policy()
    bob = stack.register_actor("bob")  # registered but no claims
    outcome = stack.request_a(bob.did)
    assert outcome.decision == "denied"
    assert outcome.reason == "missing-claims"
    assert outcome.missing == ("consortium_member",)
    denials = stack.chain.transactions("access_denial")
    assert len(denials) == 1
    assert outcome.tx_id == denials[0].tx_id


def test_scheme_a_rate_limit():
    stack = Stack()
    stack.deploy_membership_policy()
    alice = qualified_user(stack)
    outcomes = [stack.request_a(alice.did).decision for _ in range(12)]
    assert outcomes[:10] == ["granted"] * 10
    assert outcomes[10:] == ["rejected-rate"] * 2
    stack.clock.advance(61)
    assert stack.request_a(alice.did).decision == "granted"


def test_unresolvable_did_parks_entry_until_ttl():
    stack = Stack(pending_capacity=4, pending_ttl_seconds=30)
    stack.deploy_membership_policy()
    height_before = stack.chain.height
    outcome = stack.request_a("did:efed:ghost-0")
    assert outcome.decision == "denied" and outcome.reason == "unresolvable"
    assert stack.chain.height == height_before  # nothing written on-chain
    assert stack.gateway.pending.size == 1
    for i in range(1, 4):
        stack.request_a(f"did:efed:ghost-{i}")
    assert stack.gateway.pending.size == 4
    full = stack.request_a("did:efed:ghost-9")
    assert full.decision == "rejected-capacity"
    stack.clock.advance(31)
    assert stack.gateway.pending.sweep() == 4


def test_legitimate_request_succeeds_after_flood_sweep():
    stack = Stack(pending_capacity=8, pending_ttl_seconds=30)
    stack.deploy_membership_policy()
    alice = qualified_user(stack)
    for i in range(50):
        stack.request_a(f"did:efed:junk-{i}")
    assert stack.gateway.pending.peak_size <= 8
    stack.clock.advance(31)
    assert stack.request_a(alice.did).decision == "granted"


def test_scheme_b_happy_path_and_replay():
    stack = Stack()
    stack.deploy_membership_policy()
    alice = qualified_user(stack)

    lookup = stack.gateway.user_lookup(alice.did, stack.fresh_nonce())
    assert lookup.ok
    request = AccessRequest(
        requester=alice.did,
        service="fl-study",
        scheme="user_lookup",
        nonce=stack.fresh_nonce(),
        created_at=stack.clock(),
    )
    first = stack.gateway.request_access(request, attestation=lookup.attestation)
    assert first.decision == "granted"
    assert stack.gateway.pending.peak_size == 0

    replay = stack.gateway.request_access(request, attestation=lookup.attestation)
    assert replay.decision == "denied" and replay.reason == "replay"


def test_scheme_b_stale_attestation_after_document_change():
    stack = Stack()
    stack.deploy_membership_policy()
    alice = qualified_user(stack)
    lookup = stack.gateway.user_lookup(alice.did, stack.fresh_nonce())
    # document changes between lookup and submission
    stack.issuer.issue(alice.did, "role", "researcher", 3600)
    request = AccessRequest(
        requester=alice.did,
        service="fl-study",
        scheme="user_lookup",
        nonce=stack.fresh_nonce(),
        created_at=stack.clock(),
    )
    outcome = stack.gateway.request_access(request, attestation=lookup.attestation)
    assert outcome.decision == "denied" and outcome.reason == "stale-attestation"


def test_scheme_b_attestation_for_other_did_rejected():
    stack = Stack()
    stack.deploy_membership_policy()
    alice = qualified_user(stack)
    mallory = qualified_user(stack, "mallory")
    lookup = stack.gateway.user_lookup(alice.did, stack.fresh_nonce())
    request = AccessRequest(
        requester=mallory.did,
        service="fl-study",
        scheme="user_lookup",
        nonce=stack.fresh_nonce(),
        created_at=stack.clock(),
    )
    outcome = stack.gateway.request_access(request, attestation=lookup.attestation)
    assert outcome.decision == "denied" and outcome.reason == "attestation-mismatch"


def test_front_desk_rate_limit_is_larger():
    stack = Stack()
    stack.deploy_membership_policy()
    alice = qualified_user(stack)
    results = [
        stack.gateway.user_lookup(alice.did, stack.fresh_nonce()).ok
        for _ in range(105)
    ]
    assert results[:100] == [True] * 100
    assert results[100:] == [False] * 5


def _contains_document(value, seen=None):
    if isinstance(value, DidDocument):
        return True
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return any(
            _contains_document(getattr(value, f.name))
            for f in dataclasses.fields(value)
        )
    if isinstance(value, (list, tuple, set)):
        return any(_contains_document(v) for v in value)
    if isinstance(value, dict):
        return any(_contains_document(v) for v in value.values())
    return False


def test_requester_facing_messages_never_carry_documents():
    stack = Stack()
    stack.deploy_membership_policy()
    alice = qualified_user(stack)
    bob = stack.register_actor("bob")
    messages = [
        stack.gateway.user_lookup(alice.did, stack.fresh_nonce()),
        stack.request_a(alice.did),
        stack.request_a(bob.did),
        stack.request_b(alice.did),
        stack.request_a("did:efed:ghost"),
    ]
    for message in messages:
        assert not _contains_document(message)


CLAIM_CASES = st.fixed_dictionaries(
    {
        "has_membership": st.booleans(),
        "value": st.sampled_from(["yes", "no"]),
        "expired": st.booleans(),
        "extra_claims": st.integers(min_value=0, max_value=2),
    }
)


@settings(max_examples=40, deadline=None)
@given(case=CLAIM_CASES, name_index=st.integers(min_value=0, max_value=10_000))
def test_scheme_equivalence_and_ledger_bookkeeping(case, name_index):
    stack = Stack()
    stack.deploy_membership_policy()
    actor = stack.register_actor(f"user{name_index}")
    if case["has_membership"]:
        validity = 1 if case["expired"] else 3600
        stack.issuer.issue(actor.did, "consortium_member", case["value"], validity)
        if case["expired"]:
            stack.clock.advance(5)
    for i in range(case["extra_claims"]):
        stack.issuer.issue(actor.did, f"extra-{i}", "x", 3600)

    a = stack.request_a(actor.did)
    b = stack.request_b(actor.did)
    assert a.decision == b.decision
    assert a.missing == b.missing

    should_grant = (
        case["has_membership"] and case["value"] == "yes" and not case["expired"]
    )
    assert a.decision == ("granted" if should_grant else "denied")

    evaluated = [o for o in (a, b) if o.tx_id is not None]
    grants = stack.chain.transactions("access_grant")
    denials = stack.chain.transactions("access_denial")
    assert len(grants) == sum(1 for o in evaluated if o.decision == "granted")
    assert len(denials) == sum(1 for o in evaluated if o.decision == "denied")


# ------------------------------------------------------------------ legacy


def test_import_legacy_accounts_round_trip():
    stack = Stack()
    accounts = [("dr_smith", "doctor"), ("nurse.jones", "nurse")]
    results = import_legacy_accounts(accounts, stack.registry, stack.issuer)
    assert [r.status for r in results] == ["imported", "imported"]
    doc = stack.registry.get("did:efed:legacy-dr_smith")
    assert doc.claims[-1].claim_type == "role"
    assert doc.claims[-1].value == "doctor"
    verdict = verify_claim(doc.claims[-1], stack.clock(), stack.resolver, stack.trusted)
    assert verdict.valid

    again = import_legacy_accounts(accounts, stack.registry, stack.issuer)
    assert [r.status for r in again] == ["skipped", "skipped"]


def test_read_accounts_csv(tmp_path):
    path = tmp_path / "accounts.csv"
    path.write_text("username,role\ndr_smith,doctor\nnurse.jones,nurse\n")
    assert read_accounts_csv(path) == [("dr_smith", "doctor"), ("nurse.jones", "nurse")]

    bad = tmp_path / "bad.csv"
    bad.write_text("user,level\nx,y\n")
    with pytest.raises(ValidationError):
        read_accounts_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("username,role\n")
    with pytest.raises(ValidationError):
        read_accounts_csv(empty)


# ------------------------------------------------------ crypto per grant


@pytest.fixture
def crypto_counts(monkeypatch):
    """Count ``KeyPair.sign`` and ``verify_signature`` calls at every import site."""
    counts = {"sign": 0, "verify": 0}
    sign, verify = KeyPair.sign, verify_signature

    def counted_sign(self, message):
        counts["sign"] += 1
        return sign(self, message)

    def counted_verify(*args):
        counts["verify"] += 1
        return verify(*args)

    monkeypatch.setattr(KeyPair, "sign", counted_sign)
    for name, module in list(sys.modules.items()):
        if name.startswith("fedgate") and getattr(module, "verify_signature", None) is verify:
            monkeypatch.setattr(module, "verify_signature", counted_verify)
    return counts


def test_contract_lookup_grant_signs_nothing(crypto_counts):
    stack = Stack()
    stack.deploy_membership_policy()
    alice = qualified_user(stack)
    crypto_counts.update(sign=0, verify=0)
    assert stack.request_a(alice.did).decision == "granted"
    # The claim signature is the only check; no attestation is made or checked.
    assert crypto_counts == {"sign": 0, "verify": 1}


def test_user_lookup_grant_signs_once_at_the_front_desk(crypto_counts):
    stack = Stack()
    stack.deploy_membership_policy()
    alice = qualified_user(stack)
    crypto_counts.update(sign=0, verify=0)
    assert stack.request_b(alice.did).decision == "granted"
    # One attestation signed at the front desk; it and the claim are checked.
    assert crypto_counts == {"sign": 1, "verify": 2}


def test_stack_registers_hundreds_of_actors():
    stack = Stack()
    actors = [stack.register_actor(f"member-{i}") for i in range(300)]
    assert len({actor.key.public_bytes for actor in actors}) == 300
    assert len(stack.registry) == 302  # plus the issuer and the owner
