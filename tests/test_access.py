import dataclasses
import hashlib
import sys
from collections import OrderedDict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgate.access import (
    SCHEME_CONTRACT_LOOKUP,
    SCHEME_USER_LOOKUP,
    AccessRequest,
    PendingTable,
    SlidingWindowLimiter,
)
from fedgate.access import ratelimit as ratelimit_module
from fedgate.access.issuance import CLAIM_CACHE_SIZE, verify_claim
from fedgate.access.legacy import import_legacy_accounts, read_accounts_csv
from fedgate.access.ratelimit import MAX_TRACKED_KEYS, RATE_WINDOW_SECONDS
from fedgate.access.workflows import NONCE_RING_SIZE, _NonceRing
from fedgate.claims import sign_claim
from fedgate.clock import SimulatedClock
from fedgate.desk import build_desk
from fedgate.errors import ValidationError
from fedgate.identity import DidDocument, PublicKeyEntry
from fedgate.identity import did as did_module
from fedgate.identity import document as document_module
from fedgate.identity import resolver as resolver_module
from fedgate.identity.resolver import ISSUED_ATTESTATIONS
from fedgate.identity.registry import UnknownDidError
from fedgate.keys import KeyPair, verify_signature

from support import ISSUER_DID, Stack, payload_dict, transactions


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


def test_a_rogue_issuers_claim_opens_nothing():
    # Issuing trusts its caller; the claim lands, and verification refuses it.
    stack = Stack()
    stack.deploy_membership_policy()
    alice = stack.register_actor("alice")
    rogue = stack.claim_issuer(stack.register_actor("rogue"))
    claim = rogue.issue(alice.did, "consortium_member", "yes", 3600)
    assert stack.registry.get(alice.did).claims == (claim,)
    outcome = stack.request_a(alice.did)
    assert (outcome.decision, outcome.reason) == ("denied", "missing-claims")
    assert verify_claim(claim, stack.clock(), stack.resolver, stack.trusted, OrderedDict()) == (False, "untrusted-issuer")


def test_issue_to_unknown_subject():
    stack = Stack()
    with pytest.raises(UnknownDidError):
        stack.issuer.issue("did:efed:ghost", "consortium_member", "yes", 3600)


def test_verify_claim_verdicts():
    stack = Stack()
    alice = stack.register_actor("alice")
    claim = stack.issuer.issue(alice.did, "consortium_member", "yes", 3600)
    now = stack.clock()

    valid = verify_claim(claim, now, stack.resolver, stack.trusted, OrderedDict())
    assert valid == (True, "valid")

    expired = verify_claim(claim, now + 3600, stack.resolver, stack.trusted, OrderedDict())
    assert expired == (False, "expired")

    early = verify_claim(claim, claim.issued_at - 1, stack.resolver, stack.trusted, OrderedDict())
    assert early == (False, "not-yet-valid")

    tampered = dataclasses.replace(claim, value="no")
    bad = verify_claim(tampered, now, stack.resolver, stack.trusted, OrderedDict())
    assert bad == (False, "bad-signature")

    untrusted = verify_claim(
        claim, now, stack.resolver, frozenset({"did:efed:other"}), OrderedDict()
    )
    assert untrusted == (False, "untrusted-issuer")

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
        ghost_issuer, now, stack.resolver, frozenset({"did:efed:ghost"}), OrderedDict()
    )
    assert unresolvable == (False, "unresolvable-issuer")


def test_signature_swap_between_claims_is_invalid():
    stack = Stack()
    alice = stack.register_actor("alice")
    a = stack.issuer.issue(alice.did, "consortium_member", "yes", 3600)
    b = stack.issuer.issue(alice.did, "role", "researcher", 3600)
    franken = dataclasses.replace(a, signature=b.signature)
    verdict = verify_claim(franken, stack.clock(), stack.resolver, stack.trusted, OrderedDict())
    assert verdict == (False, "bad-signature")


# --------------------------------------------------- claim signature cache


def rotate_issuer_key(stack, key):
    """Publish ``key`` as the issuer's only key, in its document's next version."""
    current = stack.registry.get(ISSUER_DID)
    stack.registry.update(
        dataclasses.replace(
            current,
            public_keys=(PublicKeyEntry("key-1", "Ed25519", key.public_bytes),),
            version=current.version + 1,
        )
    )


def test_cached_signature_misses_after_issuer_key_rotation():
    stack = Stack()
    alice = stack.register_actor("alice")
    claim = stack.issuer.issue(alice.did, "consortium_member", "yes", 3600)
    now, cache = stack.clock(), OrderedDict()
    assert verify_claim(claim, now, stack.resolver, stack.trusted, cache) == (True, "valid")

    new_key = stack.keypair("issuer", 1)
    rotate_issuer_key(stack, new_key)
    stale = verify_claim(claim, now, stack.resolver, stack.trusted, cache)
    assert stale == (False, "bad-signature")
    resigned = dataclasses.replace(claim, signature=new_key.sign(claim.signing_bytes()))
    assert verify_claim(resigned, now, stack.resolver, stack.trusted, cache) == (True, "valid")


def test_cached_signature_still_checks_trust_and_window(crypto_counts):
    stack = Stack()
    alice = stack.register_actor("alice")
    claim = stack.issuer.issue(alice.did, "consortium_member", "yes", 3600)
    cache = OrderedDict()

    def check(now, trusted=stack.trusted):
        return verify_claim(claim, now, stack.resolver, trusted, cache)

    crypto_counts.update(verify=0)
    assert check(claim.issued_at) == (True, "valid")
    assert check(claim.expires_at) == (False, "expired")
    assert check(claim.issued_at - 1) == (False, "not-yet-valid")
    assert check(claim.issued_at, frozenset({"did:efed:other"})) == (False, "untrusted-issuer")
    assert crypto_counts["verify"] == 1


def test_signature_cache_evicts_least_recently_used(crypto_counts):
    stack = Stack()
    alice = stack.register_actor("alice")
    now, cache = stack.clock(), OrderedDict()
    claims = [
        sign_claim(
            stack.issuer_actor.key,
            claim_type="seat",
            value=str(i),
            subject=alice.did,
            issuer=ISSUER_DID,
            issued_at=now,
            expires_at=now + 10,
        )
        for i in range(CLAIM_CACHE_SIZE + 1)
    ]

    def verifies(claim):
        crypto_counts.update(verify=0)
        assert verify_claim(claim, now, stack.resolver, stack.trusted, cache) == (True, "valid")
        return crypto_counts["verify"]

    assert sum(verifies(claim) for claim in claims) == CLAIM_CACHE_SIZE + 1
    assert len(cache) == CLAIM_CACHE_SIZE
    assert verifies(claims[0]) == 1  # evicted; checking it again evicts claims[1]
    assert verifies(claims[2]) == 0  # a hit makes claims[2] the most recent
    assert verifies(claims[1]) == 1  # so this miss evicts claims[3], not claims[2]
    assert (verifies(claims[2]), verifies(claims[3])) == (0, 1)
    assert len(cache) == CLAIM_CACHE_SIZE


CACHE_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("rotate"), st.integers(0, 2)),
        st.tuples(st.just("check"), st.integers(0, 8), st.integers(-5, 25)),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(steps=CACHE_STEPS)
def test_shared_cache_agrees_with_fresh_verification(steps):
    """Honest, tampered and short-lived claims under three issuer keys, checked
    at random times while the issuer's published key rotates among them."""
    stack = Stack()
    alice = stack.register_actor("alice")
    t0, cache = stack.clock(), OrderedDict()
    claims = []
    for index in range(3):
        key = stack.keypair("issuer", index)
        honest, short = (
            sign_claim(
                key,
                claim_type="consortium_member",
                value="yes",
                subject=alice.did,
                issuer=ISSUER_DID,
                issued_at=t0,
                expires_at=t0 + lifetime,
            )
            for lifetime in (20, 3)
        )
        claims += [honest, dataclasses.replace(honest, value="no"), short]
    for step in steps:
        if step[0] == "rotate":
            rotate_issuer_key(stack, stack.keypair("issuer", step[1]))
            continue
        claim, now = claims[step[1]], t0 + step[2]
        shared = verify_claim(claim, now, stack.resolver, stack.trusted, cache)
        assert shared == verify_claim(claim, now, stack.resolver, stack.trusted, OrderedDict())


# --------------------------------------------------------------- ratelimit


def test_limiter_allows_up_to_limit_then_blocks():
    clock = SimulatedClock(start=0)
    limiter = SlidingWindowLimiter(3, clock)
    assert [limiter.allow("u") for _ in range(5)] == [True, True, True, False, False]
    clock.advance(61)
    assert limiter.allow("u")


def test_limiter_window_slides():
    clock = SimulatedClock(start=0)
    limiter = SlidingWindowLimiter(2, clock)
    assert limiter.allow("u")
    clock.advance(30)
    assert limiter.allow("u")
    assert not limiter.allow("u")
    clock.advance(31)  # first hit leaves the window
    assert limiter.allow("u")


def test_limiter_keys_are_independent_and_bounded():
    clock = SimulatedClock(start=0)
    limiter = SlidingWindowLimiter(1, clock)
    assert limiter.allow("a")
    assert limiter.allow("b")
    assert not limiter.allow("a")
    # "a" and MAX_TRACKED_KEYS - 1 other keys are all remembered ...
    limiter = SlidingWindowLimiter(1, clock)
    assert limiter.allow("a")
    for i in range(MAX_TRACKED_KEYS - 1):
        assert limiter.allow(f"flood-{i}")
    assert not limiter.allow("a")
    # ... and one more is refused untracked, since "a", the least recently
    # seen, still has a live window: no key's budget is ever reset.
    limiter = SlidingWindowLimiter(1, clock)
    assert limiter.allow("a")
    for i in range(MAX_TRACKED_KEYS - 1):
        assert limiter.allow(f"flood-{i}")
    assert not limiter.allow("newcomer")
    assert not limiter.allow("a")
    clock.advance(RATE_WINDOW_SECONDS)  # every window has emptied
    assert limiter.allow("newcomer")  # it takes the place of "flood-0"
    assert limiter.allow("a") and not limiter.allow("a")


@settings(max_examples=200, deadline=None)
@given(
    limit=st.integers(min_value=1, max_value=3),
    calls=st.lists(
        st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=20)),
        max_size=60,
    ),
)
def test_no_run_of_other_keys_resets_a_budget(limit, calls):
    """Under a key bound of 3, no sequence of calls lets any key get more than
    ``limit`` allowed calls inside one ``RATE_WINDOW_SECONDS`` window."""
    clock = SimulatedClock(start=0)
    limiter = SlidingWindowLimiter(limit, clock)
    allowed: dict[int, list[int]] = {}
    with mock.patch.object(ratelimit_module, "MAX_TRACKED_KEYS", 3):
        for key, wait in calls:
            clock.advance(wait)
            if limiter.allow(f"k{key}"):
                times = allowed.setdefault(key, [])
                times.append(clock())
                assert sum(t > clock() - RATE_WINDOW_SECONDS for t in times) <= limit
            assert len(limiter._hits) <= 3


# ----------------------------------------------------------------- pending


def test_pending_capacity_and_duplicates():
    table = PendingTable(2, 30, SimulatedClock(start=0))
    assert table.try_insert("n1")
    assert not table.try_insert("n1")
    assert table.try_insert("n2")
    assert not table.try_insert("n3")
    assert table.contains("n2") and not table.contains("n3") and table.peak_size == 2


def test_pending_ttl_sweep():
    clock = SimulatedClock(start=0)
    table = PendingTable(10, 30, clock)
    for i in range(5):
        table.try_insert(f"n{i}")
    clock.advance(10)
    for i in range(5, 8):
        table.try_insert(f"n{i}")
    clock.advance(20)  # first five are now 30s old
    assert table.try_insert("n8")  # the insert sweeps them first
    assert [table.contains(f"n{i}") for i in range(9)] == [False] * 5 + [True] * 4


def test_pending_insert_sweeps_first():
    clock = SimulatedClock(start=0)
    table = PendingTable(2, 30, clock)
    table.try_insert("n1")
    table.try_insert("n2")
    clock.advance(31)
    assert table.try_insert("n3")  # old entries evicted in passing
    assert [table.contains(n) for n in ("n1", "n2", "n3")] == [False, False, True]


def test_pending_churn_never_exceeds_capacity():
    clock = SimulatedClock(start=0)
    table = PendingTable(16, 30, clock)
    for step in range(600):  # 10 simulated minutes, one insert per second
        table.try_insert(f"n{step}")
        clock.advance(1)
    assert table.peak_size == 16


class ScanPendingTable:
    """The pending-table rule as first written, kept as an oracle: every
    sweep scans every entry and drops those ``ttl`` seconds old or older."""

    def __init__(self, capacity, ttl, clock):
        self.capacity, self.ttl, self.clock = capacity, ttl, clock
        self.entries = {}
        self.peak_size = 0

    def try_insert(self, nonce):
        now = self.clock()
        for dead in [n for n, born in self.entries.items() if now - born >= self.ttl]:
            del self.entries[dead]
        if nonce in self.entries or len(self.entries) >= self.capacity:
            return False
        self.entries[nonce] = self.clock()
        self.peak_size = max(self.peak_size, len(self.entries))
        return True

    def remove(self, nonce):
        self.entries.pop(nonce, None)


PENDING_OPS = st.lists(
    st.one_of(
        # a small nonce space, so inserts and removes hit both fresh and live nonces
        st.tuples(st.sampled_from(["insert", "remove"]), st.integers(0, 30)),
        st.tuples(st.just("advance"), st.integers(0, 40)),
    ),
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 8), ttl=st.integers(1, 30), ops=PENDING_OPS)
def test_pending_front_sweep_matches_full_scan(capacity, ttl, ops):
    clock = SimulatedClock(start=0)
    table = PendingTable(capacity, ttl, clock)
    oracle = ScanPendingTable(capacity, ttl, clock)
    for op, arg in ops:
        if op == "advance":
            clock.advance(arg)
        elif op == "insert":
            assert table.try_insert(f"n{arg}") == oracle.try_insert(f"n{arg}")
        else:
            table.remove(f"n{arg}")
            oracle.remove(f"n{arg}")
        assert [table.contains(f"n{i}") for i in range(31)] == [f"n{i}" in oracle.entries for i in range(31)]
        assert table.peak_size == oracle.peak_size <= capacity


def test_nonce_ring_forgets_only_after_ring_size_newer_nonces():
    ring = _NonceRing()
    assert ring.consume("first")
    for i in range(NONCE_RING_SIZE - 1):
        assert ring.consume(f"n{i}")
    assert not ring.consume("first")  # still among the last NONCE_RING_SIZE
    assert not ring.consume(f"n{NONCE_RING_SIZE - 2}")
    assert ring.consume("newest")  # now NONCE_RING_SIZE newer nonces follow it
    assert ring.consume("first")


# --------------------------------------------------------------- workflows


def qualified_user(stack, name="alice"):
    actor = stack.register_actor(name)
    stack.issuer.issue(actor.did, "consortium_member", "yes", 3600)
    return actor


@pytest.mark.parametrize(
    "scheme, nonce",
    [
        ("oauth", b"\x01" * 16),
        (SCHEME_CONTRACT_LOOKUP, b"\x01" * 15),
        (SCHEME_USER_LOOKUP, b"\x01" * 17),
        (SCHEME_CONTRACT_LOOKUP, "n" * 16),
        (SCHEME_USER_LOOKUP, [1] * 16),
        (SCHEME_CONTRACT_LOOKUP, bytearray(16)),
    ],
    ids=[
        "unknown-scheme",
        "15-byte-nonce",
        "17-byte-nonce",
        "16-character-str-nonce",
        "16-item-list-nonce",
        "bytearray-nonce",
    ],
)
def test_access_request_refuses_an_unknown_scheme_or_a_nonce_not_16_bytes(scheme, nonce):
    with pytest.raises(ValidationError):
        AccessRequest("did:efed:alice", "fl-study", scheme, nonce)


@pytest.mark.parametrize(
    "nonce",
    [5, b"", b"\x01" * 3, "n" * 16, b"\x01" * 17],
    ids=["int", "empty-bytes", "3-byte", "16-character-str", "17-byte"],
)
def test_front_desk_refuses_a_nonce_not_16_bytes_before_fetch_limit_or_sign(monkeypatch, nonce):
    stack = Stack(front_desk_per_minute=1)
    stack.deploy_membership_policy()
    alice = qualified_user(stack)
    steps = []
    for name in ("find", "resolve"):
        step = getattr(stack.resolver, name)
        monkeypatch.setattr(
            stack.resolver, name, lambda *a, step=step, name=name: steps.append(name) or step(*a)
        )
    with pytest.raises(ValidationError, match="front-desk nonce must be 16 bytes"):
        stack.gateway.user_lookup(alice.did, nonce)
    assert steps == []
    # The one front-desk slot is unspent, so a good nonce still gets its attestation.
    assert stack.gateway.user_lookup(alice.did, stack.fresh_nonce()).ok
    assert steps == ["find", "resolve"]


def test_a_capacity_refusal_is_one_shared_frozen_outcome():
    # A refused ghost builds no outcome of its own; the shared one cannot change.
    stack = Stack(pending_capacity=1)
    stack.deploy_membership_policy()
    assert stack.request_a("did:efed:ghost-0").reason == "unresolvable"
    first, second = stack.request_a("did:efed:ghost-1"), stack.request_a("did:efed:ghost-2")
    assert first.decision == "rejected-capacity"
    assert first is second
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.reason = "changed"


def test_an_all_valid_verdict_is_one_shared_frozen_outcome():
    stack = Stack()
    contract = stack.deploy_membership_policy()
    document = stack.registry.get(qualified_user(stack).did)
    first = stack.engine.evaluate(contract, document, stack.clock())
    assert first.decision == "granted"
    assert stack.engine.evaluate(contract, document, stack.clock()) is first
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.reason = "changed"


@pytest.mark.parametrize("scheme", ["contract_lookup", "user_lookup"])
def test_a_members_grant_parses_no_did(monkeypatch, scheme):
    stack = Stack()
    stack.deploy_membership_policy()
    alice = qualified_user(stack)
    parsed = []
    parse_did = did_module.parse_did

    def counting_parse(text):
        parsed.append(text)
        return parse_did(text)

    for module in (did_module, document_module):
        monkeypatch.setattr(module, "parse_did", counting_parse)
    request = stack.request_a if scheme == SCHEME_CONTRACT_LOOKUP else stack.request_b
    assert request(alice.did).decision == "granted"
    assert parsed == []
    # Nor is a DID no document is held under: its refusal is one reason.
    assert stack.request_a("did:efed:ghost").reason == "unresolvable"
    assert stack.request_a("did:efed:bad id").reason == "unresolvable"
    assert parsed == []


def test_scheme_a_grant_happy_path():
    stack = Stack()
    stack.deploy_membership_policy()
    alice = qualified_user(stack)
    nonce = stack.fresh_nonce()
    request = AccessRequest(alice.did, "fl-study", SCHEME_CONTRACT_LOOKUP, nonce)
    outcome = stack.gateway.request_access(request, attestation=None)
    assert outcome.decision == "granted"
    assert outcome.grant is not None
    assert outcome.grant.holder == alice.did
    assert outcome.tx_id is not None
    grants = transactions(stack.chain, "access_grant")
    assert len(grants) == 1
    assert payload_dict(grants[0])["tokenDigest"] == (
        hashlib.sha256(outcome.grant.token.encode()).hexdigest()
    )
    assert not stack.gateway.pending.contains(nonce.hex()) and stack.gateway.pending.peak_size == 1
    assert stack.gateway.grants.validate(outcome.grant.token, stack.clock()) is not None


def test_gateway_returns_the_contracts_outcome(monkeypatch):
    stack = Stack()
    stack.deploy_membership_policy()
    member = qualified_user(stack)
    outsider = stack.register_actor("outsider")
    executed = []
    original = stack.engine.execute

    def execute(*args, **kwargs):
        executed.append(original(*args, **kwargs))
        return executed[-1]

    monkeypatch.setattr(stack.engine, "execute", execute)
    outcomes = [
        stack.request_a(member.did),
        stack.request_b(member.did),
        stack.request_a(outsider.did),
        stack.request_b(outsider.did),
    ]
    assert [o.decision for o in outcomes] == ["granted", "granted", "denied", "denied"]
    assert len(executed) == 4
    assert all(o is e for o, e in zip(outcomes, executed))


def test_grant_store_evicts_expired_grants():
    stack = Stack(contract_path_per_minute=1000)
    stack.deploy_membership_policy()
    member = stack.register_actor("member")
    stack.issuer.issue(member.did, "consortium_member", "yes", 86_400)
    for _ in range(200):
        assert stack.request_a(member.did).decision == "granted"
    stack.clock.advance(3599)  # all still valid, so none is dropped
    stack.request_a(member.did)
    assert len(stack.gateway.grants._records) == 201
    stack.clock.advance(7200)
    latest = stack.request_a(member.did).grant
    assert len(stack.gateway.grants._records) == 1
    assert stack.gateway.grants.validate(latest.token, stack.clock()) == latest


def test_grant_store_drops_a_grant_that_expires_at_the_current_second():
    stack = Stack()
    stack.deploy_membership_policy()
    member = stack.register_actor("member")
    stack.issuer.issue(member.did, "consortium_member", "yes", 86_400)
    first = stack.request_a(member.did).grant
    stack.clock.advance(first.expires_at - stack.clock())
    latest = stack.request_a(member.did).grant
    assert stack.clock() == first.expires_at
    assert len(stack.gateway.grants._records) == 1
    assert stack.gateway.grants.validate(latest.token, stack.clock()) == latest


def test_scheme_a_denial_lists_missing_and_hits_chain():
    stack = Stack()
    stack.deploy_membership_policy()
    bob = stack.register_actor("bob")  # registered but no claims
    outcome = stack.request_a(bob.did)
    assert outcome.decision == "denied"
    assert outcome.reason == "missing-claims"
    assert outcome.missing == ("consortium_member",)
    denials = transactions(stack.chain, "access_denial")
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


def test_made_up_dids_do_not_reset_a_contract_path_budget():
    """A member past its budget stays refused after 4,096 requests under
    made-up DIDs and a wait past the pending ttl, inside the rate window."""
    stack = Stack()
    stack.deploy_membership_policy()
    alice = qualified_user(stack)
    assert [stack.request_a(alice.did).decision for _ in range(11)] == ["granted"] * 10 + [
        "rejected-rate"
    ]
    ghosts = [stack.request_a(f"did:efed:ghost-{i}").reason for i in range(MAX_TRACKED_KEYS)]
    assert ghosts.count("unresolvable") == stack.gateway.pending.capacity
    assert ghosts.count("pending table full") == MAX_TRACKED_KEYS - stack.gateway.pending.capacity
    stack.clock.advance(31)
    assert [stack.request_a(alice.did).decision for _ in range(10)] == ["rejected-rate"] * 10


def test_made_up_dids_do_not_reset_a_front_desk_budget():
    stack = Stack()
    stack.deploy_membership_policy()
    alice = qualified_user(stack)
    lookups = [stack.gateway.user_lookup(alice.did, stack.fresh_nonce()).reason for _ in range(101)]
    assert lookups == ["ok"] * 100 + ["rejected-rate"]
    for i in range(MAX_TRACKED_KEYS):
        ghost = stack.gateway.user_lookup(f"did:efed:ghost-{i}", stack.fresh_nonce())
        assert ghost.reason == "unresolvable"
    stack.clock.advance(31)
    assert [stack.request_b(alice.did).reason for _ in range(10)] == ["missing-attestation"] * 10


def test_a_rate_refused_request_leaves_no_entry_and_spends_no_nonce():
    stack = Stack(contract_path_per_minute=1, pending_capacity=1)
    stack.deploy_membership_policy()
    alice = qualified_user(stack)
    assert stack.request_a(alice.did).decision == "granted"
    request = AccessRequest(alice.did, "fl-study", SCHEME_CONTRACT_LOOKUP, stack.fresh_nonce())
    assert stack.gateway.request_access(request, None).decision == "rejected-rate"
    assert not stack.gateway.pending.contains(request.nonce_hex)
    # A parked ghost fills the table, which refuses before the limiter is asked.
    assert stack.request_a("did:efed:ghost").reason == "unresolvable"
    assert stack.gateway.request_access(request, None).decision == "rejected-capacity"
    stack.clock.advance(61)  # the ghost's entry and alice's window have both expired
    assert stack.gateway.request_access(request, None).decision == "granted"


def test_unresolvable_did_parks_entry_until_ttl():
    stack = Stack(pending_capacity=4, pending_ttl_seconds=30)
    stack.deploy_membership_policy()
    height_before = stack.chain.height
    outcome = stack.request_a("did:efed:ghost-0")
    assert outcome.decision == "denied" and outcome.reason == "unresolvable"
    assert stack.chain.height == height_before  # nothing written on-chain
    assert stack.gateway.pending.peak_size == 1
    for i in range(1, 4):
        stack.request_a(f"did:efed:ghost-{i}")
    assert stack.gateway.pending.peak_size == 4
    full = stack.request_a("did:efed:ghost-9")
    assert full.decision == "rejected-capacity"
    stack.clock.advance(31)
    # The four parked entries expired, so four ghosts fit again, and a fifth does not.
    later = [stack.request_a(f"did:efed:ghost-{i}") for i in range(10, 15)]
    assert [o.reason for o in later] == ["unresolvable"] * 4 + ["pending table full"]


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
    )
    first = stack.gateway.request_access(request, attestation=lookup.attestation)
    assert first.decision == "granted"
    assert stack.gateway.pending.peak_size == 0

    replay = stack.gateway.request_access(request, attestation=lookup.attestation)
    assert replay.decision == "denied" and replay.reason == "replay"


@pytest.mark.parametrize("qualified", [True, False], ids=["member", "unqualified"])
@pytest.mark.parametrize("scheme", [SCHEME_CONTRACT_LOOKUP, SCHEME_USER_LOOKUP])
def test_request_nonce_opens_one_evaluation(scheme, qualified):
    # Three slots a minute: a replay that spent one, as anyone reading a
    # payload's requestRef can send, would leave the holder's next request none.
    stack = Stack(contract_path_per_minute=3)
    stack.deploy_membership_policy()
    actor = qualified_user(stack) if qualified else stack.register_actor("bob")
    request = AccessRequest(actor.did, "fl-study", scheme, stack.fresh_nonce())

    def send(request):
        attestation = None
        if scheme == SCHEME_USER_LOOKUP:  # each send carries a fresh attestation
            attestation = stack.gateway.user_lookup(actor.did, stack.fresh_nonce()).attestation
        return stack.gateway.request_access(request, attestation=attestation)

    first = send(request)
    assert first.decision == ("granted" if qualified else "denied")
    assert first.tx_id is not None
    height = stack.chain.height
    for _ in range(2):
        replay = send(request)
        assert (replay.decision, replay.reason, replay.tx_id) == ("denied", "replay", None)
        assert not stack.gateway.pending.contains(request.nonce_hex)
    assert stack.chain.height == height
    fresh = send(AccessRequest(actor.did, "fl-study", scheme, stack.fresh_nonce()))
    assert (fresh.decision, fresh.reason) == (first.decision, first.reason)
    tx_ids = [tx.tx_id for block in stack.chain.blocks for tx in block.transactions]
    assert len(tx_ids) == len(set(tx_ids))


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
    )
    outcome = stack.gateway.request_access(request, attestation=lookup.attestation)
    assert outcome.decision == "denied" and outcome.reason == "attestation-mismatch"


def test_scheme_b_attestation_signed_by_another_key_rejected():
    stack = Stack()
    stack.deploy_membership_policy()
    alice = qualified_user(stack)
    lookup = stack.gateway.user_lookup(alice.did, stack.fresh_nonce())
    # A valid Ed25519 signature over the very bytes the desk signs, by a key
    # that is not the desk's.
    body = stack.resolver.find(alice.did).canonical_bytes() + lookup.attestation.nonce
    forged = dataclasses.replace(lookup.attestation, signature=alice.key.sign(body))
    assert verify_signature(alice.key.public_bytes, body, forged.signature)
    request = AccessRequest(
        requester=alice.did,
        service="fl-study",
        scheme="user_lookup",
        nonce=stack.fresh_nonce(),
    )
    height = stack.chain.height
    outcome = stack.gateway.request_access(request, attestation=forged)
    assert outcome.decision == "denied" and outcome.reason == "stale-attestation"
    assert outcome.tx_id is None
    assert stack.chain.height == height


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
    grants = transactions(stack.chain, "access_grant")
    denials = transactions(stack.chain, "access_denial")
    assert len(grants) == sum(1 for o in evaluated if o.decision == "granted")
    assert len(denials) == sum(1 for o in evaluated if o.decision == "denied")


# ------------------------------------------------------------------ legacy


def test_import_legacy_accounts_round_trip():
    stack = Stack()
    accounts = [("dr_smith", "doctor"), ("nurse.jones", "nurse")]
    results = import_legacy_accounts(accounts, stack.desk, stack.issuer)
    assert [r["status"] for r in results] == ["imported", "imported"]
    doc = stack.registry.get("did:efed:legacy-dr_smith")
    assert doc.claims[-1].claim_type == "role"
    assert doc.claims[-1].value == "doctor"
    verdict = verify_claim(
        doc.claims[-1], stack.clock(), stack.resolver, stack.trusted, OrderedDict()
    )
    assert verdict == (True, "valid")

    again = import_legacy_accounts(accounts, stack.desk, stack.issuer)
    assert [r["status"] for r in again] == ["skipped", "skipped"]


def test_legacy_usernames_that_share_a_did_refuse_the_batch():
    stack = Stack()
    height = stack.chain.height
    accounts = [("alice smith", "doctor"), ("alice-smith", "nurse")]
    with pytest.raises(ValidationError, match="'alice smith' and 'alice-smith'"):
        import_legacy_accounts(accounts, stack.desk, stack.issuer)
    assert stack.registry.find("did:efed:legacy-alice-smith") is None
    assert stack.chain.height == height
    # One username given twice is one account: its second row is skipped.
    repeated = import_legacy_accounts([("ada", "a"), ("ada", "b")], stack.desk, stack.issuer)
    assert [r["status"] for r in repeated] == ["imported", "skipped"]


def test_legacy_keys_come_from_the_desk_seed_not_the_username():
    accounts = [("dr_smith", "doctor"), ("nurse.jones", "nurse")]
    keys = []
    for seed in (1, 2):
        desk = build_desk(seed, SimulatedClock(start=100_000), frozenset({ISSUER_DID}))
        issuer = desk.claim_issuer(desk.register("issuer", desk.keypair("issuer", 0)))
        results = import_legacy_accounts(accounts, desk, issuer)
        keys.append([desk.registry.get(r["did"]).authentication_keys() for r in results])
    for (username, _), first, second in zip(accounts, *keys):
        guessed = KeyPair.generate(hashlib.sha256(f"legacy-account:{username}".encode()).digest())
        assert first != second
        assert guessed.public_bytes not in first + second


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
    for row in ("dr_smith,", " ,doctor", "dr_smith"):
        blank = tmp_path / "blank.csv"
        blank.write_text(f"username,role\nnurse.jones,nurse\n{row}\n")
        with pytest.raises(ValidationError, match="blank username or role"):
            read_accounts_csv(blank)


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
    # A repeat grant finds the claim signature in the desk's cache.
    crypto_counts.update(sign=0, verify=0)
    assert stack.request_a(alice.did).decision == "granted"
    assert crypto_counts == {"sign": 0, "verify": 0}


def test_user_lookup_grant_signs_once(crypto_counts):
    stack = Stack()
    stack.deploy_membership_policy()
    alice = qualified_user(stack)
    crypto_counts.update(sign=0, verify=0)
    assert stack.request_b(alice.did).decision == "granted"
    # The front desk signs the attestation; the gateway checks it against the
    # one the resolver kept, signing nothing. The claim is the only verify.
    assert crypto_counts == {"sign": 1, "verify": 1}
    # A repeat grant signs one fresh attestation; the claim is cached.
    crypto_counts.update(sign=0, verify=0)
    assert stack.request_b(alice.did).decision == "granted"
    assert crypto_counts == {"sign": 1, "verify": 0}


def submit_b(stack, actor, attestation):
    """One user-lookup submission of ``attestation`` under a fresh request nonce."""
    request = AccessRequest(actor.did, "fl-study", SCHEME_USER_LOOKUP, stack.fresh_nonce())
    return stack.gateway.request_access(request, attestation=attestation)


def test_attestation_opens_one_evaluation_after_the_nonce_ring_forgets_it():
    stack = Stack(contract_path_per_minute=NONCE_RING_SIZE)
    stack.deploy_membership_policy()
    alice = qualified_user(stack)
    attestation = stack.gateway.user_lookup(alice.did, stack.fresh_nonce()).attestation
    assert submit_b(stack, alice, attestation).decision == "granted"
    for _ in range(NONCE_RING_SIZE):
        assert stack.request_a(alice.did).decision == "granted"
    assert attestation.nonce.hex() not in stack.gateway._used_nonces._seen
    height = stack.chain.height
    again = submit_b(stack, alice, attestation)
    assert (again.decision, again.reason, again.tx_id) == ("denied", "stale-attestation", None)
    assert stack.chain.height == height


def test_issued_attestations_keep_the_newest_up_to_their_bound():
    stack = Stack(front_desk_per_minute=ISSUED_ATTESTATIONS + 1)
    stack.deploy_membership_policy()
    alice = qualified_user(stack)
    lookups = [
        stack.gateway.user_lookup(alice.did, stack.fresh_nonce())
        for _ in range(ISSUED_ATTESTATIONS + 1)
    ]
    assert all(lookup.ok for lookup in lookups)
    assert len(stack.resolver._issued) == ISSUED_ATTESTATIONS
    height = stack.chain.height
    oldest = submit_b(stack, alice, lookups[0].attestation)
    assert (oldest.decision, oldest.reason) == ("denied", "stale-attestation")
    assert stack.chain.height == height
    assert submit_b(stack, alice, lookups[-1].attestation).decision == "granted"


@settings(max_examples=80, deadline=None)
@given(
    bound=st.integers(min_value=1, max_value=6),
    steps=st.lists(
        st.tuples(st.sampled_from(["lookup", "submit"]), st.integers(min_value=0, max_value=9)),
        max_size=40,
    ),
)
def test_issued_attestations_stay_within_their_bound(bound, steps):
    """Lookups and submissions at the resolver, against a model table under a
    small bound: each submission of the latest attestation made under a nonce
    is accepted exactly when the model still holds it."""
    stack = Stack()
    alice = stack.register_actor("alice")
    resolver = stack.resolver
    document = resolver.find(alice.did)
    model: OrderedDict[bytes, object] = OrderedDict()
    latest = {}
    with mock.patch.object(resolver_module, "ISSUED_ATTESTATIONS", bound):
        for step, index in steps:
            nonce = bytes([index]) * 16
            if step == "lookup":
                latest[nonce] = model[nonce] = resolver.resolve(document, nonce)
                if len(model) > bound:
                    model.popitem(last=False)
            elif nonce in latest:
                expected = model.pop(nonce, None) is not None
                assert resolver.verify(latest[nonce], document) == expected
            assert len(resolver._issued) == len(model) <= bound
            assert list(resolver._issued) == list(model)


def test_stack_registers_hundreds_of_actors():
    stack = Stack()
    actors = [stack.register_actor(f"member-{i}") for i in range(300)]
    assert len({actor.key.public_bytes for actor in actors}) == 300
    assert len(stack.registry._documents) == 302  # plus the issuer and the owner
