"""The camelCase JSON of the signed and hashed records: pinned bytes and reader/writer agreement.

Each digest below is the sha256 of a record's canonical JSON (or its signing
bytes) for fixed values. They hold no value a machine could round
differently, so they are the same everywhere; a writer change that moves one
byte of a signed or hashed record moves one of them.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedgate.canonical import canonical_json_bytes, sha256_hex
from fedgate.claims import VerifiableClaim
from fedgate.fl import FederationConfig, LossSpec
from fedgate.identity import Attestation
from fedgate.ledger.contracts import AccessPolicyContract, ClaimPredicate, ClaimRequirement

CLAIM = VerifiableClaim(
    claim_type="consortium_member",
    value="true",
    subject="did:efed:user-0",
    issuer="did:efed:issuer-0",
    issued_at=1_000_000,
    expires_at=1_086_400,
    signature=bytes(range(64)),
)
ATTESTATION = Attestation(
    did="did:efed:user-0",
    nonce=bytes(range(16)),
    document_digest="ab" * 32,
    resolver="resolver-0",
    signature=bytes(range(64, 128)),
)
FEDERATION = FederationConfig(
    total_rounds=5,
    total_clients=4,
    subset_size=3,
    local_epochs=2,
    learning_rate=0.125,
    loss=LossSpec("squared_error", 3, bias=True),
    rng_seed=-9,
    batch_mode="minibatch",
    batch_size=10,
    weighting="uniform",
    initial_weights=(0.5, -1.25, 3.0, 0.0),
)
CONTRACT = AccessPolicyContract(
    (
        ClaimRequirement("role", ClaimPredicate("equals", "b")),
        ClaimRequirement("member", ClaimPredicate("equals", "true")),
        ClaimRequirement("id", ClaimPredicate("equals", "é")),
    ),
    "fl-study",
    "did:efed:owner-0",
)


def test_claim_signing_bytes_are_pinned():
    assert sha256_hex(CLAIM.signing_bytes()) == (
        "f3e4ee86b9a6dfd7b6ac153771113959efb017adde9877e8818cc7c6875ef3b6"
    )


def test_attestation_json_is_pinned():
    assert sha256_hex(canonical_json_bytes(ATTESTATION.to_dict())) == (
        "81f75813755d258ac5da5a87be2f36d6a4bbe8e410570c821eb8f8449c795a12"
    )


def test_federation_config_json_is_pinned():
    assert sha256_hex(canonical_json_bytes(FEDERATION.to_dict())) == (
        "8d351a4c9ab032cbe949b7beac334963b0d0b4e72afad50e806fa25dcfd99501"
    )


def test_contract_id_is_pinned():
    assert CONTRACT.contract_id == "e4e11b62cee8f41df4e35502d9c63ca553f42db1c7fada7a5a093b39cb6bcd37"
    assert CONTRACT.to_dict()["contractId"] == CONTRACT.contract_id


# ------------------------------------------------- reader/writer agreement

texts = st.text(max_size=12)
stamps = st.integers(min_value=-(2**62), max_value=2**62)
finite = st.floats(allow_nan=False, allow_infinity=False)

loss_specs = st.builds(
    LossSpec,
    kind=st.sampled_from(("squared_error", "logistic")),
    feature_dim=st.integers(1, 6),
    bias=st.booleans(),
)


@st.composite
def federation_configs(draw):
    loss = draw(loss_specs)
    total_clients = draw(st.integers(1, 50))
    minibatch = draw(st.booleans())
    return FederationConfig(
        total_rounds=draw(st.integers(1, 100)),
        total_clients=total_clients,
        subset_size=draw(st.integers(1, total_clients)),
        local_epochs=draw(st.integers(1, 10)),
        learning_rate=draw(st.floats(min_value=0, allow_infinity=False)),
        loss=loss,
        rng_seed=draw(st.integers(-(2**63), 2**63)),
        batch_mode="minibatch" if minibatch else "full",
        batch_size=draw(st.integers(1, 64)) if minibatch else draw(st.none() | st.integers(1, 64)),
        weighting=draw(st.sampled_from(("proportional", "uniform"))),
        initial_weights=draw(
            st.none() | st.tuples(*[finite] * loss.parameter_dim)
        ),
    )


@st.composite
def claims(draw):
    issued_at = draw(stamps)
    return VerifiableClaim(
        claim_type=draw(texts),
        value=draw(texts),
        subject=draw(texts),
        issuer=draw(texts),
        issued_at=issued_at,
        expires_at=issued_at + draw(st.integers(1, 2**40)),
        signature=draw(st.binary(max_size=64)),
    )


attestations = st.builds(
    Attestation,
    did=texts,
    nonce=st.binary(max_size=32),
    document_digest=texts,
    resolver=texts,
    signature=st.binary(max_size=64),
)


@settings(max_examples=200, deadline=None)
@given(
    record=st.one_of(loss_specs, federation_configs(), claims(), attestations),
)
def test_each_record_reads_back_what_its_writer_writes(record):
    written = json.loads(canonical_json_bytes(record.to_dict()))
    assert type(record).from_dict(written) == record


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**256), max_value=2**256)
    | st.floats()
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES)
@example(value=-0.0)
@example(value={"caf\u00e9\x00": [2**200, -0.0, 1e308, "\u2028\x1f\U0001f600"], "b": {"a": None}})
def test_canonical_json_bytes_are_the_bytes_json_dumps_gives(value):
    dumped = json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    assert canonical_json_bytes(value) == dumped.encode()
