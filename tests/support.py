"""What the tests share: the desk they run on (``fedgate.desk`` plus a
trusted issuer and a policy owner, under the short names the tests call, and
one access request under each scheme), the ledger readers only tests need,
the hex regex that ``canonical.from_hex`` is held to, the reference sigmoid
that ``_sigmoid`` is held to bit for bit, the one-model loss oracles that
``FleetScores``, ``global_loss``, ``training_accuracy`` and
``stacked_gradient`` are held to, the per-client generator that
``generate_partitions`` is held to bit for bit, and the total weighted
completion time that ``wsjf_order`` is held to (acceptance criterion 09)."""

from __future__ import annotations

import json
import re

import numpy as np

from fedgate.access import SCHEME_CONTRACT_LOOKUP, SCHEME_USER_LOOKUP, AccessRequest
from fedgate.clock import SimulatedClock
from fedgate.desk import Actor, build_desk
from fedgate.errors import ValidationError
from fedgate.fl import SyntheticSpec
from fedgate.fl.config import LossSpec
from fedgate.fl.losses import stacked_gradient
from fedgate.ledger import AccessOutcome, AccessPolicyContract, ClaimRequirement
from fedgate.ledger.chain import Transaction
from fedgate.service.jobs import JobSpec

ISSUER_DID = "did:efed:issuer"

_HEX_RE = re.compile(r"^(?:[0-9a-f]{2})*$")


def is_lowercase_hex(text: str) -> bool:
    """The oracle ``canonical.from_hex`` is held to: whole bytes of lowercase hex."""
    return _HEX_RE.fullmatch(text) is not None


def transactions(chain, kind: str | None = None) -> list[Transaction]:
    """Every transaction on ``chain`` in order, or only those of ``kind``."""
    txs = [t for b in chain.blocks for t in b.transactions]
    return txs if kind is None else [t for t in txs if t.kind == kind]


def find_transaction(chain, tx_id: str) -> Transaction | None:
    return next((t for t in transactions(chain) if t.tx_id == tx_id), None)


def payload_dict(tx: Transaction) -> dict:
    return json.loads(tx.payload)


def receipt(kind: str, payload: dict, submitter: str) -> str:
    """A ``DidRegistry`` recorder for registries that need no ledger."""
    return f"local:{kind}:{payload['id']}:{payload['version']}"


class Stack:
    """A desk with ``did:efed:issuer`` (trusted) and ``did:efed:owner``
    registered; ``limits`` go to the gateway unchanged."""

    def __init__(self, start_time: int = 100_000, **limits):
        self.desk = build_desk(
            0, SimulatedClock(start=start_time), frozenset({ISSUER_DID}), **limits
        )
        self.issuer_actor = self.register_actor("issuer")
        self.issuer = self.desk.claim_issuer(self.issuer_actor)
        self.owner = self.register_actor("owner")

    def __getattr__(self, name: str):
        return getattr(self.desk, name)

    def fresh_nonce(self) -> bytes:
        return self.desk.nonce()

    def register_actor(self, specific_id: str) -> Actor:
        return self.desk.register(specific_id, self.desk.keypair(specific_id, 0))

    def deploy_policy(
        self, service: str, requirements: tuple[ClaimRequirement, ...]
    ) -> AccessPolicyContract:
        return self.desk.deploy_policy(service, self.owner, requirements)

    def deploy_membership_policy(self, service: str = "fl-study") -> AccessPolicyContract:
        return self.desk.deploy_policy(service, self.owner)

    def request_a(self, requester: str, service: str = "fl-study") -> AccessOutcome:
        """One contract-lookup request under a fresh nonce."""
        request = AccessRequest(requester, service, SCHEME_CONTRACT_LOOKUP, self.desk.nonce())
        return self.gateway.request_access(request, attestation=None)

    def request_b(self, requester: str, service: str = "fl-study") -> AccessOutcome:
        """One user-lookup request under fresh nonces: the front desk attests
        first; if it refuses, the request goes without and is denied."""
        attestation = self.gateway.user_lookup(requester, self.desk.nonce()).attestation
        request = AccessRequest(requester, service, SCHEME_USER_LOOKUP, self.desk.nonce())
        return self.gateway.request_access(request, attestation=attestation)


# ------------------------------------------------------------- loss oracles


def reference_sigmoid(z: np.ndarray) -> np.ndarray:
    """A two-branch sigmoid: 1 / (1 + exp(-z)) on the scores z >= 0 and
    exp(z) / (1 + exp(z)) on the rest (NaN included), each branch gathered,
    computed with its own ``exp`` and scattered back. ``_sigmoid`` takes one
    ``exp`` over the whole array and must return these bytes."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _checked_features(model: np.ndarray, features: np.ndarray, loss: LossSpec) -> np.ndarray:
    if model.shape != (loss.parameter_dim,):
        raise ValidationError(
            f"model shape {model.shape} does not match parameter dimension "
            f"{loss.parameter_dim}"
        )
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != loss.feature_dim:
        raise ValidationError(
            f"feature matrix has shape {x.shape}, expected (*, {loss.feature_dim})"
        )
    return x


def raw_scores(model: np.ndarray, features: np.ndarray, loss: LossSpec) -> np.ndarray:
    """Linear scores z = Xw (+ the bias weight) for each sample."""
    z = _checked_features(model, features, loss) @ model[: loss.feature_dim]
    return z + model[loss.feature_dim] if loss.bias else z


def per_partition_scores(model: np.ndarray, partitions, loss: LossSpec) -> np.ndarray:
    """Scores in list order, one matmul per partition: the bits ``FleetScores.fill``
    keeps however it merges partitions into runs."""
    return np.concatenate([raw_scores(model, p.features, loss) for p in partitions])


def predict(model: np.ndarray, features: np.ndarray, loss: LossSpec) -> np.ndarray:
    """Model outputs: linear scores for squared_error, probabilities for logistic."""
    z = raw_scores(model, features, loss)
    return reference_sigmoid(z) if loss.kind == "logistic" else z


def mean_loss(
    model: np.ndarray, features: np.ndarray, labels: np.ndarray, loss: LossSpec
) -> float:
    """Mean-over-samples loss on one dataset."""
    z = raw_scores(model, features, loss)
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != (z.shape[0],):
        raise ValidationError(f"labels shape {y.shape} does not match {z.shape[0]} samples")
    if loss.kind == "squared_error":
        return float(np.mean((z - y) ** 2))
    # softplus(z) - y*z == -y*log(p) - (1-y)*log(1-p), evaluated stably
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def gradient(
    model: np.ndarray, features: np.ndarray, labels: np.ndarray, loss: LossSpec
) -> np.ndarray:
    """Analytic gradient of the mean loss: ``stacked_gradient`` for a cohort of one."""
    x = _checked_features(model, features, loss)
    y = np.asarray(labels, dtype=np.float64)
    return stacked_gradient(model[None], x[None], y[None], loss)[0]



# --------------------------------------------------------- generator oracle


def reference_pool(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """The features and labels ``generate_partitions`` must pool, built one client
    at a time with that client's own arrays, draws and products."""
    rng = np.random.default_rng([spec.seed & 0xFFFFFFFFFFFFFFFF, 0x64617461])
    direction = rng.normal(size=spec.feature_dim)
    direction /= np.linalg.norm(direction)

    n, d = spec.samples_per_client, spec.feature_dim
    pool_x, pool_y = np.empty((spec.n_clients * n, d)), np.empty(spec.n_clients * n)
    for i in range(spec.n_clients):
        x = rng.normal(size=(n, d))
        margins = x @ direction
        labels = (margins > 0).astype(np.float64)

        if spec.label_skew > 0 and spec.n_clients > 1:
            # Client i targets a positive-class share of 0.5 + skew*(i/(n_clients-1) - 0.5).
            target = 0.5 + spec.label_skew * (i / (spec.n_clients - 1) - 0.5)
            flip_to = rng.random(n) < target
            sign = np.where(flip_to, 1.0, -1.0)
            labels = (sign > 0).astype(np.float64)
            margins = np.abs(margins) * sign
            x = x - np.outer(x @ direction, direction) + np.outer(margins, direction)

        # Push every point off the boundary along the hyperplane normal.
        offset = spec.separability * np.where(labels > 0.5, 1.0, -1.0)
        pool_x[i * n : (i + 1) * n] = x + np.outer(offset, direction)

        if spec.label_noise > 0:
            flips = rng.random(n) < spec.label_noise
            labels = np.where(flips, 1.0 - labels, labels)
        pool_y[i * n : (i + 1) * n] = labels
    return pool_x, pool_y


def total_weighted_completion(jobs: list[JobSpec], order: list[int]) -> float:
    """Σ weight_j · completion_j when jobs run back-to-back in ``order``."""
    clock = 0.0
    total = 0.0
    for index in order:
        clock += jobs[index].estimated_runtime
        total += jobs[index].priority_weight * clock
    return total
