"""What the tests share: the desk they run on (``fedgate.desk`` plus a
trusted issuer and a policy owner, under the short names the tests call, and
one access request under each scheme), the ledger readers only tests need,
the hex regex that ``canonical.from_hex`` is held to, the reference sigmoid
that ``_sigmoid`` is held to bit for bit, the one-model loss oracles that
``FleetScores``, ``global_loss`` and ``training_accuracy`` are held to, the
allocating per-step trainer that ``local_train`` is held to bit for bit (with
its ``stacked_gradient``, whose one-model case is the gradient oracle, and
the pure-Python SplitMix64 epoch orders that ``epoch_orders`` is held to), the
maker of hand-built partitions, the per-client generator that
``generate_partitions`` is held to bit for bit, the total weighted
completion time that ``wsjf_order`` is held to (acceptance criterion 09), the
strict reader of the ``metrics.csv`` a job writes, and the runner of a
snippet under a set number of BLAS threads."""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from fedgate.access import SCHEME_CONTRACT_LOOKUP, SCHEME_USER_LOOKUP, AccessRequest
from fedgate.clock import SimulatedClock
from fedgate.desk import Actor, build_desk
from fedgate.errors import FedGateError, ValidationError
from fedgate.fl import DatasetPartition, SyntheticSpec
from fedgate.fl.config import LossSpec
from fedgate.fl.losses import _sigmoid
from fedgate.fl.metrics import METRICS_HEADER, RoundMetrics
from fedgate.fl.training import DIVERGENCE_LIMIT
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


# Text that JSON escapes or that splits lines elsewhere: quotes, backslashes,
# control characters, line separators, non-ASCII and astral characters; no
# lone surrogate, which no UTF-8 writer can write.
awkward_text = st.text(
    st.sampled_from('"\\/\x00\x01\x1f\x7f\n\r\t \x85\u2028\xe9€\U0001f600a') | st.characters(codec="utf-8"),
    max_size=10,
)


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
        """Deploy a policy of any requirements, signed by the owner."""
        contract = AccessPolicyContract(requirements, service, self.owner.did)
        self.engine.deploy(contract, self.owner.key.sign(contract.signing_bytes()))
        return contract

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


def sigmoid(z: np.ndarray) -> np.ndarray:
    """``_sigmoid``, the gradient step's sigmoid, over buffers of its own."""
    both = np.empty((2, *z.shape))
    return _sigmoid(z, (both, *both))


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
    keeps however it batches partitions into runs."""
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


def stacked_gradient(
    weights: np.ndarray, features: np.ndarray, labels: np.ndarray, loss: LossSpec
) -> np.ndarray:
    """Each of k clients' mean-loss gradients, (k, p), from weights (k, p), features
    (k, m, d) and labels (k, m), in fresh arrays: the products ``StackedGradient``
    makes in its buffers, so the same bits."""
    d = loss.feature_dim
    z = np.matmul(features, weights[:, :d, None])[..., 0]
    if loss.bias:
        z += weights[:, d:]
    r = z - labels if loss.kind == "squared_error" else reference_sigmoid(z) - labels
    grad = np.empty_like(weights)
    np.matmul(r[:, None, :], features, out=grad[:, None, :d])
    if loss.bias:
        grad[:, d] = r.sum(axis=1)
    grad *= (2.0 if loss.kind == "squared_error" else 1.0) / features.shape[1]
    return grad


def gradient(
    model: np.ndarray, features: np.ndarray, labels: np.ndarray, loss: LossSpec
) -> np.ndarray:
    """Analytic gradient of the mean loss: ``stacked_gradient`` for a cohort of one."""
    x = _checked_features(model, features, loss)
    y = np.asarray(labels, dtype=np.float64)
    return stacked_gradient(model[None], x[None], y[None], loss)[0]


_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(seed: int, count: int) -> list[int]:
    """The first ``count`` outputs of SplitMix64 (Steele, Lea and Flood, OOPSLA
    2014) from ``seed``, in Python integers."""
    out, state = [], seed & _MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def reference_epoch_orders(seed: int, epochs: int, n: int) -> list[list[int]]:
    """One client's orders of ``range(n)`` for each epoch: epoch e sorts the
    rows by the high 64 - b bits of outputs e*n .. e*n + n - 1 of its seed's
    SplitMix64 stream, b = max(1, (n - 1).bit_length()), a tie by row index."""
    keys, low = splitmix64(seed, epochs * n), max(1, (n - 1).bit_length())
    return [sorted(range(n), key=lambda j: (keys[e * n + j] >> low, j)) for e in range(epochs)]


def diverged(client_id: str, detail: str) -> FedGateError:
    """The error ``local_train`` raises for the client it names, by its text."""
    return FedGateError(f"training diverged on client {client_id!r}: {detail}")


def reference_local_train(model, cohort, config, round_seeds) -> np.ndarray:
    """What ``local_train`` must return or raise, from a fresh ``stacked_gradient``
    per batch, a fresh gather per epoch and every check after every step: a
    non-finite gradient as it happens, the weights at each epoch's end."""
    pool_x, pool_y = cohort.features, cohort.labels
    loss, minibatch = config.loss, config.batch_mode == "minibatch"
    if minibatch:
        round_seeds = [s & 0xFFFFFFFFFFFFFFFF for s in round_seeds]
    trained = np.empty((len(cohort), model.shape[0]))
    failures: dict[str, str] = {}

    def note(ids, bad, detail):  # each client's first failed check
        for i in np.flatnonzero(bad):
            failures.setdefault(ids[i], detail)

    with np.errstate(over="ignore", invalid="ignore"):  # a diverged row steps on to the end
        for n in dict.fromkeys(cohort.sizes.tolist()):
            members = np.flatnonzero(cohort.sizes == n)
            ids = [cohort.ids[i] for i in members]
            starts = cohort.starts[members]
            weights = np.tile(model, (len(members), 1))
            if minibatch:
                orders = np.array([reference_epoch_orders(round_seeds[i], config.local_epochs, n) for i in members])
                rows = orders + starts[:, None, None]  # (k, E, n) rows of the pool
            else:
                rows = starts[:, None] + np.arange(n)
                x, y = pool_x.take(rows, axis=0), pool_y.take(rows)
            step = config.batch_size if minibatch else n
            for epoch in range(config.local_epochs):
                if minibatch:
                    x, y = pool_x.take(rows[:, epoch], axis=0), pool_y.take(rows[:, epoch])
                for i in range(0, n, step):
                    grad = stacked_gradient(weights, x[:, i : i + step], y[:, i : i + step], loss)
                    if not np.isfinite(grad).all():
                        note(ids, ~np.isfinite(grad).all(axis=1), "non-finite gradient")
                    weights -= config.learning_rate * grad
                peak = np.abs(weights).max(axis=1)  # NaN for a row holding one, so it fails too
                if not (peak <= DIVERGENCE_LIMIT).all():
                    note(ids, ~np.isfinite(weights).all(axis=1), "non-finite weights")
                    note(ids, peak > DIVERGENCE_LIMIT, f"weight magnitude exceeded {DIVERGENCE_LIMIT:g}")
            trained[members] = weights
    if failures:
        client_id = min(failures)
        raise diverged(client_id, failures[client_id])
    return trained



# ------------------------------------------------------ hand-built partitions


def make_partition(client_id: str, features, labels, feature_names: tuple[str, ...] = (), label_name: str = "label"):
    """A hand-built partition; unnamed feature columns are named ``x0``, ``x1``, ..."""
    names = feature_names or tuple(f"x{i}" for i in range(np.shape(features)[1]))
    return DatasetPartition(client_id, features, labels, tuple(names), label_name)



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


def run_under_blas_threads(code: str, threads: int) -> str:
    """What ``code`` prints in a fresh interpreter allowed ``threads`` OpenBLAS
    threads (OpenBLAS reads the limit once, when it loads), with ``src`` and
    ``tests`` on its path; the calling test fails with the snippet's output if it does."""
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), str(root / "tests")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout


def total_weighted_completion(jobs: list[JobSpec], order: list[int]) -> float:
    """Σ weight_j · completion_j when jobs run back-to-back in ``order``."""
    clock = 0.0
    total = 0.0
    for index in order:
        clock += jobs[index].estimated_runtime
        total += jobs[index].priority_weight * clock
    return total


def read_metrics_csv(path: Path) -> list[RoundMetrics]:
    """Rows of a round-metrics CSV; a malformed line or a non-UTF-8 byte is a ValidationError.

    The file must hold exactly the text ``CsvMetricsWriter`` writes for the
    rows read from it, so a blank line, a re-spelled or quoted number, a line
    ended by a line feed alone, or a last line with no end is refused, its
    line named.
    """
    try:
        text = Path(path).read_bytes().decode()
        reader = csv.reader(io.StringIO(text, newline=""))
        next(reader, None)  # the header, which the comparison below checks
        out = []
        for row in reader:
            if len(row) != len(METRICS_HEADER):
                raise ValueError(f"line {reader.line_num} has {len(row)} fields")
            clients = tuple(c for c in row[3].split(";") if c)
            out.append(RoundMetrics(int(row[0]), float(row[1]), float(row[2]), clients))
        written = io.StringIO(newline="")
        csv.writer(written).writerows([METRICS_HEADER, *(m.to_row() for m in out)])
        lines = zip_longest(text.splitlines(True), written.getvalue().splitlines(True))
        for number, (read, wrote) in enumerate(lines, 1):
            if read != wrote:
                raise ValueError(f"line {number} is not as its writer writes it")
    except (ValueError, csv.Error) as exc:  # bad numbers and UTF-8 too; csv.Error: an oversized field
        raise ValidationError(f"cannot read metrics {path}: {exc}") from None
    return out
