"""Spans around fedgate's public functions, installed from outside the program.

``Tracer.install`` wraps each function named in ``FUNCTIONS`` at every
import site: it finds the function object in every loaded ``fedgate``
module and replaces each binding, so ``verify_signature`` is traced whether
``identity.resolver``, ``ledger.contracts`` or ``claims`` calls it. Methods
in ``METHODS`` are wrapped on their class. ``uninstall`` puts every
original back.

A span is (name, parent, start, end, failed). Spans stay in memory, in
flat arrays so a long flood fits, until ``write`` saves them. A layer's
self time is the sum over its spans of the duration minus the part that
its child spans cover, paced like every other timing (see ``pace.py``).
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from fedgate.access import AccessGateway, PendingTable, SlidingWindowLimiter
from fedgate.fl import CsvMetricsWriter
from fedgate.identity import DidRegistry, Resolver
from fedgate.keys import KeyPair
from fedgate.ledger import Chain, ContractEngine
from fedgate.service import FlaasService, JobExecutor, ServiceApi

# (span name, defining module, function name)
FUNCTIONS = (
    ("keys.verify", "fedgate.keys", "verify_signature"),
    ("access.verify_claim", "fedgate.access.issuance", "verify_claim"),
    ("ledger.verify", "fedgate.ledger.chain", "verify_chain_records"),
    ("fl.federation", "fedgate.fl.federation", "run_federation"),
    ("fl.select", "fedgate.fl.federation", "select_clients"),
    ("fl.aggregate", "fedgate.fl.federation", "aggregate"),
    ("fl.local_train", "fedgate.fl.training", "local_train"),
    ("fl.eval", "fedgate.fl.training", "global_loss"),
    ("fl.eval", "fedgate.fl.training", "training_accuracy"),
)


def _request_span(gateway, request, *args, **kwargs) -> str:
    return f"access.{request.scheme}"


# (span name or a function of the call's arguments, class, method name).
# The front desk (``user_lookup``) is step one of the user-lookup scheme, so
# it shares that scheme's span name; the metrics CSV writer runs inside the
# training loop but is executor work, so it shares the executor's name.
METHODS = (
    ("keys.sign", KeyPair, "sign"),
    ("identity.resolve", Resolver, "resolve"),
    ("identity.registry.update", DidRegistry, "update"),
    ("ledger.evaluate", ContractEngine, "evaluate"),
    ("ledger.record", Chain, "record"),
    ("access.ratelimit", SlidingWindowLimiter, "allow"),
    ("access.pending.insert", PendingTable, "try_insert"),
    ("access.user_lookup", AccessGateway, "user_lookup"),
    (_request_span, AccessGateway, "request_access"),
    ("service.api", ServiceApi, "handle"),
    ("service.metadata", FlaasService, "metadata"),
    ("service.submit", FlaasService, "submit_job"),
    ("service.executor", JobExecutor, "run"),
    ("service.executor", CsvMetricsWriter, "__call__"),
)


def decision_key(outcome) -> str:
    """Counter name for an access outcome; one of ``spec.DECISIONS``."""
    if outcome.decision in ("granted", "rejected-capacity", "rejected-rate"):
        return outcome.decision
    if outcome.reason in ("missing-claims", "unresolvable"):
        return outcome.reason
    return "other"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span, fn, on_result=None):
        """Wrap ``fn`` so each call records one span named ``span``."""
        fixed = None if callable(span) else self._intern(span)
        names, parents, starts, ends, failed = (
            self.name, self.parent, self.start, self.end, self.failed
        )
        stack, intern = self._stack, self._intern

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(fixed if fixed is not None else intern(span(*args, **kwargs)))
            parents.append(stack[-1])
            ends.append(0.0)
            failed.append(0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[index] = 1
                raise
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_request(self, outcome) -> None:
        self.counts[f"access.decision.{decision_key(outcome)}"] += 1

    def _on_insert(self, admitted: bool) -> None:
        self.counts["access.pending.admitted"] += int(admitted)

    def install(self) -> None:
        hooks = {"request_access": self._on_request, "try_insert": self._on_insert}
        for span, cls, attr in METHODS:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(span, original, hooks.get(attr)))
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "fedgate"]
        for span, module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layers(self, pace) -> dict[str, dict[str, float]]:
        """Per span name: calls, failed calls and paced self seconds."""
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start, end = np.frombuffer(self.start), np.frombuffer(self.end)
        duration = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        self_time = (duration - covered) / pace.slowdown(start, end)
        size = len(self.names)
        calls = np.bincount(name, minlength=size)
        failures = np.bincount(name, weights=np.frombuffer(self.failed, dtype=np.int8), minlength=size)
        self_s = np.bincount(name, weights=self_time, minlength=size)
        return {
            n: {"calls": int(calls[i]), "failed": int(failures[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(self.names)
        }

    def write(self, path: Path) -> Path:
        """Save every span as columns: name id, parent index, start, end, failed."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            failed=np.frombuffer(self.failed, dtype=np.int8),
        )
        return Path(path)
