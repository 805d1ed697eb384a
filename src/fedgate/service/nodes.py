"""The simulated fleet of one job: one server, one client per partition, standbys.

``NodeRegistry.provision`` names every node and takes the job's fault
schedule; ``advance`` applies each round's faults as the job reaches it.
Failover rules: a failed client whose role a standby can adopt keeps its
partition served (training math unchanged); with no standby the client's
partition leaves the eligible set from the fault round onward. A failed
server hands the last aggregated model to a standby; with no standby the
job is lost. An idle standby that fails leaves its pool and is never
promoted; the job keeps running.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

from ..errors import FedGateError, ValidationError, check_integer, first_repeat


@dataclass(frozen=True)
class FaultEvent:
    round_index: int
    node_id: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "round_index", check_integer("fault round", self.round_index))
        if not isinstance(self.node_id, str):
            raise ValidationError(f"fault node ids must be strings, got {self.node_id!r}")


class NodeRegistry:
    def __init__(self):
        self._is_server: dict[str, bool] = {}  # every node id this fleet holds
        # each standby pool in promotion order; a failed idle standby leaves it in O(1)
        self._standby_servers: OrderedDict[str, None] = OrderedDict()
        self._standby_clients: OrderedDict[str, None] = OrderedDict()
        self._client_of: dict[str, str] = {}  # live client node -> the client it serves
        self._excluded_since: dict[str, int] = {}
        self._due: dict[int, list[str]] = {}  # fault node ids by round, in schedule order
        self.actions: list[dict] = []  # the failover log model.json carries

    @classmethod
    def provision(
        cls,
        client_ids: Sequence[str],
        standby_clients: int = 0,
        standby_servers: int = 0,
        faults: Sequence[FaultEvent] = (),
    ) -> "NodeRegistry":
        """``server-0``, ``node-<client id>`` per partition, then the standbys.

        A fault naming a node this fleet does not hold is refused here, and
        then one naming a node an earlier fault names, so each node fails at most once.
        """
        registry = cls()
        registry._client_of = {f"node-{cid}": cid for cid in client_ids}
        registry._standby_clients = OrderedDict.fromkeys(f"standby-client-{i}" for i in range(standby_clients))
        registry._standby_servers = OrderedDict.fromkeys(f"standby-server-{i}" for i in range(standby_servers))
        clients = [*registry._client_of, *registry._standby_clients]
        registry._is_server = dict.fromkeys(clients, False)
        registry._is_server.update(dict.fromkeys(["server-0", *registry._standby_servers], True))
        named = [event.node_id for event in faults]
        for node_id in named:
            if node_id not in registry._is_server:
                raise ValidationError(f"fault names unknown node {node_id!r}")
        twice = first_repeat(named)
        if twice is not None:
            raise ValidationError(f"fault schedule names node {twice!r} twice")
        for event in faults:
            registry._due.setdefault(event.round_index, []).append(event.node_id)
        return registry

    def advance(self, round_index: int) -> None:
        """Apply the faults due at this round: server nodes first, then the
        rest, each in schedule order; losing the server loses the job."""
        due = self._due.get(round_index, ())
        for node_id in sorted(due, key=lambda n: not self._is_server[n]):
            action = self.fail(node_id, round_index)
            self.actions.append(action)
            if action["kind"] == "server-lost":
                raise FedGateError("server failed with no standby")

    def fail(self, node_id: str, round_index: int) -> dict:
        """Mark a live node of this fleet dead and promote a standby if one is available.

        Returns the failover-log entry: ``kind`` (``client-swap``,
        ``client-excluded``, ``server-swap``, ``server-lost`` or
        ``standby-lost``), ``failedNode``, ``replacement``, ``clientId`` and
        ``round``.
        """
        replacement = client_id = None
        pool = self._standby_servers if self._is_server[node_id] else self._standby_clients
        if node_id in pool:
            del pool[node_id]
            kind = "standby-lost"
        elif self._is_server[node_id]:
            replacement = self._standby_servers.popitem(last=False)[0] if self._standby_servers else None
            kind = "server-lost" if replacement is None else "server-swap"
        else:
            client_id = self._client_of.pop(node_id)
            if self._standby_clients:
                replacement = self._standby_clients.popitem(last=False)[0]
                self._client_of[replacement] = client_id
                kind = "client-swap"
            else:
                self._excluded_since[client_id] = round_index
                kind = "client-excluded"
        return {
            "kind": kind,
            "failedNode": node_id,
            "replacement": replacement,
            "clientId": client_id,
            "round": round_index,
        }

    def eligible_clients(self, round_index: int, all_ids: frozenset[str]) -> frozenset[str]:
        """Partitions still served at the given round."""
        dropped = {
            cid for cid, since in self._excluded_since.items() if round_index >= since
        }
        return all_ids - frozenset(dropped)
