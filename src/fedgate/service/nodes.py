"""The simulated fleet: one server, one client per partition, standbys.

Failover rules: a failed client whose role a standby can adopt keeps its
partition served (training math unchanged); with no standby the client's
partition leaves the eligible set from the fault round onward. A failed
server hands the last aggregated model to a standby; with no standby the
job is lost. An idle standby that fails leaves its pool and is never
promoted; the job keeps running.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..errors import ValidationError


@dataclass
class Node:
    node_id: str
    role: str  # "server" | "client"
    client_id: str | None = None  # partition served, clients only
    alive: bool = True


@dataclass(frozen=True)
class FaultEvent:
    round_index: int
    node_id: str

    def __post_init__(self) -> None:
        if self.round_index < 1:
            raise ValidationError("fault rounds start at 1")


@dataclass(frozen=True)
class FailoverAction:
    kind: str  # client-swap | client-excluded | server-swap | server-lost | standby-lost
    failed_node: str
    replacement: str | None
    client_id: str | None
    round_index: int


class NodeRegistry:
    def __init__(self):
        self._nodes: dict[str, Node] = {}
        self._server: str | None = None
        self._standby_servers: list[str] = []
        self._standby_clients: list[str] = []
        self._serving: dict[str, str] = {}  # client_id -> node_id
        self._excluded_since: dict[str, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def provision(
        cls,
        client_ids: list[str],
        standby_clients: int = 0,
        standby_servers: int = 0,
    ) -> "NodeRegistry":
        registry = cls()
        registry.add_node(Node("server-0", "server"))
        for cid in client_ids:
            registry.add_node(Node(f"node-{cid}", "client", client_id=cid))
        for i in range(standby_clients):
            registry.add_standby(Node(f"standby-client-{i}", "client"))
        for i in range(standby_servers):
            registry.add_standby(Node(f"standby-server-{i}", "server"))
        return registry

    def add_node(self, node: Node) -> None:
        with self._lock:
            if node.node_id in self._nodes:
                raise ValidationError(f"duplicate node id {node.node_id}")
            if node.role == "server":
                if self._server is not None:
                    raise ValidationError("at most one active server")
                self._server = node.node_id
            elif node.role == "client":
                if node.client_id is None:
                    raise ValidationError("active client nodes must serve a partition")
                if node.client_id in self._serving:
                    raise ValidationError(
                        f"partition {node.client_id} already served by "
                        f"{self._serving[node.client_id]}"
                    )
                self._serving[node.client_id] = node.node_id
            else:
                raise ValidationError(f"unknown role {node.role!r}")
            self._nodes[node.node_id] = node

    def add_standby(self, node: Node) -> None:
        with self._lock:
            if node.node_id in self._nodes:
                raise ValidationError(f"duplicate node id {node.node_id}")
            self._nodes[node.node_id] = node
            pool = (
                self._standby_servers if node.role == "server" else self._standby_clients
            )
            pool.append(node.node_id)

    @property
    def active_server(self) -> str | None:
        return self._server

    def serving_node(self, client_id: str) -> str | None:
        return self._serving.get(client_id)

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ValidationError(f"unknown node {node_id}") from None

    def fail(self, node_id: str, round_index: int) -> FailoverAction:
        """Mark a node dead and promote a standby if one is available."""
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None:
                raise ValidationError(f"unknown node {node_id}")
            if not node.alive:
                raise ValidationError(f"node {node_id} already failed")
            node.alive = False
            for pool in (self._standby_servers, self._standby_clients):
                if node_id in pool:
                    pool.remove(node_id)
                    return FailoverAction("standby-lost", node_id, None, None, round_index)

            if node.role == "server":
                self._server = None
                if self._standby_servers:
                    replacement = self._standby_servers.pop(0)
                    self._nodes[replacement].role = "server"
                    self._server = replacement
                    return FailoverAction(
                        "server-swap", node_id, replacement, None, round_index
                    )
                return FailoverAction("server-lost", node_id, None, None, round_index)

            client_id = node.client_id
            del self._serving[client_id]
            if self._standby_clients:
                replacement = self._standby_clients.pop(0)
                standby = self._nodes[replacement]
                standby.client_id = client_id
                self._serving[client_id] = replacement
                return FailoverAction(
                    "client-swap", node_id, replacement, client_id, round_index
                )
            self._excluded_since[client_id] = round_index
            return FailoverAction(
                "client-excluded", node_id, None, client_id, round_index
            )

    def eligible_clients(self, round_index: int, all_ids: frozenset[str]) -> frozenset[str]:
        """Partitions still served at the given round."""
        dropped = {
            cid for cid, since in self._excluded_since.items() if round_index >= since
        }
        return all_ids - frozenset(dropped)

    @property
    def excluded(self) -> dict[str, int]:
        return dict(self._excluded_since)
