"""Scalar reference for the control plane: per-node forwarding dicts.

Used by the RAN and engine tests as an oracle for the batched
`ran.apply_control` and the array audit walk: one message object per
forwarding hop, one dict of entries per node, and a hop-by-hop walk per path,
written with none of the production code's [slot, pair] arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from v2xric import NodeId


@dataclass(frozen=True, slots=True)
class ControlMessage:
    """Install one forwarding hop of a relay assignment at `target`.

    `assignment` is anything exposing a `nodes` sequence of NodeId; `purpose`
    is the key of the pair it serves.
    """

    target: NodeId
    issued_at: float
    assignment: object
    purpose: object
    ttl_s: float = 0.5


@dataclass(frozen=True, slots=True)
class ForwardingEntry:
    destination: NodeId
    next_hop: NodeId
    installed_at: float
    expires_at: float


@dataclass(slots=True)
class NodeState:
    """Per-node control-plane state: forwarding table and error counters,
    keyed by the served pair (the message's purpose)."""

    node: NodeId
    forwarding: dict[object, ForwardingEntry] = field(default_factory=dict)
    protocol_errors: int = 0

    def route_for(self, purpose, t: float) -> NodeId | None:
        entry = self.forwarding.get(purpose)
        if entry is None or t > entry.expires_at:
            return None
        return entry.next_hop


def apply_control(state: NodeState, msg: ControlMessage, t: float) -> NodeState:
    """Install the forwarding hop carried by msg into the node's table.

    Malformed deliveries (wrong target, target absent from the path, or the
    path's own destination) count as protocol errors and are dropped; messages
    older than the installed entry are ignored.
    """
    path = tuple(msg.assignment.nodes)
    if msg.target != state.node or state.node not in path or state.node == path[-1]:
        state.protocol_errors += 1
        return state
    pos = path.index(state.node)
    entry = state.forwarding.get(msg.purpose)
    if entry is not None and msg.issued_at < entry.installed_at:
        return state  # out-of-date control, keep the newer route
    state.forwarding[msg.purpose] = ForwardingEntry(
        destination=path[-1],
        next_hop=path[pos + 1],
        installed_at=msg.issued_at,
        expires_at=msg.issued_at + msg.ttl_s,
    )
    return state


def audit_paths(node_states: dict[NodeId, NodeState], pair_paths, t: float) -> tuple[int, int]:
    """(paths checked, paths ok): walk every multi-hop assignment, given as
    (purpose, path) items, through the installed forwarding entries and
    confirm it reaches its destination in exactly its hop count."""
    checked = ok = 0
    for pair, path in pair_paths:
        if path.hops < 2:
            continue
        checked += 1
        cur = path.nodes[0]
        destination = path.nodes[-1]
        for _ in range(path.hops):
            nxt = node_states[cur].route_for(pair, t) if cur in node_states else None
            if nxt is None or cur == destination:
                cur = None
                break
            cur = nxt
        if cur == destination:
            ok += 1
    return checked, ok
