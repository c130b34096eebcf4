"""Scalar reference for the control plane: per-node forwarding dicts, and
the full control fan-out.

Used by the RAN and engine tests as an oracle for the batched
`ran.apply_control` and the array audit walk: one message object per
forwarding hop, one dict of next hops per node, and a hop-by-hop walk per
path, written with none of the production code's [slot, pair] arrays. The
full fan-out resends every multi-hop path on every tick, the oracle for the
controller's batches of changed paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from reference_ids import NodeId
from v2xric import ControlBatch


def full_fan_out(diag) -> ControlBatch:
    """One tick's control batch when every multi-hop path is sent whatever
    the RAN holds: per relayed pair of the diagnostics `diag`, in pair order,
    its path row and one message per node before the destination."""
    paths, pair, target, path_row = [], [], [], []
    for k, hops in enumerate(diag.hops.tolist()):
        if hops < 2:
            continue
        for node in diag.paths[k, :hops].tolist():
            target.append(node)
            path_row.append(len(paths))
        paths.append(diag.paths[k])
        pair.append(k)
    return ControlBatch(
        paths=np.array(paths, dtype=np.int64).reshape(len(paths), diag.paths.shape[1]),
        pair=np.array(pair, dtype=np.int64), target=np.array(target, dtype=np.int64),
        path_row=np.array(path_row, dtype=np.int64))


@dataclass(frozen=True, slots=True)
class ControlMessage:
    """Install one forwarding hop of a relay assignment at `target`.

    `assignment` is anything exposing a `nodes` sequence of NodeId; `purpose`
    is the key of the pair it serves.
    """

    target: NodeId
    assignment: object
    purpose: object


@dataclass(slots=True)
class NodeState:
    """Per-node control-plane state: next hop per served pair (the message's
    purpose) and error counters."""

    node: NodeId
    forwarding: dict[object, NodeId] = field(default_factory=dict)
    protocol_errors: int = 0

    def route_for(self, purpose) -> NodeId | None:
        return self.forwarding.get(purpose)


def apply_control(state: NodeState, msg: ControlMessage) -> NodeState:
    """Install the forwarding hop carried by msg into the node's table.

    Malformed deliveries (wrong target, target absent from the path, or the
    path's own destination) count as protocol errors and are dropped.
    """
    path = tuple(msg.assignment.nodes)
    if msg.target != state.node or state.node not in path or state.node == path[-1]:
        state.protocol_errors += 1
        return state
    state.forwarding[msg.purpose] = path[path.index(state.node) + 1]
    return state


def audit_paths(node_states: dict[NodeId, NodeState], pair_paths) -> tuple[int, int]:
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
            nxt = node_states[cur].route_for(pair) if cur in node_states else None
            if nxt is None or cur == destination:
                cur = None
                break
            cur = nxt
        if cur == destination:
            ok += 1
    return checked, ok
