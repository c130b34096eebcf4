"""Scalar reference for the control plane: per-node forwarding dicts, the
full control fan-out, and the path-row control messages that one forwarding
entry per message replaced.

Used by the RAN and engine tests as an oracle for the batched
`ran.apply_control` and the array audit walk: one message object per
forwarding hop, one dict of next hops per node, and a hop-by-hop walk per
path, written with none of the production code's [slot, pair] arrays. The
full fan-out resends every multi-hop path on every tick, the oracle for the
controller's batches of changed paths. `PathControlBatch` and
`apply_path_control` are the earlier wire form, in which each message named
a row of a padded path matrix and the RAN searched it for the next hop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from reference_ids import NodeId
from v2xric import ControlBatch


def full_fan_out(diag) -> ControlBatch:
    """One tick's control batch when every multi-hop path is sent whatever
    the RAN holds: per relayed pair of the diagnostics `diag`, in pair order,
    one message per node before the destination, naming its next node."""
    target, pair, next_hop = [], [], []
    for k, hops in enumerate(diag.hops.tolist()):
        if hops < 2:
            continue
        path = diag.paths[k, : hops + 1].tolist()
        target += path[:-1]
        pair += [k] * hops
        next_hop += path[1:]
    return ControlBatch(target=np.array(target, dtype=np.int64),
                        pair=np.array(pair, dtype=np.int64),
                        next_hop=np.array(next_hop, dtype=np.int64))


def install_hops(forwarding: dict, n_nodes: int, n_pairs: int, batch: ControlBatch) -> int:
    """Install the batch's messages one by one, in order, into `forwarding`,
    keyed (node slot, pair index); return how many were dropped as malformed:
    a target or next hop outside slots 0..n_nodes-1, a pair outside
    0..n_pairs-1, or a node sent to itself."""
    errors = 0
    for node, pair, nxt in zip(batch.target.tolist(), batch.pair.tolist(),
                               batch.next_hop.tolist()):
        if 0 <= node < n_nodes and 0 <= nxt < n_nodes and 0 <= pair < n_pairs and nxt != node:
            forwarding[node, pair] = nxt
        else:
            errors += 1
    return errors


@dataclass(frozen=True, slots=True)
class PathControlBatch:
    """One control tick's forwarding messages in the path-row form: the
    multi-hop paths it installs (view slots from source to destination,
    padded with -1) with each one's index into the served pairs, then per
    message, which installs one hop, the target node's slot and the row of
    its path."""

    paths: np.ndarray  # (M, W) int64
    pair: np.ndarray  # (M,) int64
    target: np.ndarray  # (K,) int64
    path_row: np.ndarray  # (K,) int64

    def __len__(self) -> int:
        return len(self.target)


def apply_path_control(table: np.ndarray, batch: PathControlBatch) -> int:
    """Install every forwarding hop the path-row batch carries into the
    [slot, pair] table and return how many messages were dropped.

    Malformed messages (a path row outside the batch, a pair index outside
    the table's pairs, a target outside its slots, a target absent from its
    path, or the path's own destination) count as protocol errors and are
    dropped. When one batch installs the same (node, pair) twice, the later
    row wins.
    """
    n_nodes, n_pairs = table.shape
    m = len(batch.paths)
    # an all -1 row for messages naming no path, a -1 column past every path's end
    paths = np.pad(batch.paths, ((0, 1), (0, 1)), constant_values=-1)
    path_row = np.where((batch.path_row >= 0) & (batch.path_row < m), batch.path_row, m)
    rows, pair = paths[path_row], np.append(batch.pair, -1)[path_row]
    inside = (batch.target >= 0) & (batch.target < n_nodes) & (pair >= 0) & (pair < n_pairs)
    on_path = (rows == batch.target[:, None]) & inside[:, None]
    nxt = rows[np.arange(len(rows)), np.argmax(on_path, axis=1) + 1]
    ok = on_path.any(axis=1) & (nxt >= 0)
    slot, pair, nxt = batch.target[ok], pair[ok], nxt[ok]
    table[slot, pair] = nxt
    if (table[slot, pair] != nxt).any():
        # a (node, pair) repeats with different hops, and numpy leaves the
        # order of repeated writes open: write each key's later row again
        key = slot * n_pairs + pair
        order = np.argsort(key, kind="stable")
        last = order[np.diff(key[order], append=-1) != 0]
        table[slot[last], pair[last]] = nxt[last]
    return len(batch) - len(slot)


def split_hops(batch: PathControlBatch) -> ControlBatch:
    """The one-entry-per-message form of a sound path-row batch, message for
    message: each target with its path's pair and the node after it on the
    path."""
    rows = batch.paths[batch.path_row]
    col = np.argmax(rows == batch.target[:, None], axis=1)
    return ControlBatch(target=batch.target, pair=batch.pair[batch.path_row],
                        next_hop=rows[np.arange(len(rows)), col + 1])


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
