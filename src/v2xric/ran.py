"""RAN-side endpoints: node codes, measurement reports, forwarding control.

Every radio node (roadside unit or vehicle) emits periodic indication reports
toward the controller, all taken at one step in one batch, and applies
forwarding control messages. A node's integer code packs its kind and index
(`node_codes`, read back by `kinds`); all deterministic tie-breaking in the
system leans on code order. Reports and control name a node by its view
slot, its row among the run's ascending codes, so slot order is code order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import ConfigurationError
from .scenario import _INDEX_BITS, Fleet, RoadLayout


class NodeKind(IntEnum):
    RSU = 1
    CAV = 2


@dataclass(frozen=True, slots=True)
class IndicationBatch:
    """Every report taken at one step of the run, as columns: the reporters'
    view slots, then per measured link the reporter's slot, the neighbour's
    slot and the link's SNR in dB. A node's view slot is its row in the
    ascending `World.codes`. A reporter with no link still reports."""

    step: int
    reporters: np.ndarray  # (R,) int64
    source: np.ndarray  # (L,) int64
    neighbor: np.ndarray  # (L,) int64
    snr_db: np.ndarray  # (L,) float64


@dataclass(frozen=True, slots=True)
class ControlBatch:
    """One control tick's forwarding messages as columns, one forwarding
    entry each: the target node's view slot, the index of the served pair the
    entry serves and the target's next hop for that pair, a view slot. The
    controller sends the hops of the paths that changed."""

    target: np.ndarray  # (K,) int64
    pair: np.ndarray  # (K,) int64
    next_hop: np.ndarray  # (K,) int64

    def __len__(self) -> int:
        return len(self.target)


@dataclass(slots=True)
class World:
    """Everything a node can sense: geometry plus the radio endpoints on it.

    Endpoints are columns in code order: RSU k at mast top `rsus[k]`, then
    CAV k at fleet row k. `codes` are their `node_codes`, `body` the row of
    each one's own body among `boxes()`, -1 for an RSU; both are built once.
    `xyz()` and `boxes()` read the fleet as it stands."""

    layout: RoadLayout
    fleet: Fleet
    rsus: np.ndarray  # (R, 3) mast tops
    cav_antenna_height_m: float = 1.6
    codes: np.ndarray = field(init=False)
    body: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        r, n = len(self.rsus), len(self.fleet)
        if max(r, n) > 1 << _INDEX_BITS:
            raise ConfigurationError(f"a node index must stay below 2^{_INDEX_BITS}: {r} RSUs and "
                                     f"{n} vehicles, at most 2^{_INDEX_BITS} of each")
        self.codes = np.concatenate((node_codes(NodeKind.RSU, np.arange(r)),
                                     node_codes(NodeKind.CAV, np.arange(n))))
        self.body = np.concatenate((np.full(r, -1), np.arange(n)))

    def xyz(self) -> np.ndarray:
        """(endpoints, 3) antenna points: RSU mast tops, then vehicle roofs."""
        cav = np.hstack((self.fleet.xy(), np.full((len(self.fleet), 1), self.cav_antenna_height_m)))
        return np.vstack((self.rsus, cav))

    def boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Every blocker's (lo, hi) corners: vehicle bodies by row, then buildings."""
        lo, hi = self.fleet.boxes()
        return np.vstack((lo, self.layout.building_lo)), np.vstack((hi, self.layout.building_hi))


def node_codes(kind: NodeKind, index: np.ndarray) -> np.ndarray:
    """The int64 code of each node of `kind` at `index`; `kinds` inverts it."""
    return (int(kind) << _INDEX_BITS) | np.asarray(index, dtype=np.int64)


def kinds(codes: np.ndarray) -> np.ndarray:
    """The NodeKind value of each node code."""
    return np.asarray(codes) >> _INDEX_BITS


def emit_indication(reporters: np.ndarray, source: np.ndarray, neighbor: np.ndarray,
                    snr_db: np.ndarray, step: int,
                    measured_neighbors: int | None) -> IndicationBatch:
    """Build the reports taken at `step` from the reporters' slots
    and their measured links, each (source, neighbour) at most once. A
    reporter with more than `measured_neighbors` links keeps its strongest
    (ties broken by the smaller neighbour); None keeps every link. The
    links keep their given order."""
    source = np.asarray(source, dtype=np.int64)
    neighbor = np.asarray(neighbor, dtype=np.int64)
    snr_db = np.asarray(snr_db, dtype=np.float64)
    if measured_neighbors is not None:
        order = np.lexsort((neighbor, -snr_db, source))
        grouped = source[order]
        rank = np.arange(len(order)) - np.searchsorted(grouped, grouped)
        kept = np.zeros(len(order), dtype=bool)
        kept[order[rank < measured_neighbors]] = True
        source, neighbor, snr_db = source[kept], neighbor[kept], snr_db[kept]
    return IndicationBatch(step=step, reporters=np.asarray(reporters, dtype=np.int64),
                           source=source, neighbor=neighbor, snr_db=snr_db)


def forwarding_table(n_nodes: int, n_pairs: int) -> np.ndarray:
    """Every node's forwarding state, indexed [slot, pair]: the next hop's
    view slot as int32, -1 where no hop was ever set. Entries are keyed
    by the served pair, not by the destination alone: two assignments toward
    one destination through a shared relay would otherwise collide."""
    return np.full((n_nodes, n_pairs), -1, dtype=np.int32)


def apply_control(table: np.ndarray, batch: ControlBatch) -> int:
    """Install every forwarding entry the batch carries into the table and
    return the batch's acknowledgement: how many of its messages were dropped
    as protocol errors (a target or next hop outside the table's slots, a
    pair index outside its pairs, or a node forwarding to itself). When one
    batch installs the same (node, pair) twice, the later message wins."""
    n_nodes, n_pairs = table.shape
    slot, pair, nxt = batch.target, batch.pair, batch.next_hop
    ok = ((slot >= 0) & (slot < n_nodes) & (nxt >= 0) & (nxt < n_nodes) & (nxt != slot)
          & (pair >= 0) & (pair < n_pairs))
    slot, pair, nxt = slot[ok], pair[ok], nxt[ok]
    table[slot, pair] = nxt
    if (table[slot, pair] != nxt).any():
        # a (node, pair) repeats with different hops, and numpy leaves the
        # order of repeated writes open: write each key's later message again
        key = slot * n_pairs + pair
        order = np.argsort(key, kind="stable")
        last = order[np.diff(key[order], append=-1) != 0]
        table[slot[last], pair[last]] = nxt[last]
    return len(batch) - len(slot)


def delivered(table: np.ndarray, paths: np.ndarray, pair: np.ndarray) -> int:
    """Walk every multi-hop path, a row of view slots padded with -1 serving
    pair index `pair[row]`, through the table's forwarding entries, all
    paths at once, and count those that reach their destination in exactly
    their hop count without passing it on the way."""
    hops = np.count_nonzero(paths >= 0, axis=1) - 1
    destination = paths[np.arange(len(paths)), hops]
    cur, ok = paths[:, 0], np.ones(len(paths), dtype=bool)
    for k in range(int(hops.max(initial=0))):
        step = ok & (k < hops)
        nxt = table[cur, pair]
        ok &= ~(step & ((nxt < 0) | (cur == destination)))
        cur = np.where(step & ok, nxt, cur)
    return int(np.count_nonzero(ok & (cur == destination)))
