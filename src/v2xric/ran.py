"""RAN-side endpoints: node identities, measurement reports, forwarding control.

Every radio node (roadside unit or vehicle) emits periodic indication reports
toward the controller and applies forwarding control messages. Nodes are
identified by a totally ordered NodeId; all deterministic tie-breaking in the
system leans on that order.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import ConfigurationError
from .scenario import Fleet, RoadLayout, RsuNode

_INDEX_BITS = 20  # NodeId.index must fit so (kind, index) packs into a link key


class NodeKind(IntEnum):
    BS = 0
    RSU = 1
    CAV = 2


class NodeId(namedtuple("NodeId", "kind index")):
    """Total order is (kind, index); `code` packs both into one integer.

    A tuple underneath, so the hashing, equality and ordering that every
    table, graph and forwarding lookup leans on run at C speed.
    """

    __slots__ = ()

    def __new__(cls, kind: NodeKind, index: int) -> "NodeId":
        if not (0 <= index < (1 << _INDEX_BITS)):
            raise ConfigurationError(f"node index out of range [0, 2^20): {index}")
        return super().__new__(cls, kind, index)

    @property
    def code(self) -> int:
        return (int(self.kind) << _INDEX_BITS) | self.index

    @classmethod
    def from_code(cls, code: int) -> "NodeId":
        """The NodeId whose `code` is `code`."""
        code = int(code)
        return cls(NodeKind(code >> _INDEX_BITS), code & ((1 << _INDEX_BITS) - 1))

    def __str__(self) -> str:
        return f"{self.kind.name}-{self.index}"


@dataclass(frozen=True, slots=True)
class SubscriptionRequest:
    """Reporting contract for every node: cadence and report size cap."""

    reporting_period_s: float = 0.1
    measured_neighbors: int | None = None  # None = no truncation

    def validate(self, dt: float | None = None) -> "SubscriptionRequest":
        if not (0.001 <= self.reporting_period_s <= 1.0):
            raise ConfigurationError(
                f"reporting_period_s out of range [0.001, 1]: {self.reporting_period_s}")
        if dt is not None and self.reporting_period_s < dt:
            raise ConfigurationError(
                f"reporting_period_s {self.reporting_period_s} below simulation dt {dt}")
        if self.measured_neighbors is not None and self.measured_neighbors < 1:
            raise ConfigurationError(
                f"measured_neighbors must be >= 1 or None: {self.measured_neighbors}")
        return self


@dataclass(frozen=True, slots=True)
class IndicationReport:
    """One node's link measurements at instant t, as columns: the measured
    neighbours' NodeId codes (int64, ascending) and each link's SNR in dB."""

    source: NodeId
    t: float
    neighbors: np.ndarray
    snr_db: np.ndarray


@dataclass(frozen=True, slots=True)
class ControlBatch:
    """One control tick's forwarding messages as columns: the multi-hop paths
    (NodeId codes from source to destination, padded with -1) with each one's
    index into the served pairs, then per message, which installs one hop,
    the target node's code and the row of its path."""

    paths: np.ndarray  # (M, max_hops + 1) int64
    pair: np.ndarray  # (M,) int64
    target: np.ndarray  # (K,) int64
    path_row: np.ndarray  # (K,) int64
    issued_at: float

    def __len__(self) -> int:
        return len(self.target)


@dataclass(slots=True)
class ForwardingTable:
    """Every node's forwarding state, indexed [slot, pair], slots in ascending
    code order; `next_hop` is int32 (NodeId codes stay below 3 << 20) and -1
    where nothing was ever installed. Entries are keyed by the served pair, not
    by the destination alone: two assignments toward one destination through a
    shared relay would otherwise collide. Every entry lives `ttl_s` past the
    issue time of the control that installed it."""

    codes: np.ndarray
    next_hop: np.ndarray
    installed_at: np.ndarray
    ttl_s: float
    protocol_errors: int = 0

    @classmethod
    def empty(cls, codes: np.ndarray, n_pairs: int, ttl_s: float) -> "ForwardingTable":
        codes = np.asarray(codes, dtype=np.int64)
        if len(codes) == 0 or (np.diff(codes) <= 0).any():
            raise ConfigurationError("forwarding table needs ascending, distinct node codes")
        shape = (len(codes), n_pairs)
        return cls(codes=codes, next_hop=np.full(shape, -1, dtype=np.int32),
                   installed_at=np.full(shape, -np.inf), ttl_s=ttl_s)

    def slots(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slot of each node code, and whether the table holds that node at all."""
        slot = np.minimum(np.searchsorted(self.codes, nodes), len(self.codes) - 1)
        return slot, self.codes[slot] == nodes

    def next_hops(self, nodes: np.ndarray, pair: np.ndarray, t: float) -> np.ndarray:
        """Live next hop of each node for its pair at t (an entry lives while
        t <= installed_at + ttl_s); -1 where there is none or the node is unknown."""
        slot, known = self.slots(nodes)
        live = known & (t <= self.installed_at[slot, pair] + self.ttl_s)
        return np.where(live, self.next_hop[slot, pair], -1)


@dataclass(slots=True)
class World:
    """Everything a node can sense: geometry plus the radio endpoints on it.

    Endpoints are columns in NodeId order, the RSUs as listed (ascending
    `rid`), then the CAVs by fleet row: `nodes` and `codes` are their
    identities, `body` the row of each one's own body among `boxes()`, -1 for
    an RSU. These and the building boxes are built once; `xyz()` and
    `boxes()` read the fleet as it stands."""

    layout: RoadLayout
    fleet: Fleet
    rsus: list[RsuNode]
    cav_antenna_height_m: float = 1.6
    nodes: tuple[NodeId, ...] = field(init=False)
    codes: np.ndarray = field(init=False)
    body: np.ndarray = field(init=False)
    _rsu_xyz: np.ndarray = field(init=False)
    _building_boxes: tuple[np.ndarray, np.ndarray] = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.fleet)
        self.nodes = (*(NodeId(NodeKind.RSU, r.rid) for r in self.rsus),
                      *(NodeId(NodeKind.CAV, k) for k in range(n)))
        self.codes = np.array([node.code for node in self.nodes], dtype=np.int64)
        self.body = np.concatenate((np.full(len(self.rsus), -1), np.arange(n)))
        self._rsu_xyz = np.array([(*r.position, r.mast_height_m) for r in self.rsus],
                                 dtype=np.float64).reshape(-1, 3)
        buildings = np.array([(b.x0, b.y0, 0.0, b.x1, b.y1, b.height)
                              for b in self.layout.buildings], dtype=np.float64).reshape(-1, 6)
        self._building_boxes = (buildings[:, :3], buildings[:, 3:])

    def xyz(self) -> np.ndarray:
        """(endpoints, 3) antenna points: RSU mast tops, then vehicle roofs."""
        cav = np.hstack((self.fleet.xy(), np.full((len(self.fleet), 1), self.cav_antenna_height_m)))
        return np.vstack((self._rsu_xyz, cav))

    def boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Every blocker's (lo, hi) corners: vehicle bodies by row, then buildings."""
        (lo, hi), (b_lo, b_hi) = self.fleet.boxes(), self._building_boxes
        return np.vstack((lo, b_lo)), np.vstack((hi, b_hi))


def report_due(t: float, reporting_period_s: float, dt: float) -> bool:
    """True when t is a multiple of the reporting period to within dt/2."""
    nearest = round(t / reporting_period_s) * reporting_period_s
    return abs(t - nearest) < 0.5 * dt


def emit_indication(node: NodeId, neighbors: np.ndarray, snr_db: np.ndarray, t: float,
                    subscription: SubscriptionRequest) -> IndicationReport:
    """Build the report for a report instant (the caller checks `report_due`)
    from neighbour codes in ascending order and their link SNRs. Reports
    larger than the subscription cap keep the strongest links (ties broken by
    the smaller neighbour), still in neighbour order."""
    neighbors = np.asarray(neighbors, dtype=np.int64)
    snr_db = np.asarray(snr_db, dtype=np.float64)
    cap = subscription.measured_neighbors
    if cap is not None and len(neighbors) > cap:
        kept = np.sort(np.lexsort((neighbors, -snr_db))[:cap])
        neighbors, snr_db = neighbors[kept], snr_db[kept]
    return IndicationReport(source=node, t=t, neighbors=neighbors, snr_db=snr_db)


def apply_control(table: ForwardingTable, batch: ControlBatch, t: float) -> ForwardingTable:
    """Install every forwarding hop the batch carries into the table.

    Malformed messages (a target the table does not hold, a target absent
    from its path, or the path's own destination) count as protocol errors
    and are dropped; messages older than the installed entry are ignored.
    When one batch installs the same (node, pair) twice, the later row wins.
    """
    slot, known = table.slots(batch.target)
    rows = np.pad(batch.paths[batch.path_row], ((0, 0), (0, 1)), constant_values=-1)
    on_path = rows == batch.target[:, None]
    nxt = rows[np.arange(len(rows)), np.argmax(on_path, axis=1) + 1]
    ok = known & on_path.any(axis=1) & (nxt >= 0)
    table.protocol_errors += len(batch) - int(np.count_nonzero(ok))
    slot, pair, nxt = slot[ok], batch.pair[batch.path_row[ok]], nxt[ok]
    current = batch.issued_at >= table.installed_at[slot, pair]
    key = (slot * table.next_hop.shape[1] + pair)[current]
    order = np.argsort(key, kind="stable")
    keep = np.nonzero(current)[0][order[np.diff(key[order], append=-1) != 0]]
    slot, pair = slot[keep], pair[keep]
    table.next_hop[slot, pair] = nxt[keep]
    table.installed_at[slot, pair] = batch.issued_at
    return table
