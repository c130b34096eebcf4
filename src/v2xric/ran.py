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

from . import channel
from .errors import ConfigurationError
from .scenario import RoadLayout, RsuNode, VehicleState

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
    """Reporting contract for one node: cadence and report size cap."""

    subscriber: NodeId
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
    position: tuple[float, float, float]
    neighbors: np.ndarray
    snr_db: np.ndarray


@dataclass(frozen=True, slots=True)
class ControlMessage:
    """Install one forwarding hop of a relay assignment at `target`.

    `assignment` is the controller's path object (anything exposing a `nodes`
    sequence of NodeId); `purpose` is the source-destination pair it serves.
    """

    target: NodeId
    issued_at: float
    assignment: object
    purpose: tuple[NodeId, NodeId]
    ttl_s: float = 0.5


@dataclass(frozen=True, slots=True)
class ForwardingEntry:
    destination: NodeId
    next_hop: NodeId
    installed_at: float
    expires_at: float


@dataclass(slots=True)
class NodeState:
    """Per-node control-plane state: forwarding table and error counters.

    The table is keyed by the served pair (the message's purpose), not by the
    destination alone: two assignments toward the same destination through a
    shared relay would otherwise overwrite each other's next hop.
    """

    node: NodeId
    forwarding: dict[tuple[NodeId, NodeId], ForwardingEntry] = field(default_factory=dict)
    protocol_errors: int = 0

    def route_for(self, purpose: tuple[NodeId, NodeId], t: float) -> NodeId | None:
        entry = self.forwarding.get(purpose)
        if entry is None or t > entry.expires_at:
            return None
        return entry.next_hop


@dataclass(slots=True)
class World:
    """Everything a node can sense: geometry plus the radio endpoints on it."""

    layout: RoadLayout
    vehicles: list[VehicleState]
    rsus: list[RsuNode]
    cav_antenna_height_m: float = 1.6

    def antennas(self) -> list[channel.Antenna]:
        """All endpoints in NodeId order (RSUs then CAVs)."""
        out = [
            channel.Antenna(
                node=NodeId(NodeKind.RSU, r.rid),
                xyz=(r.position[0], r.position[1], r.mast_height_m),
            )
            for r in self.rsus
        ]
        h = self.cav_antenna_height_m
        out.extend(
            channel.Antenna(
                node=NodeId(NodeKind.CAV, v.vid),
                xyz=(v.position[0], v.position[1], h),
                vehicle_index=i,
            )
            for i, v in enumerate(self.vehicles)
        )
        return out


def report_due(t: float, reporting_period_s: float, dt: float) -> bool:
    """True when t is a multiple of the reporting period to within dt/2."""
    nearest = round(t / reporting_period_s) * reporting_period_s
    return abs(t - nearest) < 0.5 * dt


def emit_indication(node: NodeId, position_xyz: tuple[float, float, float],
                    neighbors: np.ndarray, snr_db: np.ndarray, t: float,
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
    return IndicationReport(source=node, t=t, position=position_xyz,
                            neighbors=neighbors, snr_db=snr_db)


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
