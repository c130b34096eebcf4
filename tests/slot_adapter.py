"""Slot <-> NodeId code adapter for tests that speak in NodeIds.

Reports, control, the served pairs, the controller graph and its paths name
each node by its view slot, its row in the run's ascending NodeId codes. Tests
that build batches or pairs from NodeIds, read a graph's SNR matrix or a path
by NodeId, or compare either with the per-node oracles, translate through
these helpers.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from reference_ids import NodeId
from v2xric import ric
from v2xric.ric import _edge_ranks, _widest_paths


def slots_of(codes, nodes) -> np.ndarray:
    """The view slot of each NodeId code in `nodes` over the ascending
    `codes`: -1 stays -1 (padding), and a code the view does not hold maps to
    len(codes), outside the view."""
    codes = np.asarray(codes, dtype=np.int64)
    nodes = np.asarray(nodes, dtype=np.int64)
    slot = np.searchsorted(codes, nodes)
    held = np.append(codes, -2)[slot] == nodes
    return np.where(nodes < 0, -1, np.where(held, slot, len(codes)))


def codes_of(codes, slots) -> np.ndarray:
    """The NodeId code of each view slot; -1 stays -1."""
    slots = np.asarray(slots, dtype=np.int64)
    return np.where(slots < 0, -1, np.append(codes, -1)[slots])


def indication_slots(batch, codes):
    """An IndicationBatch that names nodes by code, renamed by view slot."""
    return replace(batch, reporters=slots_of(codes, batch.reporters),
                   source=slots_of(codes, batch.source), neighbor=slots_of(codes, batch.neighbor))


def indication_codes(batch, codes):
    """An IndicationBatch that names nodes by view slot, renamed by code."""
    return replace(batch, reporters=codes_of(codes, batch.reporters),
                   source=codes_of(codes, batch.source), neighbor=codes_of(codes, batch.neighbor))


def control_slots(batch, codes):
    """A ControlBatch that names nodes by code, renamed by view slot."""
    return replace(batch, target=slots_of(codes, batch.target),
                   next_hop=slots_of(codes, batch.next_hop))


def pair_slots(codes, pairs) -> np.ndarray:
    """The served pairs as RicState takes them: (P, 2) view slots of the
    (NodeId, NodeId) `pairs`; a node the view does not hold maps to
    len(codes)."""
    ends = [(u.code, v.code) for u, v in pairs]
    return slots_of(codes, np.array(ends, dtype=np.int64).reshape(len(ends), 2))


def graph_nodes(codes) -> tuple[NodeId, ...]:
    """A graph's nodes, its ascending `codes`, as NodeIds in slot order."""
    return tuple(map(NodeId.from_code, np.asarray(codes).tolist()))


def edge_snr(codes, snr, u, v) -> float:
    """SNR of the u-v edge of the graph `snr` over `codes`, -inf when there is
    none (also when u or v is not a node of the graph)."""
    a, b = slots_of(codes, [u.code, v.code]).tolist()
    if len(codes) in (a, b):
        return -math.inf
    return float(snr[a, b])


def has_edge(codes, snr, u, v) -> bool:
    return edge_snr(codes, snr, u, v) > -math.inf


class Path(NamedTuple):
    """A path's bottleneck SNR and its nodes, in the oracles' (bottleneck,
    node tuple) form."""

    bottleneck_snr_db: float
    nodes: tuple[NodeId, ...]

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1


def path_of(codes, row, bottleneck) -> Path:
    """The path along a -1 padded row of view slots, named by NodeIds."""
    return Path(float(bottleneck), graph_nodes(np.asarray(codes)[row[row >= 0]]))


def widest_path(codes, snr, s, d, max_hops, snr_min_db) -> Path | None:
    """The controller's widest s-d path on the graph `snr` over `codes`, with
    at most max_hops edges all at or above snr_min_db, or None: one pair of
    `ric._widest_paths` on a block of one tick. A node the graph does not
    hold maps to an added edgeless row, which no path reaches."""
    adj = np.pad(np.where(snr >= snr_min_db, snr, -np.inf), (0, 1), constant_values=-np.inf)
    s, d = slots_of(codes, [s.code, d.code])
    best, hops, rows, _ = _widest_paths(*_edge_ranks(adj[None]), np.array([s]), np.array([d]),
                                        max_hops)
    return path_of(codes, rows[0, 0], best[0, 0]) if hops[0, 0] else None


def solve_tick(view, step, pairs, max_hops, gammas):
    """`ric.solve` on a block of one tick: the view's tick at `step` as it
    stands, solved at `gammas[0]`."""
    tick = (step, ric.build_graph(view, step, gammas[0]), view.reported_at >= 0)
    return next(ric.solve([tick], pairs, max_hops, gammas))


def on_road(layout, x: float, y: float) -> bool:
    """Whether the point lies on either road of the layout, edges included."""
    half_w = layout.road_width_m / 2.0
    a = layout.arm_length_m
    return (abs(y) <= half_w and abs(x) <= a) or (abs(x) <= half_w and abs(y) <= a)
