"""Whole-run reference composed of the test oracles.

Used by the run tests as an oracle for `engine.run_with_audit`: the same
records and audit from a slow, scalar run that wires the per-layer oracles
together on float time, with none of the engine's loop, arrays or clock:
- the schedule: `reference_schedule.schedule`'s report, ingest and tick
  events, with mobility advanced to each event's instant;
- mobility: `reference_mobility.step_mobility` on `VehicleState` lists;
- each link: `channel.pathloss_los`/`pathloss_nlos`, `reference_blockage`
  and `reference_outage`, measured in full with no report floor;
- reports and ingest: `reference_reports`, one report per node;
- the graph: `reference_graph`, whose freshness rule runs on seconds;
- paths: `reference_column_solve`, the float solve;
- control and audit: `reference_control`'s per-node tables, sent the hops
  of every multi-hop path on every tick, and `audit_paths`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np

import reference_layout
import reference_schedule
from reference_blockage import reference_segments_blocked
from reference_control import ControlMessage, NodeState, apply_control, audit_paths
from reference_graph import reference_graph
from reference_ids import NodeId
from reference_mobility import blocker_boxes, step_mobility, vehicles_of
from reference_outage import stochastic_blockage
from reference_paths import reference_column_solve
from reference_reports import RicState, emit_indication, ingest
from slot_adapter import Path
from v2xric import (AuditSummary, MetricsRecord, MobilityState, NodeKind, SimConfig,
                    noise_floor, pathloss_los, pathloss_nlos, spawn_vehicles)
from v2xric.channel import OUTAGE_PATHLOSS_DB
from v2xric.engine import _MATCH_TAG


def reporting_period_s(cfg: SimConfig) -> float:
    """The reporting period: the configured one, or the control period."""
    return cfg.control_period_s if cfg.reporting_period_s is None else cfg.reporting_period_s


def staleness_window_s(cfg: SimConfig) -> float:
    """The controller's window in seconds: the configured one, or one
    reporting cycle plus the control delay and one step."""
    if cfg.staleness_window_s is not None:
        return cfg.staleness_window_s
    return reporting_period_s(cfg) + cfg.control_delay_s + cfg.dt_s


def endpoints(cfg: SimConfig, rsus, vehicles) -> list[tuple[NodeId, tuple, int]]:
    """(node, antenna point, own body's blocker box or -1) per radio node, in
    NodeId order: the RSU masts, then the vehicle roofs."""
    height = cfg.world.cav_antenna_height_m
    return ([(NodeId(NodeKind.RSU, r.rid), (*r.position, r.mast_height_m), -1) for r in rsus]
            + [(NodeId(NodeKind.CAV, v.vid), (*v.position, height), k)
               for k, v in enumerate(vehicles)])


def measure(cfg: SimConfig, layout, rsus, vehicles, t: float) -> dict[NodeId, dict[NodeId, float]]:
    """Every link within sensing range at instant t: {node: {neighbour:
    snr_db}}, both directions, for every node."""
    params = cfg.channel
    ends = endpoints(cfg, rsus, vehicles)
    near = []
    for a, (u, pu, body_u) in enumerate(ends):
        for v, pv, body_v in ends[a + 1:]:
            dx, dy, dz = pu[0] - pv[0], pu[1] - pv[1], pu[2] - pv[2]
            distance = math.sqrt(dx * dx + dy * dy + dz * dz)
            if distance <= cfg.sensing_range_m:
                near.append((u, v, pu, pv, body_u, body_v, distance))
    blocked = [False] * len(near)
    if params.blockage_mode in ("geometric", "combined") and near:
        lo, hi = blocker_boxes(layout, vehicles)
        p0, p1, body_u, body_v = (np.array([link[k] for link in near]) for k in (2, 3, 4, 5))
        blocked = reference_segments_blocked(p0, p1, lo, hi, body_u, body_v).tolist()
    links: dict[NodeId, dict[NodeId, float]] = {node: {} for node, _, _ in ends}
    for (u, v, pu, pv, _, _, distance), block in zip(near, blocked):
        if block:
            pathloss = pathloss_nlos(distance, params.carrier_ghz, min(pu[2], pv[2]))
        else:
            pathloss = pathloss_los(distance, params.carrier_ghz)
        if (params.blockage_mode != "geometric" and params.p_b > 0.0
                and stochastic_blockage(params.p_b, (u, v), t, cfg.seed)):
            pathloss = OUTAGE_PATHLOSS_DB
        links[u][v] = links[v][u] = params.eirp_dbm - pathloss - noise_floor(params)
    return links


def reports(cfg: SimConfig, links, t: float) -> list:
    """One report per reporting node (every node, or the RSUs alone when
    `cav_terminations` is off), neighbours ascending, under the report cap."""
    return [emit_indication(node, [rx.code for rx in sorted(mine)],
                            [mine[rx] for rx in sorted(mine)], t, cfg.measured_neighbors)
            for node, mine in links.items() if cfg.cav_terminations or node.kind != NodeKind.CAV]


def served_pairs(cfg: SimConfig, cavs: list[NodeId]) -> list[tuple[NodeId, NodeId]]:
    """Every vehicle pair, or the seeded perfect matching, smaller node first,
    in ascending order."""
    if cfg.pair_selection == "all":
        return list(itertools.combinations(cavs, 2))
    order = np.random.default_rng([cfg.seed, _MATCH_TAG]).permutation(len(cavs)).tolist()
    return sorted(tuple(sorted((cavs[order[2 * k]], cavs[order[2 * k + 1]])))
                  for k in range(len(cavs) // 2))


def connectivity(cfg: SimConfig, pairs, ok: list[bool]) -> float:
    """The fraction of pairs that are ok, or of the vehicles in a pair that
    belong to an ok pair."""
    if cfg.metric_mode == "pairwise":
        return sum(ok) / len(pairs)
    happy = {node for pair, good in zip(pairs, ok) if good for node in pair}
    return len(happy) / len({node for pair in pairs for node in pair})


def tick(cfg: SimConfig, state: RicState, t: float, nodes: list[NodeId], pairs,
         node_states: dict, audit: AuditSummary) -> MetricsRecord:
    """One control tick: the graph of the fresh reports, every pair's widest
    path, every multi-hop path's hops installed node by node, and the audit
    of every multi-hop path."""
    _, edges = reference_graph(state, t, cfg.xapp.snr_min_db)
    slot = {node: k for k, node in enumerate(nodes)}
    adj = np.full((len(nodes), len(nodes)), -np.inf)
    for (u, v), snr in edges.items():
        adj[slot[u], slot[v]] = adj[slot[v], slot[u]] = snr
    s = np.array([slot[u] for u, _ in pairs], dtype=np.int64)
    d = np.array([slot[v] for _, v in pairs], dtype=np.int64)
    best, hops, steps, direct = reference_column_solve(adj, s, d, cfg.xapp.max_hops)
    hops, direct = hops.tolist(), direct.tolist()
    relayed = []
    for k, h in enumerate(hops):
        if h < 2:
            continue
        path = Path(float(best[k]), tuple(nodes[i] for i in steps[k, : h + 1].tolist()))
        for node in path.nodes[:-1]:
            apply_control(node_states.setdefault(node, NodeState(node)),
                          ControlMessage(target=node, assignment=path, purpose=k))
            audit.messages_total += 1
        relayed.append((k, path))
    checked, ok = audit_paths(node_states, relayed)
    audit.paths_checked += checked
    audit.paths_ok += ok
    served = [h > 0 for h in hops]
    feasible, n_direct = sum(served), sum(direct)
    return MetricsRecord(
        t=t, gamma_min_db=cfg.xapp.snr_min_db, p_b=cfg.channel.p_b,
        connectivity=connectivity(cfg, pairs, served), pairs_total=len(pairs),
        pairs_direct=n_direct, pairs_relayed=feasible - n_direct,
        mean_hops=sum(hops) / feasible if feasible else math.nan,
        direct_connectivity=connectivity(cfg, pairs, direct))


def scene(cfg: SimConfig) -> tuple:
    """The run's layout, its RSUs and its vehicles at the first step."""
    layout = cfg.world.layout()
    rsus = reference_layout.rsus(layout.road_width_m, layout.building_setback_m,
                                 cfg.world.rsu_mast_height_m)
    return layout, rsus, vehicles_of(spawn_vehicles(layout, replace(cfg.traffic, seed=cfg.seed)))


def reference_run(cfg: SimConfig) -> tuple[list[MetricsRecord], AuditSummary]:
    """The run's per-control-tick records and control audit."""
    layout, rsus, vehicles = scene(cfg)
    mobility = MobilityState.from_seed(cfg.seed, cfg.traffic.turn_probability)
    nodes = [node for node, _, _ in endpoints(cfg, rsus, vehicles)]
    pairs = served_pairs(cfg, [node for node in nodes if node.kind == NodeKind.CAV])
    state = RicState(staleness_window_s=staleness_window_s(cfg))
    taken: dict[float, list] = {}  # report instant -> its reports, in flight
    node_states: dict[NodeId, NodeState] = {}
    records, audit, now = [], AuditSummary(), 0
    for kind, t in reference_schedule.schedule(cfg.duration_s, cfg.dt_s, cfg.control_period_s,
                                               reporting_period_s(cfg), cfg.control_delay_s):
        while round(now * cfg.dt_s, 9) < t:
            vehicles = step_mobility(vehicles, layout, cfg.dt_s, mobility)
            now += 1
        if kind == "report":
            taken[t] = reports(cfg, measure(cfg, layout, rsus, vehicles, t), t)
        elif kind == "ingest":
            for report in taken.pop(t):
                ingest(state, report)
        else:
            records.append(tick(cfg, state, t, nodes, pairs, node_states, audit))
    audit.protocol_errors = sum(node.protocol_errors for node in node_states.values())
    return records, audit
