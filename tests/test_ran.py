"""RAN endpoint tests: identities, neighbor sensing, reporting, forwarding control."""

import numpy as np
import pytest

import reference_control
from reference_mobility import VehicleState, fleet_of
from v2xric import (AuditSummary, ChannelParams, ConfigurationError, ControlBatch,
                    ForwardingTable, NodeId, NodeKind, RelayPath, SimConfig,
                    SubscriptionRequest, World, apply_control, build_intersection,
                    default_rsus, emit_indication, link_table, ran, report_due, run)
from v2xric.engine import _audit, _collect_reports
from v2xric.scenario import CAR_EXTENT


def cav(i):
    return NodeId(NodeKind.CAV, i)


def world_with_cavs(xs, rsus=()):
    layout = build_intersection(200.0, 14.0)
    vehicles = [
        VehicleState(vid=k, position=(x, -3.5), heading=(1.0, 0.0),
                     speed_mps=14.0, extent=CAR_EXTENT)
        for k, x in enumerate(xs)
    ]
    return World(layout=layout, fleet=fleet_of(vehicles), rsus=list(rsus))


def measure_world(world, seed=1, **selection):
    """The world's link table at t = 0."""
    return link_table(ChannelParams(), world.xyz(), world.codes, world.body, world.boxes(),
                      0.0, seed, **selection)


# --- identities ------------------------------------------------------------------


def test_node_id_total_order():
    assert NodeId(NodeKind.BS, 0) < NodeId(NodeKind.RSU, 0) < NodeId(NodeKind.RSU, 5) < cav(0)
    assert cav(2) < cav(10)
    assert sorted([cav(1), NodeId(NodeKind.RSU, 3), NodeId(NodeKind.BS, 0)]) == [
        NodeId(NodeKind.BS, 0), NodeId(NodeKind.RSU, 3), cav(1)]


def test_node_id_code_and_str():
    assert cav(3).code == (2 << 20) | 3
    assert NodeId(NodeKind.RSU, 7).code == (1 << 20) | 7
    assert str(cav(3)) == "CAV-3"
    assert str(NodeId(NodeKind.RSU, 0)) == "RSU-0"


@pytest.mark.parametrize("kind", list(NodeKind))
@pytest.mark.parametrize("index", [0, 1, 12345, (1 << 20) - 1])
def test_node_id_from_code_round_trips(kind, index):
    node = NodeId(kind, index)
    back = NodeId.from_code(node.code)
    assert back == node
    assert back.kind is kind
    assert NodeId.from_code(np.int64(node.code)) == node


def test_node_index_bounds():
    with pytest.raises(ConfigurationError):
        NodeId(NodeKind.CAV, 1 << 20)
    with pytest.raises(ConfigurationError):
        NodeId(NodeKind.CAV, -1)


def test_world_antennas_in_node_order():
    layout = build_intersection(200.0, 14.0)
    world = world_with_cavs([0.0, 10.0], rsus=default_rsus(layout))
    kinds = list(world.nodes)
    assert kinds == sorted(kinds)
    assert [node.kind for node in world.nodes[:4]] == [NodeKind.RSU] * 4
    assert world.codes.tolist() == [node.code for node in world.nodes]
    xyz = world.xyz()
    assert xyz[:4].tolist() == [[*r.position, 6.0] for r in default_rsus(layout)]
    assert xyz[4:].tolist() == [[0.0, -3.5, 1.6], [10.0, -3.5, 1.6]]
    assert world.body.tolist() == [-1] * 4 + [0, 1]
    # every vehicle body, in row order, then every building
    lo, hi = world.boxes()
    assert lo[:2].tolist() == [[-2.5, -4.5, 0.0], [7.5, -4.5, 0.0]]
    assert hi[:2].tolist() == [[2.5, -2.5, 1.6], [12.5, -2.5, 1.6]]
    assert lo[2:].tolist() == [[b.x0, b.y0, 0.0] for b in layout.buildings]
    assert hi[2:].tolist() == [[b.x1, b.y1, b.height] for b in layout.buildings]


# --- sensing ---------------------------------------------------------------------
# Nodes sense through one in-range link table per report instant, which the
# engine splits into per-node reports.


def reports_by_source(world, sensing_range_m=300.0):
    cfg = SimConfig(sensing_range_m=sensing_range_m)
    subscription = SubscriptionRequest()
    return {r.source: r for r in _collect_reports(world, cfg, 0.0, subscription)}


def neighbors_of(report):
    return [NodeId.from_code(c) for c in report.neighbors.tolist()]


def test_isolated_node_senses_nothing():
    world = world_with_cavs([0.0])
    report = reports_by_source(world)[cav(0)]
    assert neighbors_of(report) == []
    assert report.neighbors.dtype == np.int64 and report.snr_db.dtype == np.float64
    assert len(report.snr_db) == 0


def test_neighbors_sorted_by_node_id():
    world = world_with_cavs([0.0, 20.0, 40.0])
    reports = reports_by_source(world)
    assert neighbors_of(reports[cav(1)]) == [cav(0), cav(2)]
    # each link's SNR is the one the link table measured, in both reports
    tab = measure_world(world, SimConfig().seed, max_range=300.0)
    snr = {(int(i), int(j)): s for i, j, s in zip(tab.i, tab.j, tab.snr_db)}
    assert reports[cav(1)].snr_db.tolist() == [snr[(0, 1)], snr[(1, 2)]]
    assert reports[cav(0)].snr_db.tolist() == [snr[(0, 1)], snr[(0, 2)]]
    assert reports[cav(2)].snr_db.tolist() == [snr[(0, 2)], snr[(1, 2)]]


def test_sensing_range_boundary_inclusive():
    world = world_with_cavs([0.0, 150.0])
    within = measure_world(world, max_range=150.0)
    assert [(int(i), int(j)) for i, j in zip(within.i, within.j)] == [(0, 1)]
    beyond = measure_world(world, max_range=149.99)
    assert len(beyond.i) == 0
    assert neighbors_of(reports_by_source(world, 150.0)[cav(0)]) == [cav(1)]
    assert neighbors_of(reports_by_source(world, 149.99)[cav(0)]) == []


def test_infrastructure_only_reports_come_from_rsus():
    layout = build_intersection(200.0, 14.0)
    world = world_with_cavs([0.0, 20.0], rsus=default_rsus(layout))
    cfg = SimConfig(cav_terminations=False)
    subscription = SubscriptionRequest()
    reports = _collect_reports(world, cfg, 0.0, subscription)
    assert [r.source for r in reports] == [NodeId(NodeKind.RSU, k) for k in range(4)]
    assert all(cav(0).code in r.neighbors for r in reports)


# --- reporting cadence -----------------------------------------------------------


def test_report_due_on_period_multiples():
    dues = [round(0.1 * k, 9) for k in range(31) if report_due(round(0.1 * k, 9), 0.5, 0.1)]
    assert dues == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]


def test_report_due_survives_float_tick_accumulation():
    # 0.3 is not exactly representable; the cadence must still fire every 3 ticks
    dues = sum(report_due(round(0.1 * k, 9), 0.3, 0.1) for k in range(30))
    assert dues == 10


def test_emit_indication_called_only_on_cadence(monkeypatch):
    # the engine gates reports on the cadence: no indication off it
    emitted_at = []

    def spy(node, neighbors, snr_db, t, subscription):
        emitted_at.append(t)
        return emit_indication(node, neighbors, snr_db, t, subscription)

    monkeypatch.setattr(ran, "emit_indication", spy)
    run(SimConfig(duration_s=1.2, warmup_s=0.0, seed=2, reporting_period_s=0.5))
    assert emitted_at
    assert sorted(set(emitted_at)) == [0.0, 0.5, 1.0]


def emit(links, cap=None):
    """links: (neighbour, snr_db) in neighbour order."""
    sub = SubscriptionRequest(reporting_period_s=0.1, measured_neighbors=cap)
    return emit_indication(cav(0), [rx.code for rx, _ in links],
                           [snr for _, snr in links], 0.3, sub)


def test_emit_indication_caps_to_strongest_links():
    report = emit([(cav(1), 10.0), (cav(2), 8.0), (cav(3), 1.0), (cav(4), 8.0),
                   (cav(5), 8.0)], cap=3)
    # strongest first on SNR, equal SNRs keep the smaller neighbor ids,
    # and the final report is in neighbor order
    assert neighbors_of(report) == [cav(1), cav(2), cav(4)]
    assert report.snr_db.tolist() == [10.0, 8.0, 8.0]
    assert report.source == cav(0)
    assert report.t == 0.3


def test_emit_indication_without_cap_keeps_everything():
    report = emit([(cav(1), -5.0), (cav(2), 3.0)])
    assert neighbors_of(report) == [cav(1), cav(2)]
    assert report.snr_db.tolist() == [-5.0, 3.0]


@pytest.mark.parametrize("kwargs,dt", [
    (dict(reporting_period_s=0.0005), None),
    (dict(reporting_period_s=2.0), None),
    (dict(reporting_period_s=0.05), 0.1),
    (dict(measured_neighbors=0), None),
])
def test_subscription_validation(kwargs, dt):
    with pytest.raises(ConfigurationError):
        SubscriptionRequest(**kwargs).validate(dt)


# --- forwarding control ----------------------------------------------------------


def relay_batch(target, issued_at=1.0, nodes=(0, 5, 9), pair=0):
    """One message installing `target`'s hop of the path `nodes` for `pair`."""
    return ControlBatch(paths=np.array([[cav(i).code for i in nodes]], dtype=np.int64),
                        pair=np.array([pair]), target=np.array([target.code]),
                        path_row=np.array([0]), issued_at=issued_at)


def table_of(*indices, n_pairs=2, ttl=0.5):
    return ForwardingTable.empty([cav(i).code for i in indices], n_pairs, ttl)


def route(table, node, pair, t):
    [code] = table.next_hops(np.array([node.code]), np.array([pair]), t).tolist()
    return None if code < 0 else NodeId.from_code(code)


def test_apply_control_installs_next_hop():
    table = table_of(0, 5, 9)
    apply_control(table, relay_batch(cav(0)), 1.0)
    assert table.protocol_errors == 0
    assert table.next_hop[0, 0] == cav(5).code
    assert table.installed_at[0, 0] == 1.0
    assert table.installed_at[0, 0] + table.ttl_s == 1.5
    assert route(table, cav(0), 0, 1.4) == cav(5)
    assert route(table, cav(0), 0, 1.6) is None  # expired
    assert route(table, cav(0), 1, 1.4) is None  # another pair


def test_apply_control_middle_hop():
    table = table_of(0, 5, 9)
    apply_control(table, relay_batch(cav(5)), 1.0)
    assert route(table, cav(5), 0, 1.0) == cav(9)


def test_apply_control_rejects_wrong_target():
    table = table_of(5, 9)  # holds no cav(0)
    apply_control(table, relay_batch(cav(0)), 1.0)
    assert table.protocol_errors == 1
    assert (table.next_hop == -1).all()


def test_apply_control_rejects_node_not_on_path():
    table = table_of(0, 5, 7, 9)
    apply_control(table, relay_batch(cav(7)), 1.0)
    assert table.protocol_errors == 1
    assert (table.next_hop == -1).all()


def test_apply_control_rejects_destination_target():
    table = table_of(0, 5, 9)
    apply_control(table, relay_batch(cav(9)), 1.0)
    assert table.protocol_errors == 1
    assert (table.next_hop == -1).all()


def test_stale_control_keeps_newer_route():
    table = table_of(0, 3, 5, 9)
    apply_control(table, relay_batch(cav(0), issued_at=1.0, nodes=(0, 5, 9)), 1.0)
    apply_control(table, relay_batch(cav(0), issued_at=0.5, nodes=(0, 3, 9)), 1.0)
    assert table.protocol_errors == 0  # stale is silently ignored, not an error
    assert route(table, cav(0), 0, 1.0) == cav(5)
    apply_control(table, relay_batch(cav(0), issued_at=2.0, nodes=(0, 3, 9)), 2.0)
    assert route(table, cav(0), 0, 2.0) == cav(3)


def test_routes_for_different_purposes_coexist():
    table = table_of(0, 1, 5, 8, 9)
    apply_control(table, relay_batch(cav(5), nodes=(0, 5, 9), pair=0), 1.0)
    apply_control(table, relay_batch(cav(5), nodes=(1, 5, 8), pair=1), 1.0)
    assert route(table, cav(5), 0, 1.0) == cav(9)
    assert route(table, cav(5), 1, 1.0) == cav(8)


def test_forwarding_table_needs_ascending_distinct_codes():
    for codes in ([], [cav(2).code, cav(1).code], [cav(1).code, cav(1).code]):
        with pytest.raises(ConfigurationError):
            ForwardingTable.empty(codes, 1, 0.5)


def test_forwarding_table_stores_next_hops_as_int32():
    table = table_of(0, 5, 9)
    assert table.next_hop.dtype == np.int32
    apply_control(table, relay_batch(cav(5), nodes=(0, 5, 9)), 1.0)
    # the largest code a NodeId can have survives the narrower column
    apply_control(table, relay_batch(cav(0), nodes=(0, (1 << 20) - 1), pair=1), 1.0)
    hops = table.next_hops(np.array([cav(5).code, cav(0).code, cav(9).code]),
                           np.array([0, 1, 0]), 1.0)
    assert hops.tolist() == [cav(9).code, cav((1 << 20) - 1).code, -1]


def random_control_tick(rng, nodes, pairs, stranger, issued_at, counts):
    """A batch of random multi-hop paths for random pairs (a pair may get two
    paths in one batch), each with one message per forwarding node, mixed
    with wrong, off-path and destination targets, in shuffled row order."""
    paths, pair_of, targets, rows = [], [], [], []
    for _ in range(int(rng.integers(0, 5))):
        k = int(rng.integers(len(pairs)))
        u, v = pairs[k]
        middle = [n for n in nodes if n not in (u, v)]
        relays = rng.choice(len(middle), size=int(rng.integers(1, min(4, len(middle)) + 1)),
                            replace=False)
        path = [u, *(middle[i] for i in relays), v]
        row = len(paths)
        paths.append(path)
        pair_of.append(k)
        for node in path[:-1]:
            targets.append(node)
            rows.append(row)
        kind = str(rng.choice(("none", "wrong", "off-path", "destination"),
                              p=(0.55, 0.15, 0.15, 0.15)))
        off_path = [n for n in nodes if n not in path]
        if kind == "wrong":
            targets.append(stranger)
        elif kind == "destination":
            targets.append(v)
        elif kind == "off-path" and off_path:
            targets.append(off_path[int(rng.integers(len(off_path)))])
        else:
            continue
        counts[kind] += 1
        rows.append(row)
    order = rng.permutation(len(targets))
    width = max((len(p) for p in paths), default=2)
    return ControlBatch(
        paths=np.array([[n.code for n in p] + [-1] * (width - len(p)) for p in paths],
                       dtype=np.int64).reshape(len(paths), width),
        pair=np.array(pair_of, dtype=np.int64),
        target=np.array([targets[i].code for i in order], dtype=np.int64),
        path_row=np.array([rows[i] for i in order], dtype=np.int64),
        issued_at=issued_at,
    ), [(pair_of[r], RelayPath(nodes=tuple(p), bottleneck_snr_db=0.0))
        for r, p in enumerate(paths)]


def test_batched_control_matches_reference():
    """The batched install and the array audit give the same next hops, the
    same protocol-error count and the same audited-path counts as the scalar
    per-node oracle, over random ticks, TTL boundaries and stale batches."""
    rng = np.random.default_rng(11)
    counts = {"wrong": 0, "off-path": 0, "destination": 0}
    stale_batches = expiry_instants = audit_failures = audit_ok = 0
    for _ in range(80):
        n = int(rng.integers(3, 10))
        nodes = sorted({NodeId(NodeKind(int(rng.integers(1, 3))), int(rng.integers(0, 50)))
                        for _ in range(n)})
        if len(nodes) < 3:
            continue
        pairs = [tuple(nodes[i] for i in sorted(rng.choice(len(nodes), 2, replace=False)))
                 for _ in range(int(rng.integers(1, 5)))]
        stranger = NodeId(NodeKind.BS, 7)
        table = ForwardingTable.empty([node.code for node in nodes], len(pairs),
                                      float(rng.choice((0.1, 0.3, 0.5))))
        states = {node: reference_control.NodeState(node) for node in nodes}
        t = 0.0
        for _ in range(6):
            stale = bool(rng.random() < 0.2)
            issued_at = round(t - float(rng.choice((0.1, 0.4))), 9) if stale else t
            stale_batches += stale
            batch, assignments = random_control_tick(rng, nodes, pairs, stranger, issued_at,
                                                     counts)
            apply_control(table, batch, t)
            paths = {r: assignment for r, (_, assignment) in enumerate(assignments)}
            for target, row in zip(batch.target.tolist(), batch.path_row.tolist()):
                node = NodeId.from_code(target)
                msg = reference_control.ControlMessage(
                    target=node, issued_at=batch.issued_at, assignment=paths[row],
                    purpose=int(batch.pair[row]), ttl_s=table.ttl_s)
                # a target the nodes do not hold is delivered to a node it does not name
                reference_control.apply_control(states.get(node, states[nodes[0]]), msg, t)
            assert table.protocol_errors == sum(s.protocol_errors for s in states.values())

            # every entry lives at installed_at + ttl_s and is gone one ulp later
            expiries = table.installed_at[np.isfinite(table.installed_at)] + table.ttl_s
            expiries = np.unique(expiries)
            instants = [t, *expiries.tolist(), *np.nextafter(expiries, np.inf).tolist()]
            for q in instants:
                for k in range(len(pairs)):
                    got = table.next_hops(np.array([n.code for n in nodes]),
                                          np.full(len(nodes), k), q).tolist()
                    want = [states[n].route_for(k, q) for n in nodes]
                    assert got == [-1 if w is None else w.code for w in want]
                summary = AuditSummary()
                _audit(table, batch, q, summary)
                checked, ok = reference_control.audit_paths(states, assignments, q)
                assert (summary.paths_checked, summary.paths_ok) == (checked, ok)
                audit_failures += checked - ok
                audit_ok += ok
            expiry_instants += len(expiries)
            t = round(t + float(rng.choice((0.1, 0.2, 0.5))), 9)
    assert min(counts.values()) >= 50
    assert stale_batches >= 50
    assert expiry_instants >= 500
    assert audit_failures >= 1000 and audit_ok >= 1000
