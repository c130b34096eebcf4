"""RAN endpoint tests: identities, neighbor sensing, reporting, forwarding control."""

from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import reference_control
import reference_layout
import reference_reports
from reference_ids import NodeId
from reference_mobility import VehicleState, fleet_of
from reference_reports import reports_of
from reference_schedule import report_due
from slot_adapter import Path, codes_of, control_slots, indication_codes, slots_of
from v2xric import (ChannelParams, ConfigurationError, ControlBatch, NodeKind, RicState,
                    SimConfig, TrafficConfig, World, XAppConfig, apply_control, build_graph,
                    build_intersection, channel, default_rsus, emit_indication,
                    forwarding_table, ingest, link_table, ran, run, spawn_vehicles, streams)
from v2xric.scenario import CAR_EXTENT, Fleet


def cav(i):
    return NodeId(NodeKind.CAV, i)


def world_with_cavs(xs, rsus=np.empty((0, 3))):
    layout = build_intersection(200.0, 14.0)
    vehicles = [
        VehicleState(vid=k, position=(x, -3.5), heading=(1.0, 0.0),
                     speed_mps=14.0, extent=CAR_EXTENT)
        for k, x in enumerate(xs)
    ]
    return World(layout=layout, fleet=fleet_of(vehicles), rsus=rsus)


def measure_world(world, **selection):
    """The world's link table."""
    return link_table(ChannelParams(), world.xyz(), world.body, world.boxes(), **selection)


# --- identities ------------------------------------------------------------------


def test_node_id_total_order():
    assert NodeId(NodeKind.RSU, 0) < NodeId(NodeKind.RSU, 5) < cav(0)
    assert NodeId(NodeKind.RSU, (1 << 20) - 1) < cav(0)
    assert cav(2) < cav(10)
    assert sorted([cav(1), NodeId(NodeKind.RSU, 3), NodeId(NodeKind.RSU, 0)]) == [
        NodeId(NodeKind.RSU, 0), NodeId(NodeKind.RSU, 3), cav(1)]


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
    nodes = [NodeId.from_code(code) for code in world.codes]
    assert nodes == sorted(nodes)
    assert [node.kind for node in nodes[:4]] == [NodeKind.RSU] * 4
    assert nodes == [NodeId(NodeKind.RSU, k) for k in range(4)] + [cav(0), cav(1)]
    xyz = world.xyz()
    assert xyz[:4].tolist() == [[*r.position, 6.0] for r in reference_layout.rsus(14.0, 2.0)]
    assert xyz[4:].tolist() == [[0.0, -3.5, 1.6], [10.0, -3.5, 1.6]]
    assert world.body.tolist() == [-1] * 4 + [0, 1]
    # every vehicle body, in row order, then every building
    lo, hi = world.boxes()
    assert lo[:2].tolist() == [[-2.5, -4.5, 0.0], [7.5, -4.5, 0.0]]
    assert hi[:2].tolist() == [[2.5, -2.5, 1.6], [12.5, -2.5, 1.6]]
    buildings = reference_layout.buildings(200.0, 14.0, 2.0, 20.0)
    assert lo[2:].tolist() == [[b.x0, b.y0, 0.0] for b in buildings]
    assert hi[2:].tolist() == [[b.x1, b.y1, b.height] for b in buildings]


def test_world_codes_are_node_id_codes_built_without_node_ids():
    """A spawned world with the corner RSUs packs its codes over arrays, and
    each code is the one its NodeId gives. The package has no NodeId to
    build (`test_api` guards that)."""
    layout = build_intersection(200.0, 14.0)
    fleet = spawn_vehicles(layout, TrafficConfig(density_veh_km=120.0, seed=4))
    world = World(layout=layout, fleet=fleet, rsus=default_rsus(layout))
    assert world.codes.dtype == np.int64
    assert world.codes.tolist() == ([NodeId(NodeKind.RSU, k).code for k in range(4)]
                                    + [cav(k).code for k in range(len(fleet))])


def zero_fleet(n):
    zeros = np.zeros(n)
    return Fleet(axis=np.zeros(n, np.int8), direction=zeros, lateral=zeros, c=zeros,
                 speed=zeros, extent=np.zeros((n, 3)))


def test_world_refuses_more_nodes_than_the_index_holds():
    """Node indices are 20 bits: 2^20 vehicles or RSUs fit, one more of
    either is refused rather than packed into the next kind's codes."""
    layout = build_intersection(200.0, 14.0)
    bound = 1 << 20
    world = World(layout=layout, fleet=zero_fleet(bound), rsus=np.zeros((bound, 3)))
    assert world.codes[-1] == cav(bound - 1).code
    assert world.codes[bound - 1] == NodeId(NodeKind.RSU, bound - 1).code
    assert world.codes.max() < 1 << 22  # the width the outage draw's link key leaves a code
    with pytest.raises(ConfigurationError, match=r"2\^20"):
        World(layout=layout, fleet=zero_fleet(bound + 1), rsus=np.zeros((4, 3)))
    with pytest.raises(ConfigurationError, match=r"2\^20"):
        World(layout=layout, fleet=zero_fleet(2), rsus=np.zeros((bound + 1, 3)))


# --- sensing ---------------------------------------------------------------------
# Nodes sense through one in-range link table per report instant, which the
# engine hands to the report layer as one batch.


def collect_reports(world, cfg, step):
    """The engine's batch of a run of `cfg` that measures `world` at `step`."""
    measured = streams.sense(world, cfg, step, (cfg.channel.p_b,))
    reporting = cfg.cav_terminations | (ran.kinds(world.codes) != NodeKind.CAV)
    return streams.collect_reports(measured, cfg, reporting, 0)


def report_batch(world, sensing_range_m=300.0, **cfg):
    """The engine's batch at step 0, its view slots read back as NodeId codes."""
    batch = collect_reports(world, SimConfig(sensing_range_m=sensing_range_m, **cfg), 0)
    for column in (batch.reporters, batch.source, batch.neighbor):
        assert column.dtype == np.int64 and ((column >= 0) & (column < len(world.codes))).all()
    return indication_codes(batch, world.codes)


def reports_by_source(world, sensing_range_m=300.0, **cfg):
    """The batch split into per-node reports, neighbours ascending."""
    return {r.source: r for r in reports_of(report_batch(world, sensing_range_m, **cfg), 0.0)}


def neighbors_of(report):
    return [NodeId.from_code(c) for c in report.neighbors.tolist()]


def test_isolated_node_senses_nothing():
    world = world_with_cavs([0.0])
    batch = report_batch(world)
    assert batch.reporters.tolist() == [cav(0).code]  # it still reports
    report = reports_by_source(world)[cav(0)]
    assert neighbors_of(report) == []
    assert batch.neighbor.dtype == np.int64 and batch.snr_db.dtype == np.float64
    assert batch.source.dtype == np.int64 and batch.reporters.dtype == np.int64
    assert len(report.snr_db) == 0


def test_neighbors_sorted_by_node_id():
    world = world_with_cavs([0.0, 20.0, 40.0])
    reports = reports_by_source(world)
    assert neighbors_of(reports[cav(1)]) == [cav(0), cav(2)]
    # each link's SNR is the one the link table measured, in both reports
    tab = measure_world(world, max_range=300.0)
    snr = {(int(i), int(j)): s for i, j, s in zip(tab.i, tab.j, tab.snr_db)}
    assert reports[cav(1)].snr_db.tolist() == [snr[(0, 1)], snr[(1, 2)]]
    assert reports[cav(0)].snr_db.tolist() == [snr[(0, 1)], snr[(0, 2)]]
    assert reports[cav(2)].snr_db.tolist() == [snr[(0, 2)], snr[(1, 2)]]
    # the run's report cap reaches the batch: each reporter keeps what the
    # per-node oracle keeps of its uncapped report
    world = world_with_cavs([0.0, 20.0, 40.0, 60.0, 80.0])
    uncapped = reports_by_source(world)
    for k in (1, 3):
        assert any(len(report.neighbors) > k for report in uncapped.values())
        capped = reports_by_source(world, measured_neighbors=k)
        assert capped.keys() == uncapped.keys()
        for node, report in uncapped.items():
            want = reference_reports.emit_indication(node, report.neighbors, report.snr_db,
                                                     report.t, k)
            assert capped[node].neighbors.tolist() == want.neighbors.tolist()
            assert capped[node].snr_db.tolist() == want.snr_db.tolist()


def test_sensing_range_boundary_inclusive():
    world = world_with_cavs([0.0, 150.0])
    within = measure_world(world, max_range=150.0)
    assert [(int(i), int(j)) for i, j in zip(within.i, within.j)] == [(0, 1)]
    beyond = measure_world(world, max_range=149.99)
    assert len(beyond.i) == 0
    # at the lowest threshold the report floor keeps every in-range link
    lowest = XAppConfig(snr_min_db=-300.0)
    assert neighbors_of(reports_by_source(world, 150.0, xapp=lowest)[cav(0)]) == [cav(1)]
    assert neighbors_of(reports_by_source(world, 149.99, xapp=lowest)[cav(0)]) == []
    # at the default 5 dB the 150 m link can never be an edge, so it is not reported
    assert within.snr_db[0] < SimConfig().xapp.snr_min_db
    assert neighbors_of(reports_by_source(world, 150.0)[cav(0)]) == []


def test_infrastructure_only_reports_come_from_rsus():
    layout = build_intersection(200.0, 14.0)
    world = world_with_cavs([0.0, 20.0], rsus=default_rsus(layout))
    batch = report_batch(world, cav_terminations=False)
    assert batch.reporters.tolist() == [NodeId(NodeKind.RSU, k).code for k in range(4)]
    assert set(batch.source.tolist()) <= set(batch.reporters.tolist())
    assert all(cav(0).code in batch.neighbor[batch.source == code] for code in batch.reporters)


def floor_scenes(rng):
    """Random spawned scenes with the corner RSUs, and evenly spaced lanes of
    cars whose left and right neighbours tie on SNR."""
    layout = build_intersection(200.0, 14.0)
    for _ in range(3):
        traffic = TrafficConfig(density_veh_km=float(rng.choice((20.0, 60.0, 120.0))),
                                seed=int(rng.integers(1000)), tall_fraction=0.3)
        yield World(layout=layout, fleet=spawn_vehicles(layout, traffic), rsus=default_rsus(layout))
    spacing = float(rng.choice((8.0, 15.0)))
    yield world_with_cavs([-100.0 + spacing * k for k in range(12)], rsus=default_rsus(layout))


def test_floored_reports_equal_unfloored_reports_filtered():
    """On random scenes, the engine's batch under the xApp threshold's report
    floor, filtered to SNR at or above the floor, equals the unfloored batch
    filtered the same way, at every p_b, report cap (with SNR ties) and
    reporting set; and the controller's graph from either batch agrees at
    every threshold at or above the floor."""
    rng = np.random.default_rng(21)
    seen = Counter()
    measure = channel.link_table
    for world in floor_scenes(rng):
        step = int(rng.integers(50))
        for p_b in (0.0, 0.3, 1.0):
            for cap in (None, 1, 3):
                for cav_terminations in (True, False):
                    cfg = SimConfig(channel=ChannelParams(p_b=p_b), measured_neighbors=cap,
                                    cav_terminations=cav_terminations)
                    with pytest.MonkeyPatch.context() as m:
                        m.setattr(channel, "link_table",
                                  lambda *args, min_snr_db, **kwargs: measure(*args, **kwargs))
                        unfloored = collect_reports(world, cfg, step)
                    finite = unfloored.snr_db[unfloored.snr_db > -300.0]
                    floors = [-300.0, float(rng.uniform(-5.0, 25.0))]
                    if len(finite):
                        floors.append(float(rng.choice(finite)))  # a floor on a reported SNR
                    for floor in floors:
                        cfg = replace(cfg, xapp=XAppConfig(snr_min_db=floor))
                        floored = collect_reports(world, cfg, step)
                        keep = unfloored.snr_db >= floor
                        kept = floored.snr_db >= floor
                        assert floored.step == unfloored.step
                        assert np.array_equal(floored.reporters, unfloored.reporters)
                        for column in ("source", "neighbor", "snr_db"):
                            assert np.array_equal(getattr(floored, column)[kept],
                                                  getattr(unfloored, column)[keep]), column
                        seen["measured_below"] += int(np.count_nonzero(~kept))
                        seen["dropped"] += int(np.count_nonzero(~keep))
                        seen["at_floor"] += int(np.count_nonzero(unfloored.snr_db == floor))
                        states = [ingest(RicState(world.codes), batch)
                                  for batch in (floored, unfloored)]
                        for gamma in (floor, floor + 0.5, floor + 3.0, *floored.snr_db[kept][:5]):
                            assert np.array_equal(build_graph(states[0], step, gamma),
                                                  build_graph(states[1], step, gamma))
                    by_link = Counter(zip(unfloored.source.tolist(), unfloored.snr_db.tolist()))
                    seen["ties"] += sum(k > 1 for k in by_link.values())
    assert all(seen[k] > 0 for k in ("dropped", "at_floor", "ties", "measured_below"))


# --- reporting cadence -----------------------------------------------------------
# The engine counts whole steps; the float rule it replaced is the oracle in
# reference_schedule, checked here on its own and against the engine in
# test_engine's schedule tests.


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

    def spy(reporters, source, neighbor, snr_db, step, measured_neighbors):
        emitted_at.append(round(step * 0.1, 9))  # the run's dt_s
        return emit_indication(reporters, source, neighbor, snr_db, step, measured_neighbors)

    monkeypatch.setattr(ran, "emit_indication", spy)
    run(SimConfig(duration_s=1.2, warmup_s=0.0, seed=2, reporting_period_s=0.5))
    assert emitted_at
    assert emitted_at == [0.0, 0.5, 1.0]  # one batch per report instant


def emit(links, cap=None, reporters=(cav(0),)):
    """links: (source, neighbour, snr_db), in the order the batch gets them."""
    return emit_indication([node.code for node in reporters],
                           [src.code for src, _, _ in links], [rx.code for _, rx, _ in links],
                           [snr for _, _, snr in links], 3, cap)


def links_of(batch):
    return [(NodeId.from_code(s), NodeId.from_code(r), v) for s, r, v in
            zip(batch.source.tolist(), batch.neighbor.tolist(), batch.snr_db.tolist())]


def test_emit_indication_caps_to_strongest_links():
    report = emit([(cav(0), cav(1), 10.0), (cav(0), cav(2), 8.0), (cav(0), cav(3), 1.0),
                   (cav(0), cav(4), 8.0), (cav(0), cav(5), 8.0)], cap=3)
    # strongest first on SNR, equal SNRs keep the smaller neighbor ids,
    # and the kept links stay in the given (here neighbor) order
    assert [rx for _, rx, _ in links_of(report)] == [cav(1), cav(2), cav(4)]
    assert report.snr_db.tolist() == [10.0, 8.0, 8.0]
    assert report.reporters.tolist() == [cav(0).code]
    assert report.step == 3


def test_emit_indication_caps_each_reporter_on_its_own():
    # cav(9)'s links are all weaker than cav(0)'s, yet it keeps its best two
    report = emit([(cav(9), cav(3), 1.0), (cav(0), cav(1), 10.0), (cav(9), cav(1), 2.0),
                   (cav(0), cav(2), 8.0), (cav(9), cav(2), 2.0), (cav(0), cav(3), 9.0)],
                  cap=2, reporters=(cav(0), cav(9)))
    assert links_of(report) == [(cav(0), cav(1), 10.0), (cav(9), cav(1), 2.0),
                                (cav(9), cav(2), 2.0), (cav(0), cav(3), 9.0)]


def test_emit_indication_without_cap_keeps_everything():
    report = emit([(cav(0), cav(1), -5.0), (cav(0), cav(2), 3.0)])
    assert [rx for _, rx, _ in links_of(report)] == [cav(1), cav(2)]
    assert report.snr_db.tolist() == [-5.0, 3.0]


@pytest.mark.parametrize("kwargs", [
    dict(reporting_period_s=0.0005),
    dict(reporting_period_s=2.0),
    dict(measured_neighbors=0),
    dict(control_period_s=2.0, duration_s=20.0, warmup_s=0.0),
    dict(control_period_s=0.0005, dt_s=0.0005),
])
def test_subscription_validation(kwargs):
    """The run's reporting contract is checked on its SimConfig, and the error
    names the key that was set: an unset reporting period follows
    control_period_s."""
    key = next(k for k in ("reporting_period_s", "measured_neighbors", "control_period_s")
               if k in kwargs)
    with pytest.raises(ConfigurationError, match=key) as err:
        SimConfig(**kwargs).validate()
    assert ("reporting_period_s" in str(err.value)) == ("reporting_period_s" in kwargs)


# --- forwarding control ----------------------------------------------------------


# The control tests below run on a view of cav(0)..cav(9), where cav(i) holds
# view slot i; control batches and the table name nodes by slot.
N_VIEW = 10


def hop_batch(*messages):
    """A batch of (target, pair, next hop) messages, in order."""
    target, pair, next_hop = np.array(messages, dtype=np.int64).reshape(len(messages), 3).T
    return ControlBatch(target=target, pair=pair, next_hop=next_hop)


def table_of(n_pairs=2):
    return forwarding_table(N_VIEW, n_pairs)


def route(table, slot, pair):
    nxt = int(table[slot, pair])
    return None if nxt < 0 else nxt


def test_apply_control_installs_next_hop():
    table = table_of()
    assert apply_control(table, hop_batch((0, 0, 5))) == 0
    assert table[0, 0] == 5
    assert route(table, 0, 0) == 5
    assert route(table, 0, 1) is None  # another pair


def test_apply_control_middle_hop():
    table = table_of()
    apply_control(table, hop_batch((5, 0, 9)))
    assert route(table, 5, 0) == 9


def test_apply_control_rejects_wrong_target():
    # a target outside the view's slots; numpy would wrap -1 to the last row
    for outside in (-1, N_VIEW):
        table = table_of()
        errors = apply_control(table, hop_batch((outside, 0, 5)))
        errors += apply_control(table, hop_batch((outside, 0, N_VIEW - 1)))
        assert errors == 2
        assert (table == -1).all()


@pytest.mark.parametrize("pair, target, next_hop", [
    (-1, 1, 9),  # numpy would wrap -1 to the table's last pair column
    (-1, 0, 5),
    (2, 1, 9),  # the table serves pairs 0 and 1
    (0, 1, -1),  # -1 is no hop, and numpy would write it
    (0, 1, N_VIEW),  # the view holds slots 0-9
])
def test_apply_control_rejects_out_of_range_pair_or_next_hop(pair, target, next_hop):
    # beside one sound message, which installs slot 2's hop of pair 1
    table = table_of()
    assert apply_control(table, hop_batch((target, pair, next_hop), (2, 1, 1))) == 1
    want = np.full((N_VIEW, 2), -1)
    want[2, 1] = 1
    assert (table == want).all()


def test_apply_control_rejects_a_self_loop():
    """A node told to forward a pair to itself would hold the pair forever."""
    table = table_of()
    assert apply_control(table, hop_batch((7, 0, 7), (0, 1, 0))) == 2
    assert (table == -1).all()


def test_apply_control_rejects_node_not_on_path():
    """A node off a path has no next hop on it: its message would carry -1."""
    table = table_of()
    assert apply_control(table, hop_batch((7, 0, -1))) == 1
    assert (table == -1).all()


def test_apply_control_rejects_destination_target():
    """A path's destination has no next hop: its message would carry -1."""
    table = table_of()
    assert apply_control(table, hop_batch((9, 0, -1))) == 1
    assert (table == -1).all()


def test_later_control_replaces_route():
    table = table_of()
    apply_control(table, hop_batch((0, 0, 5)))
    assert route(table, 0, 0) == 5
    assert apply_control(table, hop_batch((0, 0, 3))) == 0
    assert route(table, 0, 0) == 3


@pytest.mark.parametrize("order, want", [([0, 1], 3), ([1, 0], 5)])
def test_later_row_of_one_batch_wins(order, want):
    """The hops of two paths of one batch, 0-5-9 and 0-3-9, install slot 0's
    hop of pair 0: the message that comes later in the batch sets the route,
    and each path's other hop installs as usual."""
    paths = ([(0, 0, 5), (5, 0, 9)], [(0, 0, 3), (3, 0, 9)])
    table = table_of()
    assert apply_control(table, hop_batch(*paths[order[0]], *paths[order[1]])) == 0
    assert route(table, 0, 0) == want
    assert (route(table, 5, 0), route(table, 3, 0)) == (9, 9)


def test_routes_for_different_purposes_coexist():
    table = table_of()
    apply_control(table, hop_batch((5, 0, 9)))
    apply_control(table, hop_batch((5, 1, 8)))
    assert route(table, 5, 0) == 9
    assert route(table, 5, 1) == 8


def test_forwarding_table_stores_next_hops_as_int32():
    table = table_of()
    assert table.dtype == np.int32
    apply_control(table, hop_batch((5, 0, 9)))
    # the view's last slot is a next hop like any other
    apply_control(table, hop_batch((0, 1, N_VIEW - 1)))
    assert table[[5, 0, 9], [0, 1, 0]].tolist() == [9, N_VIEW - 1, -1]


def random_hops(rng, n_nodes, n_pairs, seen):
    """Random (target, pair, next hop) messages over n_nodes slots and
    n_pairs pairs: sound ones, ones with one column out of range (-1 or one
    past its last value), self-loops, and repeats of an earlier sound
    message's (target, pair) with the same or another next hop."""
    messages, installed = [], []  # every message, the sound ones
    for _ in range(int(rng.integers(0, 12))):
        node, nxt = (int(v) for v in rng.choice(n_nodes, size=2, replace=False))
        message = [node, int(rng.integers(n_pairs)), nxt]
        kind = str(rng.choice(("sound", "target", "pair", "next hop", "self-loop", "repeat"),
                              p=(0.4, 0.12, 0.12, 0.12, 0.12, 0.12)))
        if kind in ("target", "pair", "next hop"):
            column = ("target", "pair", "next hop").index(kind)
            message[column] = int(rng.choice((-1, (n_nodes, n_pairs, n_nodes)[column])))
            kind += " -1" if message[column] < 0 else " past the end"
        elif kind == "self-loop":
            message[2] = node
        elif kind == "repeat" and installed:
            message[:2] = installed[int(rng.integers(len(installed)))][:2]
            if message[0] == message[2]:
                continue
            same = [m for m in installed if m[:2] == message[:2]][-1][2] == message[2]
            kind += " with the same hop" if same else ""
        else:
            kind = "sound"
        seen[kind] += 1
        messages.append(message)
        if kind.startswith(("sound", "repeat")):
            installed.append(message)
    return hop_batch(*messages)


class ReversedWrites(np.ndarray):
    """An array whose index-array writes land last to first, so the first of
    two writes to one cell stays: an order numpy leaves open."""

    def __setitem__(self, key, value):
        if isinstance(key, tuple) and all(isinstance(k, np.ndarray) for k in key):
            # copies: numpy may walk a reversed view in memory order
            value = np.broadcast_to(value, np.broadcast(*key).shape)[::-1].copy()
            key = tuple(k[::-1].copy() for k in key)
        super().__setitem__(key, value)


@pytest.mark.parametrize("writes", ["numpy", "reversed"])
def test_apply_control_matches_scalar_oracle(writes):
    """Over random ticks of every kind of message, the batched install leaves
    the table and the error count that installing message by message in
    batch order leaves: range checks on each column, no self-loops, and the
    later of two messages for one (node, pair) wins, also when repeated
    writes land in reverse order. Each call acknowledges its batch with the
    batch's own error count."""
    rng = np.random.default_rng(27)
    seen = Counter()
    for _ in range(300):
        n_nodes, n_pairs = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        table = forwarding_table(n_nodes, n_pairs)
        if writes == "reversed":
            table = table.view(ReversedWrites)
        forwarding = {}
        for _ in range(4):
            batch = random_hops(rng, n_nodes, n_pairs, seen)
            acknowledged = apply_control(table, batch)
            errors = reference_control.install_hops(forwarding, n_nodes, n_pairs, batch)
            want = np.full((n_nodes, n_pairs), -1)
            for key, nxt in forwarding.items():
                want[key] = nxt
            assert table.tolist() == want.tolist()
            assert acknowledged == errors
    kinds = ("sound", "target -1", "target past the end", "pair -1", "pair past the end",
             "next hop -1", "next hop past the end", "self-loop", "repeat",
             "repeat with the same hop")
    assert set(seen) == set(kinds) and min(seen.values()) >= 30, seen


def random_path_rows(rng, n_nodes, n_pairs):
    """A sound path-row batch: random simple paths, a pair may get two in one
    batch, one message per node before each path's destination, in shuffled
    order, so a (node, pair) may repeat across two paths."""
    paths, pair, target, path_row = [], [], [], []
    width = int(rng.integers(3, n_nodes + 1))
    for row in range(int(rng.integers(0, 5))):
        path = rng.choice(n_nodes, size=int(rng.integers(3, width + 1)), replace=False).tolist()
        paths.append(path + [-1] * (width - len(path)))
        pair.append(int(rng.integers(n_pairs)))
        target += path[:-1]
        path_row += [row] * (len(path) - 1)
    order = rng.permutation(len(target))
    return reference_control.PathControlBatch(
        paths=np.array(paths, dtype=np.int64).reshape(len(paths), width),
        pair=np.array(pair, dtype=np.int64),
        target=np.array(target, dtype=np.int64)[order],
        path_row=np.array(path_row, dtype=np.int64)[order])


def test_split_path_rows_install_the_path_row_table():
    """Each sound path-row batch, split into one forwarding entry per message,
    leaves the table bit for bit as the path-row install leaves it, repeated
    (node, pair) messages included."""
    rng = np.random.default_rng(2627)
    repeats = 0
    for _ in range(200):
        n_nodes, n_pairs = int(rng.integers(3, 9)), int(rng.integers(1, 4))
        old, new = (forwarding_table(n_nodes, n_pairs) for _ in range(2))
        for _ in range(4):
            batch = random_path_rows(rng, n_nodes, n_pairs)
            old_errors = reference_control.apply_path_control(old, batch)
            hops = reference_control.split_hops(batch)
            new_errors = apply_control(new, hops)
            assert len(hops) == len(batch)
            assert np.array_equal(new, old)
            assert new_errors == old_errors == 0
            keys = hops.target * n_pairs + hops.pair
            repeats += len(keys) - len(np.unique(keys))
    assert repeats >= 100


def test_full_fan_out_sends_one_entry_per_hop():
    """The fan-out oracle names each forwarding node of every multi-hop path
    with the path's pair and the next node, pair by pair and hop by hop."""
    diag = SimpleNamespace(hops=np.array([2, 0, 1, 3]),
                           paths=np.array([(4, 1, 6, -1), (-1, -1, -1, -1), (2, 3, -1, -1),
                                           (0, 5, 2, 7)]))
    full = reference_control.full_fan_out(diag)
    assert full.target.tolist() == [4, 1, 0, 5, 2]
    assert full.pair.tolist() == [0, 0, 3, 3, 3]
    assert full.next_hop.tolist() == [1, 6, 5, 2, 7]
    assert all(col.dtype == np.int64 for col in (full.target, full.pair, full.next_hop))


def random_control_tick(rng, nodes, pairs, stranger, counts):
    """A batch of the hops of random multi-hop paths for random pairs (a pair
    may get two paths in one batch), named by code, mixed with messages to a
    target the view does not hold and to a path's destination (whose next
    hop is -1), in shuffled order; with the same messages for the per-node
    oracle, and the paths."""
    assignments, messages = [], []
    for _ in range(int(rng.integers(0, 5))):
        k = int(rng.integers(len(pairs)))
        u, v = pairs[k]
        middle = [n for n in nodes if n not in (u, v)]
        relays = rng.choice(len(middle), size=int(rng.integers(1, min(4, len(middle)) + 1)),
                            replace=False)
        path = Path(0.0, (u, *(middle[i] for i in relays), v))
        assignments.append((k, path))
        messages += [(node, k, path, nxt.code) for node, nxt in zip(path.nodes, path.nodes[1:])]
        kind = str(rng.choice(("none", "wrong", "destination"), p=(0.6, 0.2, 0.2)))
        if kind == "wrong":
            messages.append((stranger, k, path, path.nodes[1].code))
        elif kind == "destination":
            messages.append((v, k, path, -1))
        else:
            continue
        counts[kind] += 1
    messages = [messages[i] for i in rng.permutation(len(messages))]
    batch = ControlBatch(target=np.array([m[0].code for m in messages], dtype=np.int64),
                         pair=np.array([m[1] for m in messages], dtype=np.int64),
                         next_hop=np.array([m[3] for m in messages], dtype=np.int64))
    return batch, [reference_control.ControlMessage(target=node, assignment=path, purpose=k)
                   for node, k, path, _ in messages], assignments


def test_batched_control_matches_reference():
    """The batched install and the array audit give the same next hops, the
    same protocol-error count and the same audited-path counts as the scalar
    per-node oracle, over random ticks."""
    rng = np.random.default_rng(11)
    counts = {"wrong": 0, "destination": 0}
    audit_failures = audit_ok = 0
    for _ in range(300):
        n = int(rng.integers(3, 10))
        nodes = sorted({NodeId(NodeKind(int(rng.integers(1, 3))), int(rng.integers(0, 50)))
                        for _ in range(n)})
        if len(nodes) < 3:
            continue
        pairs = [tuple(nodes[i] for i in sorted(rng.choice(len(nodes), 2, replace=False)))
                 for _ in range(int(rng.integers(1, 5)))]
        stranger = NodeId(NodeKind.RSU, 77)
        codes = np.array([node.code for node in nodes])
        table = forwarding_table(len(nodes), len(pairs))
        states = {node: reference_control.NodeState(node) for node in nodes}
        errors = 0
        for _ in range(6):
            batch, messages, assignments = random_control_tick(rng, nodes, pairs, stranger,
                                                               counts)
            errors += apply_control(table, control_slots(batch, codes))
            for msg in messages:
                # a target the nodes do not hold is delivered to a node it does not name
                reference_control.apply_control(states.get(msg.target, states[nodes[0]]), msg)
            assert errors == sum(s.protocol_errors for s in states.values())

            for k in range(len(pairs)):
                got = codes_of(codes, table[:, k]).tolist()
                want = [states[n].route_for(k) for n in nodes]
                assert got == [-1 if w is None else w.code for w in want]
            width = max((len(path.nodes) for _, path in assignments), default=2)
            rows = np.array([[n.code for n in path.nodes] + [-1] * (width - len(path.nodes))
                             for _, path in assignments], dtype=np.int64)
            paths = slots_of(codes, rows.reshape(len(assignments), width))
            served = np.array([k for k, _ in assignments], dtype=np.int64)
            delivered = ran.delivered(table, paths, served)
            checked, ok = reference_control.audit_paths(states, assignments)
            assert (len(assignments), delivered) == (checked, ok)
            audit_failures += checked - ok
            audit_ok += ok
    assert min(counts.values()) >= 50
    assert audit_failures >= 1000 and audit_ok >= 1000
