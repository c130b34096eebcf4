"""RAN endpoint tests: identities, neighbor sensing, reporting, forwarding control."""

import pytest

from v2xric import (ChannelParams, ConfigurationError, ControlMessage, LinkSample, NodeId,
                    NodeKind, NodeState, RelayPath, SimConfig, SubscriptionRequest, World,
                    apply_control, build_intersection, default_rsus, emit_indication,
                    link_table, ran, report_due, run)
from v2xric.engine import _collect_reports
from v2xric.scenario import CAR_EXTENT, VehicleState


def cav(i):
    return NodeId(NodeKind.CAV, i)


def world_with_cavs(xs, rsus=()):
    layout = build_intersection(200.0, 14.0)
    vehicles = [
        VehicleState(vid=k, position=(x, -3.5), heading=(1.0, 0.0),
                     speed_mps=14.0, extent=CAR_EXTENT)
        for k, x in enumerate(xs)
    ]
    return World(layout=layout, vehicles=vehicles, rsus=list(rsus))


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


def test_node_index_bounds():
    with pytest.raises(ConfigurationError):
        NodeId(NodeKind.CAV, 1 << 20)
    with pytest.raises(ConfigurationError):
        NodeId(NodeKind.CAV, -1)


def test_world_antennas_in_node_order():
    layout = build_intersection(200.0, 14.0)
    world = World(
        layout=layout,
        vehicles=[VehicleState(vid=k, position=(10.0 * k, -3.5), heading=(1.0, 0.0),
                               speed_mps=14.0, extent=CAR_EXTENT) for k in range(2)],
        rsus=default_rsus(layout),
    )
    antennas = world.antennas()
    kinds = [a.node for a in antennas]
    assert kinds == sorted(kinds)
    assert [a.node.kind for a in antennas[:4]] == [NodeKind.RSU] * 4
    assert all(a.xyz[2] == 6.0 for a in antennas[:4])
    assert all(a.xyz[2] == 1.6 for a in antennas[4:])
    assert [a.vehicle_index for a in antennas[4:]] == [0, 1]


# --- sensing ---------------------------------------------------------------------
# Nodes sense through one in-range link table per report instant, which the
# engine splits into per-node reports.


def reports_by_source(world, sensing_range_m=300.0):
    cfg = SimConfig(sensing_range_m=sensing_range_m)
    subscription = SubscriptionRequest(subscriber=NodeId(NodeKind.BS, 0))
    return {r.source: r for r in _collect_reports(world, cfg, 0.0, subscription)}


def test_isolated_node_senses_nothing():
    world = world_with_cavs([0.0])
    assert reports_by_source(world)[cav(0)].links == ()


def test_neighbors_sorted_by_node_id():
    world = world_with_cavs([0.0, 20.0, 40.0])
    samples = reports_by_source(world)[cav(1)].links
    assert [s.rx for s in samples] == [cav(0), cav(2)]
    assert all(s.tx == cav(1) for s in samples)
    assert samples[0].distance_m == samples[1].distance_m == 20.0


def test_sensing_range_boundary_inclusive():
    world = world_with_cavs([0.0, 150.0])
    antennas = world.antennas()
    within = link_table(ChannelParams(), world.layout, world.vehicles, antennas, 0.0, 1,
                        max_range=150.0)
    assert [(int(i), int(j)) for i, j in zip(within.i, within.j)] == [(0, 1)]
    beyond = link_table(ChannelParams(), world.layout, world.vehicles, antennas, 0.0, 1,
                        max_range=149.99)
    assert len(beyond.i) == 0
    assert [s.rx for s in reports_by_source(world, 150.0)[cav(0)].links] == [cav(1)]
    assert reports_by_source(world, 149.99)[cav(0)].links == ()


# --- reporting cadence -----------------------------------------------------------


def test_report_due_on_period_multiples():
    dues = [round(0.1 * k, 9) for k in range(31) if report_due(round(0.1 * k, 9), 0.5, 0.1)]
    assert dues == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]


def test_report_due_survives_float_tick_accumulation():
    # 0.3 is not exactly representable; the cadence must still fire every 3 ticks
    dues = sum(report_due(round(0.1 * k, 9), 0.3, 0.1) for k in range(30))
    assert dues == 10


def test_emit_indication_off_cadence_is_none(monkeypatch):
    # the engine gates reports on the cadence: no indication off it
    emitted_at = []

    def spy(node, position_xyz, links, t, subscription):
        emitted_at.append(t)
        return emit_indication(node, position_xyz, links, t, subscription)

    monkeypatch.setattr(ran, "emit_indication", spy)
    run(SimConfig(duration_s=1.2, warmup_s=0.0, seed=2, reporting_period_s=0.5))
    assert emitted_at
    assert sorted(set(emitted_at)) == [0.0, 0.5, 1.0]


def make_sample(rx, snr):
    return LinkSample(tx=cav(0), rx=rx, distance_m=10.0, los=True,
                      pathloss_db=90.0, snr_db=snr, t=0.0)


def test_emit_indication_caps_to_strongest_links():
    sub = SubscriptionRequest(subscriber=cav(0), reporting_period_s=0.1, measured_neighbors=3)
    links = [make_sample(cav(5), 8.0), make_sample(cav(1), 10.0), make_sample(cav(4), 8.0),
             make_sample(cav(2), 8.0), make_sample(cav(3), 1.0)]
    report = emit_indication(cav(0), (0.0, 0.0, 1.6), links, 0.3, sub)
    # strongest first on SNR, equal SNRs keep the smaller neighbor ids,
    # and the final report is in neighbor order
    assert [s.rx for s in report.links] == [cav(1), cav(2), cav(4)]
    assert report.source == cav(0)
    assert report.t == 0.3


def test_emit_indication_without_cap_keeps_everything():
    sub = SubscriptionRequest(subscriber=cav(0), reporting_period_s=0.1)
    links = [make_sample(cav(2), 3.0), make_sample(cav(1), -5.0)]
    report = emit_indication(cav(0), (0.0, 0.0, 1.6), links, 0.0, sub)
    assert len(report.links) == 2


@pytest.mark.parametrize("kwargs,dt", [
    (dict(reporting_period_s=0.0005), None),
    (dict(reporting_period_s=2.0), None),
    (dict(reporting_period_s=0.05), 0.1),
    (dict(measured_neighbors=0), None),
])
def test_subscription_validation(kwargs, dt):
    with pytest.raises(ConfigurationError):
        SubscriptionRequest(subscriber=cav(0), **kwargs).validate(dt)


# --- forwarding control ----------------------------------------------------------


def relay_msg(target, issued_at=1.0, nodes=(0, 5, 9), ttl=0.5):
    path = RelayPath(nodes=tuple(cav(i) for i in nodes), bottleneck_snr_db=7.0)
    return ControlMessage(target=target, issued_at=issued_at, assignment=path,
                          purpose=(path.nodes[0], path.nodes[-1]), ttl_s=ttl)


def test_apply_control_installs_next_hop():
    state = NodeState(cav(0))
    apply_control(state, relay_msg(cav(0)), 1.0)
    purpose = (cav(0), cav(9))
    assert state.protocol_errors == 0
    entry = state.forwarding[purpose]
    assert entry.next_hop == cav(5)
    assert entry.destination == cav(9)
    assert entry.installed_at == 1.0
    assert entry.expires_at == 1.5
    assert state.route_for(purpose, 1.4) == cav(5)
    assert state.route_for(purpose, 1.6) is None  # expired


def test_apply_control_middle_hop():
    state = NodeState(cav(5))
    apply_control(state, relay_msg(cav(5)), 1.0)
    assert state.route_for((cav(0), cav(9)), 1.0) == cav(9)


def test_apply_control_rejects_wrong_target():
    state = NodeState(cav(5))
    apply_control(state, relay_msg(cav(0)), 1.0)
    assert state.protocol_errors == 1
    assert state.forwarding == {}


def test_apply_control_rejects_node_not_on_path():
    state = NodeState(cav(7))
    apply_control(state, relay_msg(cav(7)), 1.0)
    assert state.protocol_errors == 1


def test_apply_control_rejects_destination_target():
    state = NodeState(cav(9))
    apply_control(state, relay_msg(cav(9)), 1.0)
    assert state.protocol_errors == 1


def test_stale_control_keeps_newer_route():
    state = NodeState(cav(0))
    apply_control(state, relay_msg(cav(0), issued_at=1.0, nodes=(0, 5, 9)), 1.0)
    apply_control(state, relay_msg(cav(0), issued_at=0.5, nodes=(0, 3, 9)), 1.0)
    assert state.protocol_errors == 0  # stale is silently ignored, not an error
    assert state.route_for((cav(0), cav(9)), 1.0) == cav(5)
    apply_control(state, relay_msg(cav(0), issued_at=2.0, nodes=(0, 3, 9)), 2.0)
    assert state.route_for((cav(0), cav(9)), 2.0) == cav(3)


def test_routes_for_different_purposes_coexist():
    state = NodeState(cav(5))
    apply_control(state, relay_msg(cav(5), nodes=(0, 5, 9)), 1.0)
    apply_control(state, relay_msg(cav(5), nodes=(1, 5, 8)), 1.0)
    assert state.route_for((cav(0), cav(9)), 1.0) == cav(9)
    assert state.route_for((cav(1), cav(8)), 1.0) == cav(8)
