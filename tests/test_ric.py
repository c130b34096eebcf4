"""Controller tests: report ingestion, graph building, relay assignment fan-out."""

import math

import numpy as np
import pytest

from reference_paths import random_connectivity_graph, reference_widest_path
from v2xric import (ConfigurationError, IndicationReport, LinkSample, NodeId, NodeKind,
                    RelayPath, RicState, XAppConfig, build_graph, ingest, xapp_tick)


def cav(i):
    return NodeId(NodeKind.CAV, i)


def rsu(i):
    return NodeId(NodeKind.RSU, i)


def report(src, t, links):
    """links: list of (rx, snr_db)."""
    samples = tuple(
        LinkSample(tx=src, rx=rx, distance_m=50.0, los=True, pathloss_db=99.0,
                   snr_db=snr, t=t)
        for rx, snr in links
    )
    return IndicationReport(source=src, t=t, position=(0.0, 0.0, 1.6), links=samples)


# --- ingestion -------------------------------------------------------------------


def test_ingest_keeps_newest_report():
    state = RicState()
    ingest(state, report(cav(0), 0.2, [(cav(1), 10.0)]))
    ingest(state, report(cav(0), 0.1, [(cav(1), 3.0)]))
    assert state.latest_report[cav(0)].t == 0.2
    assert state.rejected_out_of_order == 1


def test_ingest_same_instant_replaces():
    state = RicState()
    ingest(state, report(cav(0), 0.2, [(cav(1), 10.0)]))
    ingest(state, report(cav(0), 0.2, [(cav(1), 4.0)]))
    assert state.rejected_out_of_order == 0
    assert state.latest_report[cav(0)].links[0].snr_db == 4.0


# --- graph building --------------------------------------------------------------


def test_vehicle_edge_needs_both_reports_fresh():
    state = RicState(staleness_window_s=0.25)
    ingest(state, report(cav(0), 0.0, [(cav(1), 10.0)]))
    g = build_graph(state, 0.0, snr_min_db=5.0)
    assert not g.has_edge(cav(0), cav(1))  # cav(1) never reported
    ingest(state, report(cav(1), 0.0, [(cav(0), 12.0)]))
    g = build_graph(state, 0.0, snr_min_db=5.0)
    assert g.has_edge(cav(0), cav(1))


def test_infrastructure_edge_stands_on_single_report():
    state = RicState(staleness_window_s=0.25)
    ingest(state, report(rsu(0), 0.0, [(cav(1), 15.0)]))
    g = build_graph(state, 0.0, snr_min_db=5.0)
    assert g.has_edge(rsu(0), cav(1))


def test_stale_reports_drop_out_of_the_graph():
    state = RicState(staleness_window_s=0.25)
    ingest(state, report(cav(0), 0.0, [(cav(1), 10.0)]))
    ingest(state, report(cav(1), 0.0, [(cav(0), 10.0)]))
    assert build_graph(state, 0.25, snr_min_db=5.0).has_edge(cav(0), cav(1))  # boundary
    late = build_graph(state, 0.3, snr_min_db=5.0)
    assert not late.has_edge(cav(0), cav(1))
    assert cav(0) in late.nodes  # reporters stay known even when stale


def test_edge_snr_is_min_over_directions():
    state = RicState(staleness_window_s=0.25)
    ingest(state, report(cav(0), 0.0, [(cav(1), 10.0)]))
    ingest(state, report(cav(1), 0.0, [(cav(0), 3.0)]))
    assert not build_graph(state, 0.0, snr_min_db=5.0).has_edge(cav(0), cav(1))
    g = build_graph(state, 0.0, snr_min_db=2.0)
    assert g.edge_snr(cav(0), cav(1)) == 3.0


def test_adjacency_matrix_is_symmetric_with_minus_inf_holes():
    state = RicState(staleness_window_s=0.25)
    ingest(state, report(rsu(0), 0.0, [(cav(1), 15.0)]))
    ingest(state, report(cav(2), 0.0, []))
    g = build_graph(state, 0.0, snr_min_db=5.0)
    adj = g.adjacency(5.0)
    assert adj.shape == (3, 3)
    i, j = g.index_of()[rsu(0)], g.index_of()[cav(1)]
    assert adj[i, j] == adj[j, i] == 15.0
    assert adj[i, i] == -math.inf
    k = g.index_of()[cav(2)]
    assert adj[i, k] == adj[k, j] == -math.inf


# --- the xApp tick ---------------------------------------------------------------


def fresh_triangle(gamma_ok=True):
    """A, R, B all reporting at t=0: A-R at 9 dB, R-B at 7 dB, no A-B edge."""
    state = RicState(staleness_window_s=0.25)
    ingest(state, report(cav(0), 0.0, [(cav(5), 9.0)]))
    ingest(state, report(cav(5), 0.0, [(cav(0), 9.0), (cav(9), 7.0)]))
    ingest(state, report(cav(9), 0.0, [(cav(5), 7.0)]))
    return state


def test_xapp_tick_emits_one_message_per_forwarding_node():
    state = fresh_triangle()
    cfg = XAppConfig(snr_min_db=5.0, pairs=((cav(0), cav(9)),))
    messages, _diag = xapp_tick(state, 0.0, cfg)
    assert [m.target for m in messages] == [cav(0), cav(5)]
    for m in messages:
        assert m.purpose == (cav(0), cav(9))
        assert tuple(m.assignment.nodes) == (cav(0), cav(5), cav(9))
        assert m.assignment.bottleneck_snr_db == 7.0
        assert m.issued_at == 0.0
        assert m.ttl_s == cfg.control_ttl_s


def test_direct_pairs_emit_no_messages():
    state = RicState(staleness_window_s=0.25)
    ingest(state, report(cav(0), 0.0, [(cav(1), 10.0)]))
    ingest(state, report(cav(1), 0.0, [(cav(0), 10.0)]))
    cfg = XAppConfig(snr_min_db=5.0, pairs=((cav(0), cav(1)),))
    messages, diag = xapp_tick(state, 0.0, cfg)
    assert messages == []
    assert diag.pairs_direct == 1
    assert diag.pairs_relayed == 0
    assert diag.mean_hops == 1.0


def test_three_relayed_pairs_give_six_ordered_messages():
    state = RicState(staleness_window_s=0.25)
    pairs = []
    for k in range(3):
        a, r, b = cav(10 * k), cav(10 * k + 1), cav(10 * k + 2)
        ingest(state, report(a, 0.0, [(r, 9.0)]))
        ingest(state, report(r, 0.0, [(a, 9.0), (b, 8.0)]))
        ingest(state, report(b, 0.0, [(r, 8.0)]))
        pairs.append((a, b))
    cfg = XAppConfig(snr_min_db=5.0, pairs=tuple(pairs))
    messages, diag = xapp_tick(state, 0.0, cfg)
    assert diag.pairs_relayed == 3
    assert [m.target for m in messages] == [
        cav(0), cav(1), cav(10), cav(11), cav(20), cav(21)]
    assert diag.messages_issued == 6


def test_diagnostics_counts_are_consistent():
    state = fresh_triangle()
    ingest(state, report(cav(7), 0.0, []))  # reachable by nobody
    cfg = XAppConfig(snr_min_db=5.0, pairs=((cav(0), cav(9)), (cav(0), cav(7))))
    _, diag = xapp_tick(state, 0.0, cfg)
    assert diag.pairs_total == 2
    assert diag.pairs_feasible == 1
    assert diag.pairs_infeasible == 1
    assert diag.pairs_feasible == diag.pairs_direct + diag.pairs_relayed
    assert diag.mean_hops == 2.0
    assert (cav(0), cav(9)) in diag.pair_paths


def test_xapp_tick_paths_match_reference_on_random_graphs():
    """One tick extracts every pair's path in a single batch; each must be the
    brute-force oracle's path, ties included."""
    rng = np.random.default_rng(31)
    graphs = [random_connectivity_graph(rng) for _ in range(150)]
    graphs += [random_connectivity_graph(rng, n_nodes=20, edge_p=0.2) for _ in range(3)]
    checked = 0
    for g in graphs:
        state = RicState()
        for node in g.nodes:
            ingest(state, report(node, 0.0, [(v if u == node else u, snr)
                                             for (u, v), snr in g.edges.items()
                                             if node in (u, v)]))
        pairs = tuple((u, v) for k, u in enumerate(g.nodes) for v in g.nodes[k + 1:])
        max_hops = int(rng.integers(1, 6))
        snr_min = float(rng.choice((-5.0, 1.5, 4.0)))
        for allow_bs in (False, True):
            cfg = XAppConfig(snr_min_db=snr_min, max_hops=max_hops, pairs=pairs,
                             allow_bs_relay=allow_bs)
            _, diag = xapp_tick(state, 0.0, cfg)
            for u, v in pairs:
                want = reference_widest_path(g, u, v, max_hops, snr_min, allow_bs)
                got = diag.pair_paths.get((u, v))
                if want is None:
                    assert got is None
                else:
                    assert (got.bottleneck_snr_db, got.nodes) == want
                    checked += 1
    assert checked >= 1000


def test_empty_pair_list_serves_nothing():
    state = fresh_triangle()
    messages, diag = xapp_tick(state, 0.0, XAppConfig(snr_min_db=5.0))
    assert messages == []
    assert diag.graph_nodes == 3  # the graph is still built
    assert diag.pairs_total == 0
    assert diag.pair_paths == {}


def test_empty_controller_state_is_quiet():
    state = RicState()
    messages, diag = xapp_tick(state, 0.0, XAppConfig())
    assert messages == []
    assert diag.graph_nodes == 0
    assert diag.pairs_total == 0
    assert math.isnan(diag.mean_hops)


# --- configuration and path objects ----------------------------------------------


@pytest.mark.parametrize("kwargs", [
    dict(snr_min_db=500.0),
    dict(snr_min_db=-500.0),
    dict(max_hops=0),
    dict(snr_min_db=math.nan),
    dict(control_ttl_s=math.nan),
    dict(pairs=((NodeId(NodeKind.CAV, 1), NodeId(NodeKind.CAV, 1)),)),
    dict(control_ttl_s=0.0),
])
def test_xapp_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        XAppConfig(**kwargs).validate()


def test_relay_path_shape_is_enforced():
    with pytest.raises(ConfigurationError):
        RelayPath(nodes=(cav(0),), bottleneck_snr_db=5.0)
    with pytest.raises(ConfigurationError):
        RelayPath(nodes=(cav(0), cav(1), cav(0)), bottleneck_snr_db=5.0)
    assert RelayPath(nodes=(cav(0), cav(1), cav(2)), bottleneck_snr_db=5.0).hops == 2
