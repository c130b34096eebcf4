"""Controller tests: report ingestion, graph building, relay assignment fan-out."""

import math

import numpy as np
import pytest

from reference_graph import reference_graph
from reference_paths import edges_of, random_connectivity_graph, reference_widest_path
from v2xric import (ConfigurationError, IndicationReport, NodeId, NodeKind, RelayPath,
                    RicState, SubscriptionRequest, XAppConfig, build_graph, emit_indication,
                    ingest, xapp_tick)


def cav(i):
    return NodeId(NodeKind.CAV, i)


def rsu(i):
    return NodeId(NodeKind.RSU, i)


def report(src, t, links):
    """links: list of (rx, snr_db), in any order."""
    links = sorted(links)
    return IndicationReport(source=src, t=t, position=(0.0, 0.0, 1.6),
                            neighbors=np.array([rx.code for rx, _ in links], dtype=np.int64),
                            snr_db=np.array([snr for _, snr in links], dtype=np.float64))


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
    assert state.latest_report[cav(0)].snr_db.tolist() == [4.0]


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
    i, j = g.nodes.index(rsu(0)), g.nodes.index(cav(1))
    assert adj[i, j] == adj[j, i] == 15.0
    assert adj[i, i] == -math.inf
    k = g.nodes.index(cav(2))
    assert adj[i, k] == adj[k, j] == -math.inf


def random_ric_state(rng, t=1.0, window_s=0.25):
    """Seeded controller view: mixed-kind nodes that report fresh, report
    stale or never report; pairs measured from neither side, one side, or both
    sides with equal or different SNRs; sometimes a report cap, sometimes only
    infrastructure reporting."""
    n = int(rng.integers(2, 13))
    counters = {kind: 0 for kind in NodeKind}
    nodes = []
    for _ in range(n):
        kind = NodeKind(int(rng.choice(3, p=(0.1, 0.25, 0.65))))
        nodes.append(NodeId(kind, counters[kind]))
        counters[kind] += int(rng.integers(1, 3))
    nodes.sort()
    infrastructure_only = bool(rng.random() < 0.2)
    integer_snrs = bool(rng.random() < 0.5)

    def draw():  # small integers make threshold and cap ties
        return float(rng.integers(0, 8)) if integer_snrs else float(rng.uniform(-10.0, 30.0))

    links = {node: [] for node in nodes}
    for a in range(n):
        for b in range(a + 1, n):
            u, v = nodes[a], nodes[b]
            shape = rng.choice(("none", "u", "v", "equal", "asymmetric"))
            if shape in ("u", "equal", "asymmetric"):
                links[u].append((v, draw()))
            if shape in ("v", "asymmetric"):
                links[v].append((u, draw()))
            if shape == "equal":
                links[v].append((u, links[u][-1][1]))
    cap = None if rng.random() < 0.6 else int(rng.integers(1, 4))
    state = RicState(staleness_window_s=window_s)
    for node in nodes:
        role = rng.choice(("fresh", "boundary", "stale", "silent"), p=(0.55, 0.1, 0.2, 0.15))
        if role == "silent" or (infrastructure_only and node.kind == NodeKind.CAV):
            continue
        age = {"fresh": float(rng.uniform(0.0, window_s)), "boundary": window_s,
               "stale": window_s + float(rng.uniform(0.01, 1.0))}[role]
        mine = sorted(links[node])
        sub = SubscriptionRequest(subscriber=node, measured_neighbors=cap)
        ingest(state, emit_indication(node, (0.0, 0.0, 1.6), [rx.code for rx, _ in mine],
                                      [snr for _, snr in mine], round(t - age, 9), sub))
    return state


def test_build_graph_matches_reference_on_random_reports():
    rng = np.random.default_rng(2024)
    edges_seen = silent_endpoint_edges = 0
    for _ in range(400):
        state = random_ric_state(rng)
        snr_min = float(rng.choice((-20.0, 0.0, 3.0, 4.0, float(rng.uniform(-5.0, 20.0)))))
        g = build_graph(state, 1.0, snr_min)
        nodes, edges = reference_graph(state, 1.0, snr_min)
        assert g.nodes == nodes
        assert np.array_equal(g.snr, g.snr.T)
        assert (np.diag(g.snr) == -np.inf).all()
        assert edges_of(g) == edges
        edges_seen += len(edges)
        silent_endpoint_edges += sum(u not in state.latest_report or v not in state.latest_report
                                   for u, v in edges)
    assert edges_seen >= 2000
    assert silent_endpoint_edges >= 100  # endpoints that never report still join the graph


# --- the xApp tick ---------------------------------------------------------------


def fresh_triangle(gamma_ok=True):
    """A, R, B all reporting at t=0: A-R at 9 dB, R-B at 7 dB, no A-B edge."""
    state = RicState(staleness_window_s=0.25)
    ingest(state, report(cav(0), 0.0, [(cav(5), 9.0)]))
    ingest(state, report(cav(5), 0.0, [(cav(0), 9.0), (cav(9), 7.0)]))
    ingest(state, report(cav(9), 0.0, [(cav(5), 7.0)]))
    return state


def codes(*nodes):
    return [node.code for node in nodes]


def test_xapp_tick_emits_one_message_per_forwarding_node():
    state = fresh_triangle()
    cfg = XAppConfig(snr_min_db=5.0, pairs=((cav(0), cav(9)),))
    batch, diag = xapp_tick(state, 0.0, cfg)
    assert len(batch) == 2
    assert batch.target.tolist() == codes(cav(0), cav(5))
    assert batch.path_row.tolist() == [0, 0]
    assert batch.pair.tolist() == [0]
    assert batch.paths.tolist() == [codes(cav(0), cav(5), cav(9)) + [-1] * (cfg.max_hops - 2)]
    assert batch.issued_at == 0.0
    assert batch.ttl_s == cfg.control_ttl_s
    assert diag.path(0) == RelayPath(nodes=(cav(0), cav(5), cav(9)), bottleneck_snr_db=7.0)


def test_direct_pairs_emit_no_messages():
    state = RicState(staleness_window_s=0.25)
    ingest(state, report(cav(0), 0.0, [(cav(1), 10.0)]))
    ingest(state, report(cav(1), 0.0, [(cav(0), 10.0)]))
    cfg = XAppConfig(snr_min_db=5.0, pairs=((cav(0), cav(1)),))
    batch, diag = xapp_tick(state, 0.0, cfg)
    assert len(batch) == 0
    assert diag.direct.tolist() == [True]
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
    batch, diag = xapp_tick(state, 0.0, cfg)
    assert diag.pairs_relayed == 3
    assert batch.target.tolist() == codes(cav(0), cav(1), cav(10), cav(11), cav(20), cav(21))
    assert batch.path_row.tolist() == [0, 0, 1, 1, 2, 2]
    assert batch.pair.tolist() == [0, 1, 2]
    assert diag.messages_issued == len(batch) == 6


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
    assert diag.served.tolist() == [True, False]
    assert diag.hops.tolist() == [2, 0]
    assert diag.path(0).nodes == (cav(0), cav(5), cav(9))
    assert diag.path(1) is None


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
                                             for (u, v), snr in edges_of(g).items()
                                             if node in (u, v)]))
        pairs = tuple((u, v) for k, u in enumerate(g.nodes) for v in g.nodes[k + 1:])
        max_hops = int(rng.integers(1, 6))
        snr_min = float(rng.choice((-5.0, 1.5, 4.0)))
        for allow_bs in (False, True):
            cfg = XAppConfig(snr_min_db=snr_min, max_hops=max_hops, pairs=pairs,
                             allow_bs_relay=allow_bs)
            _, diag = xapp_tick(state, 0.0, cfg)
            for k, (u, v) in enumerate(pairs):
                want = reference_widest_path(g, u, v, max_hops, snr_min, allow_bs)
                got = diag.path(k)
                if want is None:
                    assert got is None
                else:
                    assert (got.bottleneck_snr_db, got.nodes) == want
                    checked += 1
    assert checked >= 1000


def test_empty_pair_list_serves_nothing():
    state = fresh_triangle()
    batch, diag = xapp_tick(state, 0.0, XAppConfig(snr_min_db=5.0))
    assert len(batch) == 0
    assert diag.graph_nodes == 3  # the graph is still built
    assert diag.pairs_total == 0
    assert len(diag.served) == 0


def test_empty_controller_state_is_quiet():
    state = RicState()
    batch, diag = xapp_tick(state, 0.0, XAppConfig(pairs=((cav(0), cav(1)),)))
    assert len(batch) == 0
    assert diag.served.tolist() == [False]
    assert diag.graph_nodes == 0
    assert diag.pairs_total == 1
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
    dict(control_ttl_s=math.inf),
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
