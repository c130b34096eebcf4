"""Widest-path tests: optimality, hop budget, tie-breaks, oracle equivalence."""

import numpy as np
import pytest

from reference_paths import random_connectivity_graph, reference_widest_path
from v2xric import ConnectivityGraph, NodeId, NodeKind, find_path
from v2xric.ric import _SCRATCH_ELEMENTS


def cav(i):
    return NodeId(NodeKind.CAV, i)


def rsu(i):
    return NodeId(NodeKind.RSU, i)


def bs(i):
    return NodeId(NodeKind.BS, i)


def graph_of(edges: dict, extra_nodes=()) -> ConnectivityGraph:
    canonical = {((u, v) if u < v else (v, u)): snr for (u, v), snr in edges.items()}
    nodes = set(extra_nodes)
    for u, v in canonical:
        nodes.add(u)
        nodes.add(v)
    return ConnectivityGraph(nodes=tuple(sorted(nodes)), edges=canonical)


def test_direct_edge():
    g = graph_of({(cav(0), cav(1)): 12.0})
    path = find_path(g, cav(0), cav(1), max_hops=4, snr_min_db=5.0)
    assert path.nodes == (cav(0), cav(1))
    assert path.bottleneck_snr_db == 12.0
    assert path.hops == 1


def test_relay_bridges_missing_direct_edge():
    g = graph_of({(cav(0), rsu(0)): 9.0, (rsu(0), cav(1)): 7.0})
    path = find_path(g, cav(0), cav(1), max_hops=4, snr_min_db=5.0)
    assert path.nodes == (cav(0), rsu(0), cav(1))
    assert path.bottleneck_snr_db == 7.0


def test_relay_beats_weak_direct_edge():
    g = graph_of({(cav(0), cav(1)): 6.0, (cav(0), rsu(0)): 9.0, (rsu(0), cav(1)): 9.0})
    relayed = find_path(g, cav(0), cav(1), max_hops=4, snr_min_db=5.0)
    assert relayed.nodes == (cav(0), rsu(0), cav(1))
    assert relayed.bottleneck_snr_db == 9.0
    direct_only = find_path(g, cav(0), cav(1), max_hops=1, snr_min_db=5.0)
    assert direct_only.nodes == (cav(0), cav(1))
    assert direct_only.bottleneck_snr_db == 6.0


def test_hop_budget_is_a_hard_limit():
    chain = [cav(i) for i in range(6)]
    edges = {(chain[i], chain[i + 1]): 10.0 for i in range(5)}
    g = graph_of(edges)
    assert find_path(g, chain[0], chain[5], max_hops=4, snr_min_db=5.0) is None
    path = find_path(g, chain[0], chain[5], max_hops=5, snr_min_db=5.0)
    assert path.hops == 5


def test_equal_bottleneck_prefers_fewer_hops():
    g = graph_of({
        (cav(0), cav(3)): 7.0,
        (cav(0), cav(1)): 7.0,
        (cav(1), cav(3)): 7.0,
    })
    path = find_path(g, cav(0), cav(3), max_hops=4, snr_min_db=5.0)
    assert path.nodes == (cav(0), cav(3))


def test_equal_bottleneck_and_hops_prefers_smallest_sequence():
    g = graph_of({
        (cav(0), cav(1)): 7.0,
        (cav(1), cav(3)): 7.0,
        (cav(0), cav(2)): 7.0,
        (cav(2), cav(3)): 7.0,
    })
    path = find_path(g, cav(0), cav(3), max_hops=4, snr_min_db=5.0)
    assert path.nodes == (cav(0), cav(1), cav(3))


def test_base_station_not_a_relay_unless_allowed():
    g = graph_of({(cav(0), bs(0)): 10.0, (bs(0), cav(1)): 10.0})
    assert find_path(g, cav(0), cav(1), max_hops=4, snr_min_db=5.0) is None
    path = find_path(g, cav(0), cav(1), max_hops=4, snr_min_db=5.0, allow_bs_relay=True)
    assert path.nodes == (cav(0), bs(0), cav(1))


def test_base_station_can_be_an_endpoint():
    g = graph_of({(bs(0), rsu(0)): 10.0, (rsu(0), cav(1)): 8.0})
    path = find_path(g, bs(0), cav(1), max_hops=4, snr_min_db=5.0)
    assert path.nodes == (bs(0), rsu(0), cav(1))


def test_threshold_prunes_edges():
    g = graph_of({(cav(0), cav(1)): 4.9})
    assert find_path(g, cav(0), cav(1), max_hops=4, snr_min_db=5.0) is None
    assert find_path(g, cav(0), cav(1), max_hops=4, snr_min_db=4.9) is not None


def test_identical_endpoints_rejected():
    g = graph_of({(cav(0), cav(1)): 10.0})
    with pytest.raises(ValueError):
        find_path(g, cav(0), cav(0), max_hops=4, snr_min_db=5.0)


def test_unknown_endpoint_gives_none():
    g = graph_of({(cav(0), cav(1)): 10.0})
    assert find_path(g, cav(0), cav(9), max_hops=4, snr_min_db=5.0) is None


def test_matches_reference_enumeration_on_random_graphs():
    rng = np.random.default_rng(321)
    checked = 0
    for _ in range(250):
        g = random_connectivity_graph(rng)
        n = len(g.nodes)
        si, di = rng.choice(n, size=2, replace=False)
        s, d = g.nodes[int(si)], g.nodes[int(di)]
        gamma = float(rng.integers(0, 6)) if rng.random() < 0.5 else float(rng.uniform(-5, 15))
        allow_bs = bool(rng.random() < 0.3)
        got = find_path(g, s, d, max_hops=4, snr_min_db=gamma, allow_bs_relay=allow_bs)
        want = reference_widest_path(g, s, d, 4, gamma, allow_bs)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got.bottleneck_snr_db == want[0]
            assert got.nodes == want[1]
            checked += 1
    assert checked > 50  # the loop actually exercised feasible cases


def test_matches_reference_on_graphs_relaxed_in_several_chunks():
    rng = np.random.default_rng(4242)
    checked = 0
    for _ in range(5):
        g = random_connectivity_graph(rng, n_nodes=200, edge_p=0.03)
        # integer SNRs so bottleneck and hop-count ties occur
        g = ConnectivityGraph(nodes=g.nodes,
                              edges={e: float(round(snr)) for e, snr in g.edges.items()})
        n = len(g.nodes)
        assert n ** 3 > 2 * _SCRATCH_ELEMENTS  # the relays span several chunks
        for _ in range(6):
            si, di = rng.choice(n, size=2, replace=False)
            s, d = g.nodes[int(si)], g.nodes[int(di)]
            for allow_bs in (False, True):
                got = find_path(g, s, d, max_hops=4, snr_min_db=0.0, allow_bs_relay=allow_bs)
                want = reference_widest_path(g, s, d, 4, 0.0, allow_bs)
                if want is None:
                    assert got is None
                else:
                    assert got is not None
                    assert got.bottleneck_snr_db == want[0]
                    assert got.nodes == want[1]
                    checked += 1
    assert checked >= 40  # most of the 30 queries, each both ways, have a feasible path


def test_bottleneck_monotone_in_threshold():
    rng = np.random.default_rng(77)
    for _ in range(100):
        g = random_connectivity_graph(rng)
        n = len(g.nodes)
        si, di = rng.choice(n, size=2, replace=False)
        s, d = g.nodes[int(si)], g.nodes[int(di)]
        lo = find_path(g, s, d, max_hops=4, snr_min_db=0.0)
        hi = find_path(g, s, d, max_hops=4, snr_min_db=5.0)
        if hi is not None:
            assert lo is not None
            assert lo.bottleneck_snr_db >= hi.bottleneck_snr_db


def test_bottleneck_monotone_in_hop_budget():
    rng = np.random.default_rng(78)
    for _ in range(100):
        g = random_connectivity_graph(rng)
        n = len(g.nodes)
        si, di = rng.choice(n, size=2, replace=False)
        s, d = g.nodes[int(si)], g.nodes[int(di)]
        narrow = find_path(g, s, d, max_hops=2, snr_min_db=0.0)
        wide = find_path(g, s, d, max_hops=4, snr_min_db=0.0)
        if narrow is not None:
            assert narrow.hops <= 2
            assert wide is not None
            assert wide.bottleneck_snr_db >= narrow.bottleneck_snr_db
        if wide is not None:
            assert wide.hops <= 4
