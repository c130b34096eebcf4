"""Widest-path tests: optimality, hop budget, tie-breaks, oracle equivalence."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from reference_paths import (edges_of, graph_of, random_connectivity_graph,
                             reference_maxmin_tables, reference_widest_path)
from slot_adapter import graph_nodes
from v2xric import NodeId, NodeKind, find_path
from v2xric.ran import kinds
from v2xric.ric import _SCRATCH_ELEMENTS, _extract_paths, _maxmin_tables, _widest_paths


def cav(i):
    return NodeId(NodeKind.CAV, i)


def rsu(i):
    return NodeId(NodeKind.RSU, i)


def bs(i):
    return NodeId(NodeKind.BS, i)


def solve(g, ends, max_hops, allow_bs_relay):
    """_widest_paths on graph g for the pairs `ends`, (P, 2) graph rows."""
    relay_ok = allow_bs_relay | (kinds(g.codes) != NodeKind.BS)
    return _widest_paths(g.snr, relay_ok, ends[:, 0], ends[:, 1], max_hops)


def test_direct_edge():
    g = graph_of({(cav(0), cav(1)): 12.0})
    path = find_path(*g, cav(0), cav(1), max_hops=4, snr_min_db=5.0)
    assert path.nodes == (cav(0), cav(1))
    assert path.bottleneck_snr_db == 12.0
    assert path.hops == 1


def test_relay_bridges_missing_direct_edge():
    g = graph_of({(cav(0), rsu(0)): 9.0, (rsu(0), cav(1)): 7.0})
    path = find_path(*g, cav(0), cav(1), max_hops=4, snr_min_db=5.0)
    assert path.nodes == (cav(0), rsu(0), cav(1))
    assert path.bottleneck_snr_db == 7.0


def test_relay_beats_weak_direct_edge():
    g = graph_of({(cav(0), cav(1)): 6.0, (cav(0), rsu(0)): 9.0, (rsu(0), cav(1)): 9.0})
    relayed = find_path(*g, cav(0), cav(1), max_hops=4, snr_min_db=5.0)
    assert relayed.nodes == (cav(0), rsu(0), cav(1))
    assert relayed.bottleneck_snr_db == 9.0
    direct_only = find_path(*g, cav(0), cav(1), max_hops=1, snr_min_db=5.0)
    assert direct_only.nodes == (cav(0), cav(1))
    assert direct_only.bottleneck_snr_db == 6.0


def test_hop_budget_is_a_hard_limit():
    chain = [cav(i) for i in range(6)]
    edges = {(chain[i], chain[i + 1]): 10.0 for i in range(5)}
    g = graph_of(edges)
    assert find_path(*g, chain[0], chain[5], max_hops=4, snr_min_db=5.0) is None
    path = find_path(*g, chain[0], chain[5], max_hops=5, snr_min_db=5.0)
    assert path.hops == 5


def test_hop_budget_clamps_to_the_graph_size():
    """A hop-minimal widest path is simple, so a budget past n - 1 edges
    changes nothing: a budget of 10**6 gives the same solve as n - 1, bytes
    and widths included, without tables for the layers no path can use."""
    chain = [cav(i) for i in range(10)]
    g = graph_of({(chain[i], chain[i + 1]): 10.0 + i % 3 for i in range(9)})
    ends = np.array([[0, 9], [2, 7]])  # chain[i] is row i
    want = solve(g, ends, 9, False)
    tracemalloc.start()
    try:
        got = solve(g, ends, 10**6, False)
        path = find_path(*g, chain[0], chain[9], max_hops=10**6, snr_min_db=5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert want[1].tolist() == [9, 5]
    assert [(a.shape, a.tobytes()) for a in got] == [(a.shape, a.tobytes()) for a in want]
    assert path == find_path(*g, chain[0], chain[9], max_hops=9, snr_min_db=5.0)
    assert path.nodes == tuple(chain)
    assert peak < 1e6, peak  # unclamped, the tables alone would take ~176 MB
    rng = np.random.default_rng(19)
    for _ in range(50):
        g = random_connectivity_graph(rng)
        ends = rng.choice(len(g.codes), size=(1, 2), replace=False)
        for allow_bs in (False, True):
            want = solve(g, ends, len(g.codes) - 1, allow_bs)
            got = solve(g, ends, 10**6, allow_bs)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_equal_bottleneck_prefers_fewer_hops():
    g = graph_of({
        (cav(0), cav(3)): 7.0,
        (cav(0), cav(1)): 7.0,
        (cav(1), cav(3)): 7.0,
    })
    path = find_path(*g, cav(0), cav(3), max_hops=4, snr_min_db=5.0)
    assert path.nodes == (cav(0), cav(3))


def test_equal_bottleneck_and_hops_prefers_smallest_sequence():
    g = graph_of({
        (cav(0), cav(1)): 7.0,
        (cav(1), cav(3)): 7.0,
        (cav(0), cav(2)): 7.0,
        (cav(2), cav(3)): 7.0,
    })
    path = find_path(*g, cav(0), cav(3), max_hops=4, snr_min_db=5.0)
    assert path.nodes == (cav(0), cav(1), cav(3))


def test_base_station_not_a_relay_unless_allowed():
    g = graph_of({(cav(0), bs(0)): 10.0, (bs(0), cav(1)): 10.0})
    assert find_path(*g, cav(0), cav(1), max_hops=4, snr_min_db=5.0) is None
    path = find_path(*g, cav(0), cav(1), max_hops=4, snr_min_db=5.0, allow_bs_relay=True)
    assert path.nodes == (cav(0), bs(0), cav(1))


def test_base_station_can_be_an_endpoint():
    g = graph_of({(bs(0), rsu(0)): 10.0, (rsu(0), cav(1)): 8.0})
    path = find_path(*g, bs(0), cav(1), max_hops=4, snr_min_db=5.0)
    assert path.nodes == (bs(0), rsu(0), cav(1))


def test_threshold_prunes_edges():
    g = graph_of({(cav(0), cav(1)): 4.9})
    assert find_path(*g, cav(0), cav(1), max_hops=4, snr_min_db=5.0) is None
    assert find_path(*g, cav(0), cav(1), max_hops=4, snr_min_db=4.9) is not None


def test_identical_endpoints_rejected():
    g = graph_of({(cav(0), cav(1)): 10.0})
    with pytest.raises(ValueError):
        find_path(*g, cav(0), cav(0), max_hops=4, snr_min_db=5.0)


def test_unknown_endpoint_gives_none():
    g = graph_of({(cav(0), cav(1)): 10.0})
    assert find_path(*g, cav(0), cav(9), max_hops=4, snr_min_db=5.0) is None


def test_matches_reference_enumeration_on_random_graphs():
    rng = np.random.default_rng(321)
    checked = 0
    for _ in range(250):
        g = random_connectivity_graph(rng)
        nodes = graph_nodes(g.codes)
        n = len(nodes)
        si, di = rng.choice(n, size=2, replace=False)
        s, d = nodes[int(si)], nodes[int(di)]
        gamma = float(rng.integers(0, 6)) if rng.random() < 0.5 else float(rng.uniform(-5, 15))
        allow_bs = bool(rng.random() < 0.3)
        got = find_path(*g, s, d, max_hops=4, snr_min_db=gamma, allow_bs_relay=allow_bs)
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
    """200-node queries against the oracle. find_path solves one destination
    column, so its relays fit one slice; test_ric's xapp_tick test on the same
    kind of graph serves enough destinations to relax in several."""
    rng = np.random.default_rng(4242)
    checked = 0
    for _ in range(5):
        g = random_connectivity_graph(rng, n_nodes=200, edge_p=0.03)
        # integer SNRs so bottleneck and hop-count ties occur
        g = graph_of({e: float(round(snr)) for e, snr in edges_of(g).items()}, graph_nodes(g.codes))
        nodes = graph_nodes(g.codes)
        n = len(nodes)
        # a slice holds _SCRATCH_ELEMENTS // (rows * columns) relays, with one
        # row per node and one column here
        assert _SCRATCH_ELEMENTS // (n * 1) >= n
        for _ in range(6):
            si, di = rng.choice(n, size=2, replace=False)
            s, d = nodes[int(si)], nodes[int(di)]
            for allow_bs in (False, True):
                got = find_path(*g, s, d, max_hops=4, snr_min_db=0.0, allow_bs_relay=allow_bs)
                want = reference_widest_path(g, s, d, 4, 0.0, allow_bs)
                if want is None:
                    assert got is None
                else:
                    assert got is not None
                    assert got.bottleneck_snr_db == want[0]
                    assert got.nodes == want[1]
                    checked += 1
    assert checked >= 40  # most of the 30 queries, each both ways, have a feasible path


def test_column_tables_match_full_tables():
    """The destination-column tables equal the matching columns of the full
    n x n tables, and the per-pair layers their (s, d) entries, the last layer
    included, bit for bit: integer SNRs for ties, base stations as relays or
    not, hop budgets 1-5, repeated destinations, a destination that is another
    pair's source, and pairs sharing the column of an edgeless node (the
    padded last row)."""
    rng = np.random.default_rng(909)
    seen = Counter()
    for trial in range(300):
        g = random_connectivity_graph(rng, max_nodes=12)
        if trial % 2:
            g = graph_of({e: float(round(snr)) for e, snr in edges_of(g).items()}, graph_nodes(g.codes))
        n = len(g.codes)
        adj = np.pad(g.snr, (0, 1), constant_values=-np.inf)
        max_hops = trial % 5 + 1
        few = rng.choice(n + 1, size=min(3, n + 1), replace=False)
        s = rng.integers(0, n + 1, size=6)
        d = rng.choice(few, size=6)
        s = np.append(s, [d[0], n, int(rng.integers(0, n)), n])
        d = np.append(d, [int(rng.integers(0, n)), int(rng.integers(0, n)), n, n])
        full = {}
        for allow_bs in (False, True):
            relay_ok = np.append(allow_bs | (kinds(g.codes) != NodeKind.BS), False)
            full[allow_bs] = reference_maxmin_tables(adj, max_hops, relay_ok)
            col, tables, layers = _maxmin_tables(adj, max_hops, relay_ok, s, d)
            dest = np.unique(d)
            assert np.array_equal(dest[col], d)
            assert tables.shape == (max_hops - 1, n + 1, len(dest))
            assert tables.tobytes() == full[allow_bs][: max_hops - 1][:, :, dest].tobytes()
            assert layers.shape == (max_hops, len(s))
            assert layers[-1].tobytes() == full[allow_bs][-1][s, d].tobytes()
            assert layers.tobytes() == full[allow_bs][:, s, d].tobytes()
        best = layers.max(axis=0)
        seen["bs relays matter"] += not np.array_equal(full[False], full[True])
        seen["tied layers"] += bool(((layers == best).sum(axis=0)[np.isfinite(best)] > 1).any())
        seen["last layer reachable"] += bool(np.isfinite(layers[-1]).any()) and max_hops > 1
    assert min(seen.values()) >= 20 and len(seen) == 3, seen


def test_widest_paths_allocates_no_full_tables():
    """One solve for 10 pairs on a 400-node graph stays below 4 MB of traced
    allocations; full n x n tables for all four hop layers peak near 9 MB."""
    rng = np.random.default_rng(11)
    g = random_connectivity_graph(rng, n_nodes=400, edge_p=0.02)
    ends = rng.choice(len(g.codes), size=(10, 2), replace=False)
    tracemalloc.start()
    try:
        best, _, _, _ = solve(g, ends, 4, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(best).any()  # the solve found paths, not just empty tables
    assert peak < 4e6, peak


def test_bottleneck_monotone_in_threshold():
    rng = np.random.default_rng(77)
    for _ in range(100):
        g = random_connectivity_graph(rng)
        nodes = graph_nodes(g.codes)
        n = len(nodes)
        si, di = rng.choice(n, size=2, replace=False)
        s, d = nodes[int(si)], nodes[int(di)]
        lo = find_path(*g, s, d, max_hops=4, snr_min_db=0.0)
        hi = find_path(*g, s, d, max_hops=4, snr_min_db=5.0)
        if hi is not None:
            assert lo is not None
            assert lo.bottleneck_snr_db >= hi.bottleneck_snr_db


def test_bottleneck_monotone_in_hop_budget():
    rng = np.random.default_rng(78)
    for _ in range(100):
        g = random_connectivity_graph(rng)
        nodes = graph_nodes(g.codes)
        n = len(nodes)
        si, di = rng.choice(n, size=2, replace=False)
        s, d = nodes[int(si)], nodes[int(di)]
        narrow = find_path(*g, s, d, max_hops=2, snr_min_db=0.0)
        wide = find_path(*g, s, d, max_hops=4, snr_min_db=0.0)
        if narrow is not None:
            assert narrow.hops <= 2
            assert wide is not None
            assert wide.bottleneck_snr_db >= narrow.bottleneck_snr_db
        if wide is not None:
            assert wide.hops <= 4


def test_extraction_rejects_a_bottleneck_its_tables_cannot_reach():
    """The walk checks itself against the tables: asked to extract a two-hop
    path at a bottleneck above the widest one, it raises instead of padding."""
    g = graph_of({(cav(0), cav(1)): 9.0, (cav(1), cav(2)): 7.0})
    relay_ok = np.ones(3, dtype=bool)
    s, d = np.array([0]), np.array([2])
    col, tables, layers = _maxmin_tables(g.snr, 2, relay_ok, s, d)
    assert layers[:, 0].tolist() == [-np.inf, 7.0]
    hops = np.array([2])
    steps = _extract_paths(g.snr, tables, relay_ok, s, d, col, np.array([7.0]), hops)
    assert steps[0].tolist() == [0, 1, 2]
    with pytest.raises(RuntimeError, match="disagree"):
        _extract_paths(g.snr, tables, relay_ok, s, d, col, np.array([7.5]), hops)
