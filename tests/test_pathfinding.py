"""Widest-path tests: optimality, hop budget, tie-breaks, oracle equivalence."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from reference_ids import NodeId
from reference_paths import (edges_of, graph_of, random_connectivity_graph,
                             reference_column_solve, reference_maxmin_tables,
                             reference_tick_solve, reference_widest_path)
from slot_adapter import graph_nodes, widest_path
from v2xric import NodeKind, RicState, build_graph, emit_indication, ric
from v2xric.ran import kinds
from v2xric.ric import (_SCRATCH_BYTES, _edge_ranks, _extract_paths, _maxmin_tables,
                        _widest_paths, row_width)


def cav(i):
    return NodeId(NodeKind.CAV, i)


def rsu(i):
    return NodeId(NodeKind.RSU, i)


def tick_solve(adj, s, d, max_hops):
    """_widest_paths on a block of the one tick `adj`: that tick's outputs."""
    return tuple(a[0] for a in _widest_paths(*_edge_ranks(adj[None]), s, d, max_hops))


def solve(g, ends, max_hops):
    """_widest_paths on graph g for the pairs `ends`, (P, 2) graph rows."""
    return tick_solve(g.snr, ends[:, 0], ends[:, 1], max_hops)


def test_direct_edge():
    g = graph_of({(cav(0), cav(1)): 12.0})
    path = widest_path(*g, cav(0), cav(1), max_hops=4, snr_min_db=5.0)
    assert path.nodes == (cav(0), cav(1))
    assert path.bottleneck_snr_db == 12.0
    assert path.hops == 1


def test_relay_bridges_missing_direct_edge():
    g = graph_of({(cav(0), rsu(0)): 9.0, (rsu(0), cav(1)): 7.0})
    path = widest_path(*g, cav(0), cav(1), max_hops=4, snr_min_db=5.0)
    assert path.nodes == (cav(0), rsu(0), cav(1))
    assert path.bottleneck_snr_db == 7.0


def test_relay_beats_weak_direct_edge():
    g = graph_of({(cav(0), cav(1)): 6.0, (cav(0), rsu(0)): 9.0, (rsu(0), cav(1)): 9.0})
    relayed = widest_path(*g, cav(0), cav(1), max_hops=4, snr_min_db=5.0)
    assert relayed.nodes == (cav(0), rsu(0), cav(1))
    assert relayed.bottleneck_snr_db == 9.0
    direct_only = widest_path(*g, cav(0), cav(1), max_hops=1, snr_min_db=5.0)
    assert direct_only.nodes == (cav(0), cav(1))
    assert direct_only.bottleneck_snr_db == 6.0


def test_hop_budget_is_a_hard_limit():
    chain = [cav(i) for i in range(6)]
    edges = {(chain[i], chain[i + 1]): 10.0 for i in range(5)}
    g = graph_of(edges)
    assert widest_path(*g, chain[0], chain[5], max_hops=4, snr_min_db=5.0) is None
    path = widest_path(*g, chain[0], chain[5], max_hops=5, snr_min_db=5.0)
    assert path.hops == 5


def test_hop_budget_clamps_to_the_graph_size():
    """A hop-minimal widest path is simple, so a budget past n - 1 edges
    changes nothing: a budget of 10**6 gives the same solve as n - 1, bytes
    and widths included, without tables for the layers no path can use."""
    chain = [cav(i) for i in range(10)]
    g = graph_of({(chain[i], chain[i + 1]): 10.0 + i % 3 for i in range(9)})
    ends = np.array([[0, 9], [2, 7]])  # chain[i] is row i
    want = solve(g, ends, 9)
    tracemalloc.start()
    try:
        got = solve(g, ends, 10**6)
        path = widest_path(*g, chain[0], chain[9], max_hops=10**6, snr_min_db=5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert want[1].tolist() == [9, 5]
    assert [(a.shape, a.tobytes()) for a in got] == [(a.shape, a.tobytes()) for a in want]
    assert path == widest_path(*g, chain[0], chain[9], max_hops=9, snr_min_db=5.0)
    assert path.nodes == tuple(chain)
    assert peak < 1e6, peak  # unclamped, the tables alone would take ~176 MB
    rng = np.random.default_rng(19)
    for _ in range(50):
        g = random_connectivity_graph(rng)
        ends = rng.choice(len(g.codes), size=(1, 2), replace=False)
        want = solve(g, ends, len(g.codes) - 1)
        got = solve(g, ends, 10**6)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_equal_bottleneck_prefers_fewer_hops():
    g = graph_of({
        (cav(0), cav(3)): 7.0,
        (cav(0), cav(1)): 7.0,
        (cav(1), cav(3)): 7.0,
    })
    path = widest_path(*g, cav(0), cav(3), max_hops=4, snr_min_db=5.0)
    assert path.nodes == (cav(0), cav(3))


def test_equal_bottleneck_and_hops_prefers_smallest_sequence():
    g = graph_of({
        (cav(0), cav(1)): 7.0,
        (cav(1), cav(3)): 7.0,
        (cav(0), cav(2)): 7.0,
        (cav(2), cav(3)): 7.0,
    })
    path = widest_path(*g, cav(0), cav(3), max_hops=4, snr_min_db=5.0)
    assert path.nodes == (cav(0), cav(1), cav(3))


def test_rsu_can_be_an_endpoint():
    g = graph_of({(rsu(0), rsu(1)): 10.0, (rsu(1), cav(1)): 8.0})
    path = widest_path(*g, rsu(0), cav(1), max_hops=4, snr_min_db=5.0)
    assert path.nodes == (rsu(0), rsu(1), cav(1))


def test_threshold_prunes_edges():
    g = graph_of({(cav(0), cav(1)): 4.9})
    assert widest_path(*g, cav(0), cav(1), max_hops=4, snr_min_db=5.0) is None
    assert widest_path(*g, cav(0), cav(1), max_hops=4, snr_min_db=4.9) is not None


def test_unknown_endpoint_gives_none():
    g = graph_of({(cav(0), cav(1)): 10.0})
    assert widest_path(*g, cav(0), cav(9), max_hops=4, snr_min_db=5.0) is None


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
        got = widest_path(*g, s, d, max_hops=4, snr_min_db=gamma)
        assert got == reference_widest_path(g, s, d, 4, gamma)
        checked += got is not None
    assert checked > 50  # the loop actually exercised feasible cases


def test_matches_reference_on_graphs_relaxed_in_several_chunks():
    """200-node queries against the oracle. widest_path solves one destination
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
        # a slice holds _SCRATCH_BYTES // (rank bytes * rows * destinations)
        # relays, with one row per node and one destination here
        rank, _ = _edge_ranks(g.snr)
        assert _SCRATCH_BYTES // (rank.itemsize * n * 1) >= n
        for _ in range(12):
            si, di = rng.choice(n, size=2, replace=False)
            s, d = nodes[int(si)], nodes[int(di)]
            got = widest_path(*g, s, d, max_hops=4, snr_min_db=0.0)
            assert got == reference_widest_path(g, s, d, 4, 0.0)
            checked += got is not None
    assert checked >= 40  # most of the 60 queries have a feasible path


def test_column_tables_match_full_tables():
    """The destination-major rank tables, mapped back to SNRs (rank -1 as
    -inf), equal the matching columns of the full n x n float tables, and the
    per-pair layers their (s, d) entries, the last layer included, bit for
    bit: integer SNRs for ties, RSU relays, hop budgets 1-5, repeated
    destinations, a destination that is another pair's source, and pairs
    sharing the column of an edgeless node (the padded last row)."""
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
        linked = (adj > -np.inf).any(axis=1)
        full = reference_maxmin_tables(adj, max_hops, linked)
        rank, values = _edge_ranks(adj)
        col, tables, layers = _maxmin_tables(rank[None], max_hops, s, d)
        tables, layers = tables[:, 0], layers[:, 0]
        dest = np.unique(d)
        assert np.array_equal(dest[col], d)
        assert tables.shape == (max_hops - 1, len(dest), n + 1)
        tables = values[tables].transpose(0, 2, 1)
        assert tables.tobytes() == full[: max_hops - 1][:, :, dest].tobytes()
        assert layers.shape == (max_hops, len(s))
        layers = values[layers]
        assert layers[-1].tobytes() == full[-1][s, d].tobytes()
        assert layers.tobytes() == full[:, s, d].tobytes()
        best = layers.max(axis=0)
        cav_only = linked & np.append(kinds(g.codes) == NodeKind.CAV, False)
        seen["rsu relays matter"] += not np.array_equal(
            full, reference_maxmin_tables(adj, max_hops, cav_only))
        seen["tied layers"] += bool(((layers == best).sum(axis=0)[np.isfinite(best)] > 1).any())
        seen["last layer reachable"] += bool(np.isfinite(layers[-1]).any()) and max_hops > 1
    assert min(seen.values()) >= 20 and len(seen) == 3, seen


def padded(solved, n, max_hops):
    """A solve's outputs with its path rows padded with -1 to the `row_width`
    of an n-row graph, as the controller writes them."""
    best, hops, rows, direct = solved
    wide = np.full((len(rows), row_width(n, max_hops)), -1, dtype=rows.dtype)
    wide[:, : rows.shape[1]] = rows
    return best, hops, wide, direct


def same_solve(got, want):
    """Whether two solves' outputs agree in dtype, shape and bytes."""
    return all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(got, want, strict=True))


def test_rank_solve_matches_the_float_column_solve():
    """Every output of the rank solve, the bottleneck in dB, the hops, the
    path rows and the direct flags, equals the float64 column solve's bit for
    bit: integer SNRs for ties, negative SNRs, RSU relays, hop budgets 1-5,
    repeated destinations, pairs on the padded edgeless row, and 176-node
    graphs serving 86 matched pairs, the shape of a 200 veh/km tick."""
    rng = np.random.default_rng(2020)
    seen = Counter()
    for trial in range(300):
        dense = trial % 24 == 0
        g = random_connectivity_graph(rng, **(dict(n_nodes=176, edge_p=0.2) if dense
                                              else dict(max_nodes=12)))
        integer = trial % 2 == 1
        if integer:  # whole dB, some below 0
            g = graph_of({e: float(round(snr)) - 3.0 for e, snr in edges_of(g).items()},
                         graph_nodes(g.codes))
        n = len(g.codes)
        adj = np.pad(g.snr, (0, 1), constant_values=-np.inf)
        max_hops = trial % 5 + 1
        if dense:
            ends = np.sort(rng.permutation(n)[:172].reshape(86, 2), axis=1)
            s, d = ends[:, 0], ends[:, 1]
        else:
            few = rng.choice(n + 1, size=min(3, n + 1), replace=False)
            s = np.append(rng.integers(0, n + 1, size=6), [n, int(rng.integers(0, n))])
            d = np.append(rng.choice(few, size=6), [int(rng.integers(0, n)), n])
        got = tick_solve(adj, s, d, max_hops)
        want = padded(reference_column_solve(adj, s, d, max_hops), n + 1, max_hops)
        assert same_solve(got, want), trial
        best, hops, rows, _ = got
        relays = rows[:, 1:-1][hops[:, None] > np.arange(1, rows.shape[1] - 1)]
        seen["dense, relayed"] += dense and bool((hops >= 2).any())
        seen["tied"] += integer and bool(len(np.unique(best[hops > 0])) < np.count_nonzero(hops))
        seen["negative"] += bool((np.isfinite(best) & (best < 0)).any())
        seen["rsu relays"] += bool((kinds(g.codes[relays[relays < n]]) == NodeKind.RSU).any())
        seen[f"max_hops {max_hops}"] += bool((hops > 0).any())
        seen["repeated destinations"] += len(np.unique(d)) < len(d)
    assert seen["dense, relayed"] >= 10 and min(seen.values()) >= 10 and len(seen) == 10, seen


def test_rank_solve_takes_int32_ranks_past_32767_distinct_snrs():
    """Ranks are int16 up to 32,767 distinct edge SNRs and int32 past them. A
    complete 260-node graph with 33,670 distinct SNRs takes the int32 path
    and solves as the float64 column solve does, bit for bit."""
    rng = np.random.default_rng(260)
    n = 260
    a, b = np.triu_indices(n, k=1)
    snr = rng.permutation(len(a)) * 0.01 - 100.0
    for m, dtype in ((32_767, np.int16), (32_768, np.int32)):
        adj = np.full((n, n), -np.inf)
        adj[a[:m], b[:m]] = adj[b[:m], a[:m]] = snr[:m]
        rank, values = _edge_ranks(adj)
        assert (rank.dtype, rank.max(), len(values)) == (dtype, m - 1, m + 1)
    adj[a, b] = adj[b, a] = snr
    rank, values = _edge_ranks(adj)
    assert (rank.dtype, len(a)) == (np.int32, 33_670)
    assert values[rank].tobytes() == adj.tobytes()
    ends = np.sort(rng.choice(n, size=(40, 2), replace=False), axis=1)
    for max_hops in (1, 2, 4):
        got = tick_solve(adj, ends[:, 0], ends[:, 1], max_hops)
        want = reference_column_solve(adj, ends[:, 0], ends[:, 1], max_hops)
        assert same_solve(got, padded(want, n, max_hops))
        assert (got[1] >= 2).any() == (max_hops > 1)


def test_edgeless_graph_serves_no_pair():
    adj = np.full((5, 5), -np.inf)
    s, d = np.array([0, 1, 3]), np.array([4, 2, 4])
    rank, values = _edge_ranks(adj)
    assert (rank == -1).all() and values.tolist() == [-np.inf]
    best, hops, rows, direct = got = tick_solve(adj, s, d, 4)
    assert best.tolist() == [-np.inf] * 3 and best.dtype == np.float64
    assert hops.tolist() == [0, 0, 0]
    assert (rows == -1).all()
    assert direct.tolist() == [False] * 3
    assert same_solve(got, padded(reference_column_solve(adj, s, d, 4), 5, 4))


def test_widest_paths_allocates_no_full_tables():
    """One solve for 10 pairs on a 400-node graph stays below 4 MB of traced
    allocations; full n x n tables for all four hop layers peak near 9 MB."""
    rng = np.random.default_rng(11)
    g = random_connectivity_graph(rng, n_nodes=400, edge_p=0.02)
    ends = rng.choice(len(g.codes), size=(10, 2), replace=False)
    tracemalloc.start()
    try:
        best, _, _, _ = solve(g, ends, 4)
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
        lo = widest_path(*g, s, d, max_hops=4, snr_min_db=0.0)
        hi = widest_path(*g, s, d, max_hops=4, snr_min_db=5.0)
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
        narrow = widest_path(*g, s, d, max_hops=2, snr_min_db=0.0)
        wide = widest_path(*g, s, d, max_hops=4, snr_min_db=0.0)
        if narrow is not None:
            assert narrow.hops <= 2
            assert wide is not None
            assert wide.bottleneck_snr_db >= narrow.bottleneck_snr_db
        if wide is not None:
            assert wide.hops <= 4


def test_extraction_rejects_a_bottleneck_its_tables_cannot_reach():
    """The walk checks itself against the tables: asked to extract a two-hop
    path at a bottleneck rank one above the widest, that of the graph's
    9 dB edge, it raises instead of padding."""
    g = graph_of({(cav(0), cav(1)): 9.0, (cav(1), cav(2)): 7.0})
    s, d = np.array([0]), np.array([2])
    rank, values = _edge_ranks(g.snr)
    col, tables, layers = _maxmin_tables(rank[None], 2, s, d)
    assert values[layers[:, 0, 0]].tolist() == [-np.inf, 7.0]
    widest = layers[:, 0, 0].max()
    assert values[widest + 1] == 9.0
    hops = np.array([[2]])
    steps = _extract_paths(rank[None], tables, s, d, col, np.array([[widest]]), hops, 3)
    assert steps[0, 0].tolist() == [0, 1, 2]
    with pytest.raises(RuntimeError, match="disagree"):
        _extract_paths(rank[None], tables, s, d, col, np.array([[widest + 1]]), hops, 3)


def report(view, step, links, snr, reporters):
    """Ingest, at `step`, the reports of `reporters` on the view's links
    (i, j) with these SNRs, each link from both ends."""
    i, j = links
    src, dst = np.concatenate((i, j)), np.concatenate((j, i))
    sent = np.isin(src, reporters)
    ric.ingest(view, emit_indication(reporters, src[sent], dst[sent],
                                     np.tile(snr, 2)[sent], step, None))


def solved_in_blocks(monkeypatch, ticks, pairs, max_hops, gammas, block):
    """`ric.solve` of `ticks` with its byte budget set to blocks of `block`
    ticks; checks that the ticks were solved in such blocks."""
    n = len(ticks[0][2])
    monkeypatch.setattr(ric, "_BLOCK_BYTES", block * 8 * n * (n + len(pairs)))
    blocks, widest = [], ric._widest_paths
    monkeypatch.setattr(ric, "_widest_paths",
                        lambda rank, *args: blocks.append(len(rank)) or widest(rank, *args))
    got = list(ric.solve(iter(ticks), pairs, max_hops, gammas))
    whole, rest = divmod(len(ticks), block)
    assert blocks == [block] * whole + [rest] * (rest > 0)
    return got


def same_solves(got, want):
    """Whether two lists of `Solve`s agree field for field, arrays in dtype,
    shape and bytes."""
    return len(got) == len(want) and all(
        (a.step, a.gammas, a.graph) == (b.step, b.gammas, b.graph)
        and same_solve((a.best, a.hops, a.paths, a.link), (b.best, b.hops, b.paths, b.link))
        for a, b in zip(got, want))


def test_blocked_solve_matches_the_per_tick_solve(monkeypatch):
    """The solve of a run's ticks in blocks of T equals, tick for tick, the
    per-tick oracle's solve of the view as it stood, every field byte for
    byte and the graph counted at three thresholds: T = 1 to 5, tick counts
    that are and are not multiples of T, edgeless ticks between ticks with
    edges, blocks of edgeless ticks only, and hop budgets from 1 to past n."""
    rng = np.random.default_rng(3535)
    seen = Counter()
    for trial in range(200):
        codes = random_connectivity_graph(rng, max_nodes=13, edge_p=0.0).codes
        n = len(codes)
        view = RicState(codes, staleness_steps=int(rng.integers(0, 3)))
        links = np.triu_indices(n, 1)
        pick = rng.permutation(len(links[0]))[: int(rng.integers(1, 9))]
        pairs = np.stack((links[0][pick], links[1][pick]), axis=1)
        max_hops = int(rng.choice([1, 2, 3, 4, n - 1, n + 3]))
        gamma = float(rng.choice([-5.0, 0.0, 3.0]))
        gammas = (gamma, gamma + float(rng.integers(1, 4)), gamma + float(rng.uniform(4.0, 12.0)))
        block = int(rng.integers(1, 6))
        silent = int(rng.integers(0, 2 * block + 1))  # ticks before the first report
        ticks, want = [], []
        for step in range(int(rng.integers(1, 13))):
            draw = rng.random()
            if step >= silent and draw < 0.5:
                snr = (rng.integers(0, 8, len(links[0])).astype(float) if trial % 2
                       else rng.uniform(-10.0, 30.0, len(links[0])))
                keep = rng.random(len(snr)) < 0.5
                report(view, step, (links[0][keep], links[1][keep]), snr[keep],
                       np.flatnonzero(rng.random(n) < 0.8))
            elif step >= silent and draw < 0.75:  # every row emptied: no edge
                report(view, step, (links[0][:0], links[1][:0]), np.empty(0), np.arange(n))
            ticks.append((step, build_graph(view, step, gammas[0]), view.reported_at >= 0))
            want.append(reference_tick_solve(view, step, pairs, max_hops, gammas))
        got = solved_in_blocks(monkeypatch, ticks, pairs, max_hops, gammas, block)
        assert same_solves(got, want), trial
        edges = [solved.graph[0][1] for solved in want]
        seen["T = 1"] += block == 1
        seen["partial last block"] += len(ticks) > block > 1 and len(ticks) % block > 0
        seen["edgeless between edges"] += any(
            edges[k] == 0 < min(max(edges[start:k]), max(edges[k + 1 : start + block]))
            for start in range(0, len(edges), block) for k in range(start + 1, start + block - 1)
            if k + 1 < len(edges))
        seen["edgeless block"] += any(len(edges[k : k + block]) > 1 and not any(edges[k : k + block])
                                      for k in range(0, len(edges), block))
        seen["relayed"] += any((solved.hops >= 2).any() for solved in want)
        seen["max_hops 1"] += max_hops == 1
        seen["max_hops >= n"] += max_hops >= n
    assert min(seen.values()) >= 10 and len(seen) == 7, seen


def test_a_block_past_32767_distinct_snrs_ranks_in_int32(monkeypatch):
    """Two ticks of a complete 200-node graph, 19,900 distinct SNRs each and
    39,800 between them: each tick alone ranks in int16, their block in
    int32, and the block's solves are the per-tick oracle's byte for byte."""
    rng = np.random.default_rng(32768)
    n = 200
    codes = np.array([NodeId(NodeKind.CAV, k).code for k in range(n)])
    view = RicState(codes)
    links = np.triu_indices(n, 1)
    pairs = np.sort(rng.choice(n, size=(12, 2), replace=False), axis=1)
    distinct = rng.permutation(2 * len(links[0])) * 0.001 - 10.0
    ticks, want = [], []
    for step, snr in enumerate(distinct.reshape(2, -1)):
        report(view, step, links, snr, np.arange(n))
        ticks.append((step, build_graph(view, step, -20.0), view.reported_at >= 0))
        want.append(reference_tick_solve(view, step, pairs, 3, (-20.0, 30.0)))
    assert [_edge_ranks(graph)[0].dtype for _, graph, _ in ticks] == [np.int16] * 2
    assert _edge_ranks(np.array([graph for _, graph, _ in ticks]))[0].dtype == np.int32
    got = solved_in_blocks(monkeypatch, ticks, pairs, 3, (-20.0, 30.0), 2)
    assert same_solves(got, want)
    assert all((solved.hops >= 1).all() for solved in got)
