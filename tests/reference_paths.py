"""Independent reference implementations of the hop-bounded widest-path problem.

Used by the pathfinding tests as oracles. `reference_widest_path` is a plain
depth-first enumeration of all simple paths, scored by (-bottleneck, hops,
node sequence) so the minimum key is the unique expected answer under the
production tie-break rules; it is deliberately written with none of the
production code's vectorized machinery. `reference_maxmin_tables` is the
controller's former relaxation, full `n x n` tables for every hop layer,
against which the column tables and per-pair last layer are compared bit for
bit. `reference_column_solve` is the controller's former float64 solve over
destination columns, against which the rank solve's outputs are compared bit
for bit on graphs too large for the enumeration. `reference_tick_solve` is
the controller's former solve of one tick at a time on its own ranks, against
which the tick-blocked solve is compared bit for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from reference_ids import NodeId
from slot_adapter import graph_nodes
from v2xric import NodeKind
from v2xric.ric import Solve, build_graph, row_width

Graph = NamedTuple("Graph", [("codes", np.ndarray), ("snr", np.ndarray)])  # widest_path(*graph, ...)


def graph_of(edges: dict, extra_nodes=()) -> Graph:
    """The graph with these undirected edges ({(u, v): snr_db}, either
    orientation) over `extra_nodes` plus every edge endpoint."""
    nodes = set(extra_nodes)
    for u, v in edges:
        nodes.add(u)
        nodes.add(v)
    nodes = tuple(sorted(nodes))
    idx = {node: i for i, node in enumerate(nodes)}
    snr = np.full((len(nodes), len(nodes)), -np.inf)
    for (u, v), value in edges.items():
        snr[idx[u], idx[v]] = snr[idx[v], idx[u]] = value
    return Graph(codes=np.array([node.code for node in nodes], dtype=np.int64), snr=snr)


def edges_of(graph: Graph) -> dict[tuple[NodeId, NodeId], float]:
    """{(u, v): snr_db} with u < v for every edge of the graph."""
    nodes = graph_nodes(graph.codes)
    n = len(nodes)
    return {(nodes[a], nodes[b]): float(graph.snr[a, b])
            for a in range(n) for b in range(a + 1, n) if graph.snr[a, b] > -math.inf}


def reference_widest_path(graph: Graph, s: NodeId, d: NodeId,
                          max_hops: int, snr_min_db: float):
    """Best (bottleneck_snr_db, node_tuple) over simple s-d paths of at most
    max_hops edges, every edge at or above snr_min_db; any node may relay.
    None when no such path exists."""
    nodes = graph_nodes(graph.codes)
    if s not in nodes or d not in nodes:
        return None
    adj: dict[NodeId, dict[NodeId, float]] = {node: {} for node in nodes}
    for (u, v), snr in edges_of(graph).items():
        if snr >= snr_min_db:
            adj[u][v] = snr
            adj[v][u] = snr

    best_key = None

    def walk(node: NodeId, visited: set[NodeId], path: list[NodeId], bottleneck: float):
        nonlocal best_key
        if node == d:
            key = (-bottleneck, len(path) - 1, tuple(path))
            if best_key is None or key < best_key:
                best_key = key
            return
        if len(path) - 1 == max_hops:
            return
        for nxt in sorted(adj[node]):
            if nxt in visited:
                continue
            visited.add(nxt)
            path.append(nxt)
            walk(nxt, visited, path, min(bottleneck, adj[node][nxt]))
            path.pop()
            visited.remove(nxt)

    walk(s, {s}, [s], math.inf)
    if best_key is None:
        return None
    return -best_key[0], best_key[2]


def reference_maxmin_tables(adj: np.ndarray, max_hops: int, linked: np.ndarray) -> np.ndarray:
    """tables[h-1][s, d] = best bottleneck over s->d walks of exactly h edges
    whose interior nodes all lie on `linked` rows (-inf when none exists)."""
    n = adj.shape[0]
    tables = np.full((max_hops, n, n), -np.inf)
    tables[0] = adj
    relays = np.nonzero(linked)[0]
    chunk = max(1, 2**17 // (n * n))  # relays per slice of at most 2**17 elements
    for h in range(1, max_hops):
        prev, cur = tables[h - 1], tables[h]
        for start in range(0, len(relays), chunk):
            ks = relays[start : start + chunk]
            np.maximum(cur, np.minimum(prev.T[ks, :, None], adj[ks, None, :]).max(axis=0), out=cur)
    return tables


# Elements of the min-array one relaxation chunk may materialise: k relays cost
# k * n * (destination columns), and the last hop n per pair.
_COLUMN_SCRATCH_ELEMENTS = 2**17


def _column_tables(adj: np.ndarray, max_hops: int, s: np.ndarray,
                   d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best bottlenecks of walks on the symmetric `adj` (-inf if none):
    `tables[h-1][k, col[p]]` from node k to d[p] in h < max_hops edges,
    relaxed from the destination side through the rows with an edge, and
    `layers[h-1][p]` from s[p] to d[p] in h <= max_hops, the last per pair."""
    n = adj.shape[0]
    dest = np.flatnonzero(np.bincount(d, minlength=n))  # distinct, ascending
    col = np.searchsorted(dest, d)
    tables = np.full((max_hops - 1, n, len(dest)), -np.inf)
    tables[:1] = adj[:, dest]  # no tables at all when max_hops == 1
    relays = np.flatnonzero((adj > -np.inf).any(axis=1))
    chunk = max(1, _COLUMN_SCRATCH_ELEMENTS // max(n * len(dest), 1))
    for prev, cur in zip(tables, tables[1:]):
        for start in range(0, len(relays), chunk):
            ks = relays[start : start + chunk]
            np.maximum(cur, np.minimum(adj[ks, :, None], prev[ks, None, :]).max(axis=0), out=cur)
    layers = np.concatenate((tables[:, s, col], adj[s, d][None]))
    if max_hops > 1:
        via = tables[-1]
        step = max(1, _COLUMN_SCRATCH_ELEMENTS // n)
        for p in (slice(start, start + step) for start in range(0, len(s), step)):
            layers[-1, p] = np.minimum(adj.take(s[p], axis=1), via.take(col[p], axis=1)).max(axis=0)
    return col, tables, layers


def _column_paths(adj: np.ndarray, tables: np.ndarray, s: np.ndarray, d: np.ndarray,
                  col: np.ndarray, best: np.ndarray, hops: np.ndarray) -> np.ndarray:
    """Greedy lexicographic walk per pair (s[p] -> d[p], table column col[p],
    bottleneck best[p], hops[p] edges; none if 0): each step takes the
    smallest next node keeping the edge and the remaining completion at or
    above the bottleneck, all pairs at once. Returns node indices, one row per
    pair, padded with -1. A hop-minimal walk at the optimal bottleneck is
    simple (shortcutting a revisit would beat the hop count): no visited set."""
    steps = np.full((len(s), tables.shape[0] + 2), -1, dtype=np.int64)
    steps[:, 0] = np.where(hops > 0, s, -1)
    for k in range(1, int(hops.max(initial=0)) + 1):
        remaining = hops - (k - 1)
        last = remaining == 1
        steps[last, k] = d[last]
        walk = np.nonzero(remaining >= 2)[0]
        if len(walk):
            floor = best[walk, None]
            ok = ((adj[steps[walk, k - 1]] >= floor)
                  & (tables[remaining[walk] - 2, :, col[walk]] >= floor))
            if not ok.any(axis=1).all():
                raise RuntimeError("widest-path tables disagree with reconstruction")
            steps[walk, k] = np.argmax(ok, axis=1)
    return steps


def reference_column_solve(adj: np.ndarray, s: np.ndarray, d: np.ndarray,
                           max_hops: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Widest paths from row s[p] to row d[p] of the symmetric edge matrix
    `adj` (-inf where there is no edge). Per pair: the best bottleneck over
    any hop count, the fewest hops achieving it (argmax picks the smallest
    such layer; 0 when unreachable), the path as rows padded with -1, and
    whether a direct edge joins the pair. Every row with an edge can relay,
    and no other row can. A hop-minimal widest path is simple, so the hop
    budget is clamped to one edge fewer than the rows with an edge: a deeper
    layer could only tie an earlier one, and argmax keeps the earlier."""
    linked = int(np.count_nonzero((adj > -np.inf).any(axis=1)))
    max_hops = max(1, min(max_hops, linked - 1))
    col, tables, layers = _column_tables(adj, max_hops, s, d)
    best = layers.max(axis=0)
    hops = np.where(np.isfinite(best), np.argmax(layers == best, axis=0) + 1, 0)
    steps = _column_paths(adj, tables, s, d, col, best, hops)
    return best, hops, steps, adj[s, d] > -np.inf


# Bytes of the min-array one relaxation chunk of the per-tick solve materialises.
_TICK_SCRATCH_BYTES = 2**20


def _tick_ranks(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One tick's edge matrix as ranks among its distinct edge SNRs (-1 for
    no edge; int16, or int32 past 32,767 values) and the SNR of each rank,
    -inf last."""
    edge = adj > -np.inf
    values, inverse = np.unique(adj[edge], return_inverse=True)
    rank = np.full(adj.shape, -1,
                   dtype=np.int16 if len(values) <= np.iinfo(np.int16).max else np.int32)
    rank[edge] = inverse
    return rank, np.append(values, -np.inf)


def _tick_tables(rank: np.ndarray, max_hops: int, s: np.ndarray,
                 d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`tables[h-1][col[p], k]`, the best bottleneck rank from k to d[p] in h
    < max_hops edges through the rows with an edge, and `layers[h-1][p]`
    from s[p] to d[p] in h <= max_hops."""
    n = rank.shape[0]
    dest = np.flatnonzero(np.bincount(d, minlength=n))
    col = np.searchsorted(dest, d)
    tables = np.full((max_hops - 1, len(dest), n), -1, dtype=rank.dtype)
    tables[:1] = rank[dest]
    relays = np.flatnonzero((rank >= 0).any(axis=1))
    chunk = max(1, _TICK_SCRATCH_BYTES // max(rank.itemsize * n * len(dest), 1))
    for prev, cur in zip(tables, tables[1:]):
        for start in range(0, len(relays), chunk):
            ks = relays[start : start + chunk]
            np.maximum(cur, np.minimum(prev[:, ks].T[:, :, None], rank[ks, None, :]).max(axis=0),
                       out=cur)
    layers = np.concatenate((tables[:, col, s], rank[s, d][None]))
    if max_hops > 1:
        via = tables[-1]
        step = max(1, _TICK_SCRATCH_BYTES // (rank.itemsize * n))
        for p in (slice(start, start + step) for start in range(0, len(s), step)):
            layers[-1, p] = np.minimum(rank[s[p]], via[col[p]]).max(axis=1)
    return col, tables, layers


def _tick_paths(rank: np.ndarray, tables: np.ndarray, s: np.ndarray, d: np.ndarray,
                col: np.ndarray, best: np.ndarray, hops: np.ndarray) -> np.ndarray:
    """The greedy lexicographic walk of each pair at its bottleneck rank and
    hop count, as rows padded with -1."""
    steps = np.full((len(s), tables.shape[0] + 2), -1, dtype=np.int64)
    steps[:, 0] = np.where(hops > 0, s, -1)
    for k in range(1, int(hops.max(initial=0)) + 1):
        remaining = hops - (k - 1)
        last = remaining == 1
        steps[last, k] = d[last]
        walk = np.nonzero(remaining >= 2)[0]
        if len(walk):
            floor = best[walk, None]
            ok = ((rank[steps[walk, k - 1]] >= floor)
                  & (tables[remaining[walk] - 2, col[walk]] >= floor))
            if not ok.any(axis=1).all():
                raise RuntimeError("widest-path tables disagree with reconstruction")
            steps[walk, k] = np.argmax(ok, axis=1)
    return steps


def reference_rank_solve(adj: np.ndarray, s: np.ndarray, d: np.ndarray,
                         max_hops: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One tick's rank solve: per pair the bottleneck in dB, the hops, the
    path rows and the direct flags, the hop budget clamped to one edge fewer
    than this tick's rows with an edge."""
    rank, values = _tick_ranks(adj)
    linked = int(np.count_nonzero((rank >= 0).any(axis=1)))
    max_hops = max(1, min(max_hops, linked - 1))
    col, tables, layers = _tick_tables(rank, max_hops, s, d)
    best = layers.max(axis=0)
    hops = np.where(best >= 0, np.argmax(layers == best, axis=0) + 1, 0)
    steps = _tick_paths(rank, tables, s, d, col, best, hops)
    return values[best], hops, steps, rank[s, d] >= 0


def reference_tick_solve(view, step: int, pairs: np.ndarray, max_hops: int,
                         gammas: tuple[float, ...]) -> Solve:
    """The solve of the view's tick at `step` alone: its graph at gammas[0],
    its paths padded to `row_width`, and its (nodes, edges) at each of
    `gammas`, an edge counted once in the upper triangle."""
    s, d = pairs[:, 0], pairs[:, 1]
    snr = build_graph(view, step, gammas[0])
    best, hops, steps, _ = reference_rank_solve(snr, s, d, max_hops)
    paths = np.full((len(pairs), row_width(len(view.codes), max_hops)), -1, dtype=np.int64)
    paths[:, : steps.shape[1]] = steps
    reported = view.reported_at >= 0
    graph = tuple((int(np.count_nonzero(reported | edge.any(axis=1))),
                   int(np.count_nonzero(np.triu(edge)))) for edge in (snr >= g for g in gammas))
    return Solve(step, gammas, graph, best, hops, paths, snr[s, d])


def random_connectivity_graph(rng, max_nodes: int = 8, n_nodes: int | None = None,
                              edge_p: float = 0.45) -> Graph:
    """Seeded random graph of CAVs and RSUs; half the draws use small-integer
    SNRs so bottleneck and hop-count ties actually occur. The node count is
    drawn from [2, max_nodes] unless n_nodes fixes it; each edge is present
    with edge_p."""
    n = int(rng.integers(2, max_nodes + 1)) if n_nodes is None else n_nodes
    counters = {NodeKind.CAV: 0, NodeKind.RSU: 0}
    nodes = []
    for _ in range(n):
        kind = NodeKind.CAV if rng.random() < 0.7 else NodeKind.RSU
        nodes.append(NodeId(kind, counters[kind]))
        counters[kind] += 1
    nodes = tuple(sorted(nodes))
    integer_snrs = bool(rng.random() < 0.5)
    edges = {}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < edge_p:
                if integer_snrs:
                    snr = float(rng.integers(0, 8))
                else:
                    snr = float(rng.uniform(-10.0, 30.0))
                edges[(nodes[a], nodes[b])] = snr
    return graph_of(edges, nodes)
