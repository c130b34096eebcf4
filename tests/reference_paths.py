"""Independent reference implementations of the hop-bounded widest-path problem.

Used by the pathfinding tests as oracles. `reference_widest_path` is a plain
depth-first enumeration of all simple paths, scored by (-bottleneck, hops,
node sequence) so the minimum key is the unique expected answer under the
production tie-break rules; it is deliberately written with none of the
production code's vectorized machinery. `reference_maxmin_tables` is the
controller's former relaxation, full `n x n` tables for every hop layer,
against which the column tables and per-pair last layer are compared bit for
bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from slot_adapter import graph_nodes
from v2xric import NodeId, NodeKind

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
