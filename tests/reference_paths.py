"""Independent reference implementation of the hop-bounded widest-path problem.

Used by the pathfinding tests as an oracle: a plain depth-first enumeration of
all simple paths, scored by (-bottleneck, hops, node sequence) so the minimum
key is the unique expected answer under the production tie-break rules. It is
deliberately written with none of the production code's vectorized machinery.
"""

from __future__ import annotations

import math

from v2xric import ConnectivityGraph, NodeId, NodeKind


def reference_widest_path(graph: ConnectivityGraph, s: NodeId, d: NodeId,
                          max_hops: int, snr_min_db: float,
                          allow_bs_relay: bool = False):
    """Best (bottleneck_snr_db, node_tuple) over simple s-d paths of at most
    max_hops edges, every edge at or above snr_min_db, interior nodes never a
    base station unless allowed. None when no such path exists."""
    if s not in graph.nodes or d not in graph.nodes:
        return None
    adj: dict[NodeId, dict[NodeId, float]] = {node: {} for node in graph.nodes}
    for (u, v), snr in graph.edges.items():
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
            if nxt != d and not allow_bs_relay and nxt.kind == NodeKind.BS:
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


def random_connectivity_graph(rng, max_nodes: int = 8, n_nodes: int | None = None,
                              edge_p: float = 0.45) -> ConnectivityGraph:
    """Seeded random mixed-kind graph; half the draws use small-integer SNRs so
    bottleneck and hop-count ties actually occur. The node count is drawn from
    [2, max_nodes] unless n_nodes fixes it; each edge is present with edge_p."""
    n = int(rng.integers(2, max_nodes + 1)) if n_nodes is None else n_nodes
    counters = {NodeKind.CAV: 0, NodeKind.RSU: 0, NodeKind.BS: 0}
    nodes = []
    for _ in range(n):
        r = float(rng.random())
        kind = NodeKind.CAV if r < 0.7 else (NodeKind.RSU if r < 0.9 else NodeKind.BS)
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
    return ConnectivityGraph(nodes=nodes, edges=edges)
