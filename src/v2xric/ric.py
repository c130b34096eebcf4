"""Controller runtime for relay assignment.

Maintains the latest indication report per node, builds an SNR-thresholded
undirected connectivity graph from the fresh ones, and solves hop-bounded
maximum-bottleneck-SNR (widest) paths between served pairs. Ties are broken
by fewer hops, then by lexicographically smallest node sequence under the
NodeId total order, so identical inputs always yield identical assignments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .ran import ControlBatch, IndicationReport, NodeId, NodeKind

_FRESH_EPS = 1e-9  # guards float tick arithmetic at the staleness boundary

# Elements of the min-array one relaxation chunk may materialise: a chunk of k
# relays costs k * n * n, so small graphs relax in one vectorised step and large
# ones in bounded-memory slices.
_SCRATCH_ELEMENTS = 2**17


@dataclass(slots=True)
class RicState:
    """Latest report per node plus the freshness rule used to trust them."""

    staleness_window_s: float = 0.25
    latest_report: dict[NodeId, IndicationReport] = field(default_factory=dict)
    rejected_out_of_order: int = 0


@dataclass(frozen=True, slots=True)
class RelayPath:
    """An assigned path; bottleneck is the minimum per-edge SNR along it."""

    nodes: tuple[NodeId, ...]
    bottleneck_snr_db: float

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ConfigurationError(f"path needs at least 2 nodes: {self.nodes}")
        if len(set(self.nodes)) != len(self.nodes):
            raise ConfigurationError(f"path nodes must be distinct: {self.nodes}")

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1


@dataclass(slots=True)
class XAppConfig:
    """Relay-assignment policy: threshold, hop budget, and served pairs."""

    snr_min_db: float = 5.0
    max_hops: int = 4
    pairs: tuple[tuple[NodeId, NodeId], ...] = ()
    allow_bs_relay: bool = False
    control_ttl_s: float = 0.5

    def validate(self) -> "XAppConfig":
        if not (-300.0 <= self.snr_min_db <= 300.0):
            raise ConfigurationError(f"snr_min_db out of range [-300, 300]: {self.snr_min_db}")
        if self.max_hops < 1:
            raise ConfigurationError(f"max_hops must be >= 1: {self.max_hops}")
        for u, v in self.pairs:
            if u == v:
                raise ConfigurationError(f"pair endpoints must differ: {u}")
        if not (0 < self.control_ttl_s < math.inf):
            raise ConfigurationError(f"control_ttl_s must be positive and finite: {self.control_ttl_s}")
        return self


@dataclass(slots=True)
class ConnectivityGraph:
    """Undirected SNR graph over the controller's current view.

    nodes are sorted by NodeId; snr is the symmetric matrix in that order of
    edge SNRs in dB, already at or above the build threshold, -inf where
    there is no edge.
    """

    nodes: tuple[NodeId, ...]
    snr: np.ndarray

    def edge_snr(self, u: NodeId, v: NodeId) -> float:
        """SNR of the u-v edge, -inf when there is none."""
        if u not in self.nodes or v not in self.nodes:
            return -math.inf
        return float(self.snr[self.nodes.index(u), self.nodes.index(v)])

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return self.edge_snr(u, v) > -math.inf

    def adjacency(self, snr_min_db: float = -math.inf) -> np.ndarray:
        """Dense matrix in node order: edge SNR where >= snr_min_db, else -inf."""
        return np.where(self.snr >= snr_min_db, self.snr, -np.inf)


@dataclass(slots=True)
class XAppDiagnostics:
    """Per-tick controller introspection, enough to derive every metric. The
    arrays run over `XAppConfig.pairs`; `routes` holds each path as NodeId
    codes padded with -1, and `hops` is 0 for an unserved pair."""

    t: float
    graph_nodes: int
    graph_edges: int
    pairs_total: int
    pairs_feasible: int
    pairs_direct: int
    pairs_relayed: int
    pairs_infeasible: int
    mean_hops: float
    messages_issued: int
    served: np.ndarray
    hops: np.ndarray
    direct: np.ndarray
    routes: np.ndarray
    bottleneck_snr_db: np.ndarray

    def path(self, pair: int) -> RelayPath | None:
        """The path assigned to the pair with this index, or None."""
        if not self.served[pair]:
            return None
        codes = self.routes[pair, : self.hops[pair] + 1].tolist()
        return RelayPath(nodes=tuple(map(NodeId.from_code, codes)),
                         bottleneck_snr_db=float(self.bottleneck_snr_db[pair]))


def ingest(state: RicState, report: IndicationReport) -> RicState:
    """Store the report unless a newer one is already held; an equally new
    report replaces the held one."""
    held = state.latest_report.get(report.source)
    if held is not None and report.t < held.t:
        state.rejected_out_of_order += 1
        return state
    state.latest_report[report.source] = report
    return state


def build_graph(state: RicState, t: float, snr_min_db: float) -> ConnectivityGraph:
    """Threshold the fresh reports into an undirected graph.

    Edge SNR is the minimum over the reported directions. A CAV-CAV edge needs
    both endpoints' own reports to be fresh; an edge with an infrastructure
    endpoint (RSU or BS) stands on a single fresh measurement. The nodes are
    every reporter, fresh or stale, and every edge endpoint.
    """
    reporters = np.array([src.code for src in state.latest_report], dtype=np.int64)
    fresh = [rep for rep in state.latest_report.values()
             if (t - rep.t) <= state.staleness_window_s + _FRESH_EPS]
    fresh_codes = np.array([rep.source.code for rep in fresh], dtype=np.int64)
    src = np.repeat(fresh_codes, [len(rep.neighbors) for rep in fresh])
    dst = np.concatenate([np.empty(0, dtype=np.int64), *(rep.neighbors for rep in fresh)])
    snr = np.concatenate([np.empty(0), *(rep.snr_db for rep in fresh)])

    # sort-and-diff dedup and searchsorted membership: np.unique, which np.isin
    # calls on all but tiny inputs, imports numpy.ma (~1 MB) on first use
    codes = np.sort(np.concatenate((reporters, dst)))
    codes = codes[np.diff(codes, prepend=-1) != 0]  # codes are non-negative
    is_fresh = np.bincount(np.searchsorted(codes, fresh_codes), minlength=len(codes)) > 0
    keep = np.bincount(np.searchsorted(codes, reporters), minlength=len(codes)) > 0
    nodes = [NodeId.from_code(c) for c in codes.tolist()]
    measured = np.full((len(codes), len(codes)), np.inf)  # [reporter, neighbour]
    np.minimum.at(measured, (np.searchsorted(codes, src), np.searchsorted(codes, dst)), snr)
    measured = np.minimum(measured, measured.T)
    infrastructure = np.array([node.kind != NodeKind.CAV for node in nodes], dtype=bool)
    edge = ((measured < np.inf) & (measured >= snr_min_db)
            & (infrastructure[:, None] | infrastructure[None, :]
               | (is_fresh[:, None] & is_fresh[None, :])))

    keep |= edge.any(axis=1)
    sel = np.nonzero(keep)[0]
    matrix = np.where(edge, measured, -np.inf)[np.ix_(sel, sel)]
    return ConnectivityGraph(nodes=tuple(nodes[i] for i in sel.tolist()), snr=matrix)


# --- hop-bounded widest paths ---------------------------------------------------

def _maxmin_tables(adj: np.ndarray, max_hops: int, relay_ok: np.ndarray) -> np.ndarray:
    """tables[h-1][s, d] = best bottleneck over s->d walks of exactly h edges
    whose interior nodes are all relay-eligible (-inf when none exists)."""
    n = adj.shape[0]
    tables = np.full((max_hops, n, n), -np.inf)
    tables[0] = adj
    relays = np.nonzero(relay_ok)[0]
    chunk = max(1, _SCRATCH_ELEMENTS // (n * n))
    for h in range(1, max_hops):
        prev, cur = tables[h - 1], tables[h]
        for start in range(0, len(relays), chunk):
            ks = relays[start : start + chunk]
            np.maximum(cur, np.minimum(prev.T[ks, :, None], adj[ks, None, :]).max(axis=0), out=cur)
    return tables


def _extract_paths(adj: np.ndarray, tables: np.ndarray, relay_ok: np.ndarray,
                   s: np.ndarray, d: np.ndarray, best: np.ndarray,
                   hops: np.ndarray) -> np.ndarray:
    """Greedy lexicographic walk per pair (s[p] -> d[p] at bottleneck best[p]
    in hops[p] edges): at each step take the smallest next node that keeps
    both the edge and the remaining completion at or above the bottleneck.
    All pairs advance together, one step per iteration. Returns one row of
    node indices per pair, padded with -1 past its destination.

    Any hop-minimal walk at the optimal bottleneck is simple (shortcutting a
    revisit would beat the hop count), so no visited set is needed.
    """
    steps = np.full((len(s), tables.shape[0] + 1), -1, dtype=np.int64)
    steps[:, 0] = s
    for k in range(1, int(hops.max(initial=0)) + 1):
        remaining = hops - (k - 1)
        last = remaining == 1
        steps[last, k] = d[last]
        walk = np.nonzero(remaining >= 2)[0]
        if len(walk):
            floor = best[walk, None]
            ok = ((adj[steps[walk, k - 1]] >= floor) & relay_ok
                  & (tables[remaining[walk] - 2, :, d[walk]] >= floor))
            if not ok.any(axis=1).all():
                raise RuntimeError("widest-path tables disagree with reconstruction")
            steps[walk, k] = np.argmax(ok, axis=1)
    return steps


def _widest_paths(nodes: tuple[NodeId, ...], snr: np.ndarray, ends: np.ndarray, max_hops: int,
                  allow_bs_relay: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Widest paths for the pairs in `ends`, (P, 2) NodeId codes, from column 0
    to column 1, over the graph `nodes` with edge matrix `snr`. Per pair: the
    best bottleneck over any hop count, the fewest hops achieving it (argmax
    picks the first, i.e. smallest, layer; 0 when unreachable), the path as
    NodeId codes padded with -1, and whether a direct edge joins the pair.

    Endpoints missing from the graph map to one extra isolated node, whose
    code reads -1, so every pair goes through the same solve.
    """
    n = len(nodes)
    codes = np.array([node.code for node in nodes] + [-1], dtype=np.int64)
    idx = np.searchsorted(codes[:-1], ends)
    s, d = np.where(codes[idx] == ends, idx, n).T
    adj = np.pad(snr, (0, 1), constant_values=-np.inf)
    relay_ok = np.array([allow_bs_relay or node.kind != NodeKind.BS for node in nodes] + [False])
    tables = _maxmin_tables(adj, max_hops, relay_ok)
    layers = tables[:, s, d]
    best = layers.max(axis=0)
    hops = np.where(np.isfinite(best), np.argmax(layers == best, axis=0) + 1, 0)
    steps = np.full((len(s), max_hops + 1), -1, dtype=np.int64)
    ok = hops > 0
    steps[ok] = _extract_paths(adj, tables, relay_ok, s[ok], d[ok], best[ok], hops[ok])
    return best, hops, codes[steps], adj[s, d] > -np.inf


def find_path(graph: ConnectivityGraph, s: NodeId, d: NodeId, max_hops: int,
              snr_min_db: float, allow_bs_relay: bool = False) -> RelayPath | None:
    """Widest feasible path from s to d within the hop budget, or None.

    Among simple paths of at most max_hops edges all at or above snr_min_db,
    maximizes the bottleneck SNR; ties fall to fewer hops, then to the
    lexicographically smallest node sequence.
    """
    if s == d:
        raise ValueError(f"path endpoints must differ: {s}")
    best, hops, routes, _ = _widest_paths(graph.nodes, graph.adjacency(snr_min_db),
                                          np.array([[s.code, d.code]]), max_hops, allow_bs_relay)
    if hops[0] == 0:
        return None
    return RelayPath(nodes=tuple(map(NodeId.from_code, routes[0, : hops[0] + 1].tolist())),
                     bottleneck_snr_db=float(best[0]))


# --- the xApp tick ----------------------------------------------------------------

@lru_cache(maxsize=4)
def _pair_codes(pairs: tuple[tuple[NodeId, NodeId], ...]) -> np.ndarray:
    """(P, 2) read-only NodeId codes of the pairs, smaller endpoint first."""
    codes = np.sort(np.array([(u.code, v.code) for u, v in pairs], dtype=np.int64)
                    .reshape(len(pairs), 2), axis=1)
    codes.setflags(write=False)
    return codes


def xapp_tick(state: RicState, t: float, cfg: XAppConfig) -> tuple[ControlBatch, XAppDiagnostics]:
    """One controller pass: graph from fresh reports, widest path per served
    pair (`cfg.pairs`), one message per non-destination node of every
    multi-hop path."""
    graph = build_graph(state, t, cfg.snr_min_db)  # thresholded at cfg.snr_min_db
    ends = _pair_codes(tuple(cfg.pairs))
    bottleneck, hops, routes, direct = _widest_paths(graph.nodes, graph.snr, ends, cfg.max_hops,
                                                     cfg.allow_bs_relay)
    served = hops > 0
    relayed = np.nonzero(hops >= 2)[0]
    paths = routes[relayed]
    path_row, col = np.nonzero(np.arange(paths.shape[1]) < hops[relayed, None])
    batch = ControlBatch(paths=paths, pair=relayed, target=paths[path_row, col],
                         path_row=path_row, issued_at=t)

    feasible = int(np.count_nonzero(served))
    n_direct = int(np.count_nonzero(direct))
    diagnostics = XAppDiagnostics(
        t=t,
        graph_nodes=len(graph.nodes),
        graph_edges=int(np.count_nonzero(np.triu(graph.snr > -np.inf))),
        pairs_total=len(ends),
        pairs_feasible=feasible,
        pairs_direct=n_direct,
        pairs_relayed=feasible - n_direct,
        pairs_infeasible=len(ends) - feasible,
        mean_hops=float(np.mean(hops[served])) if feasible else math.nan,
        messages_issued=len(batch),
        served=served,
        hops=hops,
        direct=direct,
        routes=routes,
        bottleneck_snr_db=bottleneck,
    )
    return batch, diagnostics
