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

import numpy as np

from .errors import ConfigurationError
from .ran import ControlMessage, IndicationReport, NodeId, NodeKind

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
        idx = self.index_of()
        if u not in idx or v not in idx:
            return -math.inf
        return float(self.snr[idx[u], idx[v]])

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return self.edge_snr(u, v) > -math.inf

    def index_of(self) -> dict[NodeId, int]:
        return {node: i for i, node in enumerate(self.nodes)}

    def adjacency(self, snr_min_db: float = -math.inf) -> np.ndarray:
        """Dense matrix in node order: edge SNR where >= snr_min_db, else -inf."""
        return np.where(self.snr >= snr_min_db, self.snr, -np.inf)


@dataclass(slots=True)
class XAppDiagnostics:
    """Per-tick controller introspection, enough to derive every metric."""

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
    graph: ConnectivityGraph
    pair_paths: dict[tuple[NodeId, NodeId], RelayPath]
    direct_pairs: frozenset[tuple[NodeId, NodeId]]


def ingest(state: RicState, report: IndicationReport) -> RicState:
    """Store the report unless an equally new or newer one is already held."""
    held = state.latest_report.get(report.source)
    if held is not None and report.t < held.t:
        state.rejected_out_of_order += 1
        return state
    state.latest_report[report.source] = report
    return state


def _is_fresh(report: IndicationReport, t: float, window_s: float) -> bool:
    return (t - report.t) <= window_s + _FRESH_EPS


def build_graph(state: RicState, t: float, snr_min_db: float) -> ConnectivityGraph:
    """Threshold the fresh reports into an undirected graph.

    Edge SNR is the minimum over the reported directions. A CAV-CAV edge needs
    both endpoints' own reports to be fresh; an edge with an infrastructure
    endpoint (RSU or BS) stands on a single fresh measurement. The nodes are
    every reporter, fresh or stale, and every edge endpoint.
    """
    reporters = np.array([src.code for src in state.latest_report], dtype=np.int64)
    fresh = [rep for rep in state.latest_report.values()
             if _is_fresh(rep, t, state.staleness_window_s)]
    fresh_codes = np.array([rep.source.code for rep in fresh], dtype=np.int64)
    src = np.repeat(fresh_codes, [len(rep.neighbors) for rep in fresh])
    dst = np.concatenate([np.empty(0, dtype=np.int64), *(rep.neighbors for rep in fresh)])
    snr = np.concatenate([np.empty(0), *(rep.snr_db for rep in fresh)])

    codes = np.unique(np.concatenate((reporters, dst)))
    nodes = [NodeId.from_code(c) for c in codes.tolist()]
    measured = np.full((len(codes), len(codes)), np.inf)  # [reporter, neighbour]
    np.minimum.at(measured, (np.searchsorted(codes, src), np.searchsorted(codes, dst)), snr)
    measured = np.minimum(measured, measured.T)
    is_fresh = np.isin(codes, fresh_codes)
    infrastructure = np.array([node.kind != NodeKind.CAV for node in nodes], dtype=bool)
    edge = ((measured < np.inf) & (measured >= snr_min_db)
            & (infrastructure[:, None] | infrastructure[None, :]
               | (is_fresh[:, None] & is_fresh[None, :])))

    keep = np.isin(codes, reporters) | edge.any(axis=1)
    sel = np.nonzero(keep)[0]
    matrix = np.where(edge, measured, -np.inf)[np.ix_(sel, sel)]
    return ConnectivityGraph(nodes=tuple(nodes[i] for i in sel.tolist()), snr=matrix)


# --- hop-bounded widest paths ---------------------------------------------------

def _relay_eligible(nodes: tuple[NodeId, ...], allow_bs_relay: bool) -> np.ndarray:
    return np.array([allow_bs_relay or node.kind != NodeKind.BS for node in nodes], dtype=bool)


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


def _best_and_hops(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per pair: the best bottleneck over any hop count, and the fewest hops
    achieving it (argmax picks the first, i.e. smallest, layer)."""
    best = tables.max(axis=0)
    hops = np.argmax(tables == best[None, :, :], axis=0) + 1
    return best, hops


def _extract_paths(adj: np.ndarray, tables: np.ndarray, relay_ok: np.ndarray,
                   s: np.ndarray, d: np.ndarray, best: np.ndarray,
                   hops: np.ndarray) -> list[list[int]]:
    """Greedy lexicographic walk per pair (s[p] -> d[p] at bottleneck best[p]
    in hops[p] edges): at each step take the smallest next node that keeps
    both the edge and the remaining completion at or above the bottleneck.
    All pairs advance together, one step per iteration.

    Any hop-minimal walk at the optimal bottleneck is simple (shortcutting a
    revisit would beat the hop count), so no visited set is needed.
    """
    steps = np.empty((len(s), int(hops.max(initial=0)) + 1), dtype=np.int64)
    steps[:, 0] = s
    for k in range(1, steps.shape[1]):
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
    return [row[: h + 1] for row, h in zip(steps.tolist(), hops.tolist())]


def find_path(graph: ConnectivityGraph, s: NodeId, d: NodeId, max_hops: int,
              snr_min_db: float, allow_bs_relay: bool = False) -> RelayPath | None:
    """Widest feasible path from s to d within the hop budget, or None.

    Among simple paths of at most max_hops edges all at or above snr_min_db,
    maximizes the bottleneck SNR; ties fall to fewer hops, then to the
    lexicographically smallest node sequence.
    """
    if s == d:
        raise ValueError(f"path endpoints must differ: {s}")
    idx = graph.index_of()
    if s not in idx or d not in idx:
        return None
    adj = graph.adjacency(snr_min_db)
    relay_ok = _relay_eligible(graph.nodes, allow_bs_relay)
    tables = _maxmin_tables(adj, max_hops, relay_ok)
    best, hops = _best_and_hops(tables)
    si, di = idx[s], idx[d]
    if not np.isfinite(best[si, di]):
        return None
    [chain] = _extract_paths(adj, tables, relay_ok, np.array([si]), np.array([di]),
                             best[[si], [di]], hops[[si], [di]])
    return RelayPath(
        nodes=tuple(graph.nodes[i] for i in chain),
        bottleneck_snr_db=float(best[si, di]),
    )


# --- the xApp tick ----------------------------------------------------------------

def xapp_tick(state: RicState, t: float, cfg: XAppConfig) -> tuple[list[ControlMessage], XAppDiagnostics]:
    """One controller pass: graph from fresh reports, widest path per served
    pair (`cfg.pairs`), one message per non-destination node of every
    multi-hop path."""
    graph = build_graph(state, t, cfg.snr_min_db)
    pairs = [(u, v) if u < v else (v, u) for u, v in cfg.pairs]
    idx = graph.index_of()
    n = len(graph.nodes)

    adj = graph.snr  # thresholded at cfg.snr_min_db by build_graph
    relay_ok = _relay_eligible(graph.nodes, cfg.allow_bs_relay)
    if n > 0:
        tables = _maxmin_tables(adj, cfg.max_hops, relay_ok)
        best, hops = _best_and_hops(tables)
    else:
        tables = best = hops = None  # every pair lookup below short-circuits

    served: list[tuple[NodeId, NodeId]] = []
    ends: list[tuple[int, int]] = []
    for u, v in pairs:
        si, di = idx.get(u), idx.get(v)
        if si is None or di is None or not np.isfinite(best[si, di]):
            continue
        served.append((u, v))
        ends.append((si, di))
    if ends:
        s_idx, d_idx = np.array(ends, dtype=np.int64).T
        bottlenecks = best[s_idx, d_idx]
        chains = _extract_paths(adj, tables, relay_ok, s_idx, d_idx, bottlenecks,
                                hops[s_idx, d_idx])
        bottlenecks = bottlenecks.tolist()
        is_direct = (adj[s_idx, d_idx] > -np.inf).tolist()
    else:
        chains = bottlenecks = is_direct = []

    messages: list[ControlMessage] = []
    pair_paths: dict[tuple[NodeId, NodeId], RelayPath] = {}
    direct: set[tuple[NodeId, NodeId]] = set()
    hop_counts: list[int] = []
    for (u, v), chain, bottleneck, one_hop in zip(served, chains, bottlenecks, is_direct):
        if one_hop:
            direct.add((u, v))
        path = RelayPath(nodes=tuple(map(graph.nodes.__getitem__, chain)),
                         bottleneck_snr_db=bottleneck)
        pair_paths[(u, v)] = path
        hop_counts.append(path.hops)
        if path.hops >= 2:
            messages.extend(
                ControlMessage(target=node, issued_at=t, assignment=path,
                               purpose=(u, v), ttl_s=cfg.control_ttl_s)
                for node in path.nodes[:-1]
            )

    feasible = len(pair_paths)
    n_direct = len(direct)
    diagnostics = XAppDiagnostics(
        t=t,
        graph_nodes=n,
        graph_edges=int(np.count_nonzero(np.triu(adj > -np.inf))),
        pairs_total=len(pairs),
        pairs_feasible=feasible,
        pairs_direct=n_direct,
        pairs_relayed=feasible - n_direct,
        pairs_infeasible=len(pairs) - feasible,
        mean_hops=float(np.mean(hop_counts)) if hop_counts else math.nan,
        messages_issued=len(messages),
        graph=graph,
        pair_paths=pair_paths,
        direct_pairs=frozenset(direct),
    )
    return messages, diagnostics
