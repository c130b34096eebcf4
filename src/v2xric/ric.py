"""Controller runtime for relay assignment.

Holds each node's latest indication report as one row of a slot-indexed SNR
matrix, builds an SNR-thresholded undirected connectivity graph from the
fresh rows, and solves hop-bounded maximum-bottleneck-SNR (widest) paths
between served pairs from tables of the served destinations' rows alone, on
the ranks of the edge SNRs.
Ties go to fewer hops, then to the lexicographically smallest node sequence
in code order, so identical inputs yield identical assignments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, require_int
from .ran import ControlBatch, IndicationBatch, NodeKind, kinds

# Bytes of the min-array one relaxation chunk may materialise: k relays cost
# k * (served destinations) * n ranks, and the last hop n ranks per pair.
_SCRATCH_BYTES = 2**20


@dataclass(slots=True)
class XAppConfig:
    """Relay-assignment policy: edge SNR threshold and hop budget."""

    snr_min_db: float = 5.0
    max_hops: int = 4

    def validate(self) -> "XAppConfig":
        if not (-300.0 <= self.snr_min_db <= 300.0):
            raise ConfigurationError(f"snr_min_db out of range [-300, 300]: {self.snr_min_db}")
        require_int("max_hops", self.max_hops)
        if self.max_hops < 1:
            raise ConfigurationError(f"max_hops must be >= 1: {self.max_hops}")
        return self


@dataclass(slots=True)
class RicState:
    """The xApp's run state by view slot, a node's row in the n ascending
    node `codes` (slot order keeps the report cap's and the pathfinder's
    tie-breaks on code order): the step each node's held report was taken
    (-1 before its first), `measured[reporter, neighbour]`, each link's SNR in
    that report (+inf where it lacks the link), and `staleness_steps`, the
    age in steps up to which a report is fresh. The policy `xapp` serves
    `pairs`, (P, 2) slots stored smaller first; `sent` is each pair's last sent
    path row (-1 if not relayed), W = max(1, min(max_hops, n - 1)) + 1 wide."""

    codes: np.ndarray
    staleness_steps: int = 2
    rejected_out_of_order: int = 0
    pairs: np.ndarray = field(default=(), kw_only=True)
    xapp: XAppConfig = field(default_factory=XAppConfig, kw_only=True)
    reported_at: np.ndarray = field(init=False)
    measured: np.ndarray = field(init=False)
    sent: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.codes = np.asarray(self.codes, dtype=np.int64)
        n = len(self.codes)
        if n == 0 or (np.diff(self.codes) <= 0).any():
            raise ConfigurationError("controller view needs ascending, distinct node codes")
        require_int("staleness_steps", self.staleness_steps)
        if self.staleness_steps < 0:
            raise ConfigurationError(f"staleness_steps must be >= 0: {self.staleness_steps}")
        self.xapp.validate()
        pairs = np.asarray(self.pairs, dtype=np.int64).reshape(len(self.pairs), 2)
        if ((pairs < 0) | (pairs >= n)).any():
            raise ConfigurationError("pair names a node outside the controller's view")
        if (pairs[:, 0] == pairs[:, 1]).any():
            raise ConfigurationError("pair endpoints must differ")
        self.pairs = np.sort(pairs, axis=1)
        self.reported_at = np.full(n, -1, dtype=np.int64)
        self.measured = np.full((n, n), np.inf)
        width = max(1, min(self.xapp.max_hops, n - 1)) + 1
        self.sent = np.full((len(pairs), width), -1, dtype=np.int64)


@dataclass(slots=True)
class XAppDiagnostics:
    """Per-tick controller introspection, enough to derive every metric.
    `graph_nodes` counts the view slots that reported or hold an edge. The
    arrays run over the served pairs; `paths` holds each path as view slots
    padded with -1, as wide as `RicState.sent`, and `hops` is 0 for an
    unserved pair."""

    graph_nodes: int
    graph_edges: int
    pairs_total: int
    pairs_feasible: int
    served: np.ndarray
    hops: np.ndarray
    direct: np.ndarray
    paths: np.ndarray
    bottleneck_snr_db: np.ndarray


def ingest(state: RicState, batch: IndicationBatch) -> RicState:
    """Replace the row of every reporter whose report is at least as new as
    the one held; count the other reporters in `rejected_out_of_order`."""
    n = len(state.codes)
    reporters, src, dst = batch.reporters, batch.source, batch.neighbor
    if any(col.min(initial=0) < 0 or col.max(initial=0) >= n for col in (reporters, src, dst)):
        raise ConfigurationError("report names a node outside the controller's view")
    newer = batch.step >= state.reported_at[reporters]
    state.rejected_out_of_order += len(newer) - int(np.count_nonzero(newer))
    rows = reporters[newer]
    state.reported_at[rows] = batch.step
    state.measured[rows] = np.inf
    accepted = np.zeros(n, dtype=bool)
    accepted[rows] = True
    lands = accepted[src]
    state.measured[src[lands], dst[lands]] = batch.snr_db[lands]
    return state


def build_graph(state: RicState, step: int, snr_min_db: float) -> np.ndarray:
    """Threshold the reports fresh at `step` into an undirected graph: the
    symmetric matrix over view slots of edge SNRs in dB at or above
    `snr_min_db`, -inf where there is no edge.

    Edge SNR is the minimum over the reported directions. A CAV-CAV edge needs
    both endpoints' own reports to be fresh; an edge with an infrastructure
    endpoint (an RSU) stands on a single fresh measurement. A node that never
    reported is never fresh."""
    fresh = (state.reported_at >= 0) & (step - state.reported_at <= state.staleness_steps)
    measured = np.where(fresh[:, None], state.measured, np.inf)
    measured = np.minimum(measured, measured.T)
    infrastructure = kinds(state.codes) != NodeKind.CAV
    edge = ((measured < np.inf) & (measured >= snr_min_db)
            & (infrastructure[:, None] | infrastructure[None, :]
               | (fresh[:, None] & fresh[None, :])))
    return np.where(edge, measured, -np.inf)


# --- hop-bounded widest paths ---------------------------------------------------

def _edge_ranks(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric edge matrix `adj` (-inf where there is no edge) as ranks
    among its distinct edge SNRs, -1 where there is no edge: int16, or int32
    past 32,767 distinct values. The solve reads SNRs only through min, max
    and >=, which ranks keep, ties included. Also returns the SNR of each
    rank, with -inf last so that rank -1 reads -inf."""
    edge = adj > -np.inf
    values, inverse = np.unique(adj[edge], return_inverse=True)
    rank = np.full(adj.shape, -1,
                   dtype=np.int16 if len(values) <= np.iinfo(np.int16).max else np.int32)
    rank[edge] = inverse
    return rank, np.append(values, -np.inf)


def _maxmin_tables(rank: np.ndarray, max_hops: int, s: np.ndarray,
                   d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best bottleneck ranks of walks on the symmetric edge ranks `rank` (-1
    if none): `tables[h-1][col[p], k]` from node k to d[p] in h < max_hops
    edges, destination-major and relaxed from the destination side through
    the rows with an edge, and `layers[h-1][p]` from s[p] to d[p] in
    h <= max_hops, the last per pair."""
    n = rank.shape[0]
    dest = np.flatnonzero(np.bincount(d, minlength=n))  # distinct, ascending
    col = np.searchsorted(dest, d)
    tables = np.full((max_hops - 1, len(dest), n), -1, dtype=rank.dtype)
    tables[:1] = rank[dest]  # no tables at all when max_hops == 1
    relays = np.flatnonzero((rank >= 0).any(axis=1))
    chunk = max(1, _SCRATCH_BYTES // max(rank.itemsize * n * len(dest), 1))
    for prev, cur in zip(tables, tables[1:]):
        for start in range(0, len(relays), chunk):
            ks = relays[start : start + chunk]
            np.maximum(cur, np.minimum(prev[:, ks].T[:, :, None], rank[ks, None, :]).max(axis=0),
                       out=cur)
    layers = np.concatenate((tables[:, col, s], rank[s, d][None]))
    if max_hops > 1:
        via = tables[-1]
        step = max(1, _SCRATCH_BYTES // (rank.itemsize * n))
        for p in (slice(start, start + step) for start in range(0, len(s), step)):
            layers[-1, p] = np.minimum(rank[s[p]], via[col[p]]).max(axis=1)
    return col, tables, layers


def _extract_paths(rank: np.ndarray, tables: np.ndarray, s: np.ndarray, d: np.ndarray,
                   col: np.ndarray, best: np.ndarray, hops: np.ndarray) -> np.ndarray:
    """Greedy lexicographic walk per pair (s[p] -> d[p], table row col[p],
    bottleneck rank best[p], hops[p] edges; none if 0): each step takes the
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
            ok = ((rank[steps[walk, k - 1]] >= floor)
                  & (tables[remaining[walk] - 2, col[walk]] >= floor))
            if not ok.any(axis=1).all():
                raise RuntimeError("widest-path tables disagree with reconstruction")
            steps[walk, k] = np.argmax(ok, axis=1)
    return steps


def _widest_paths(adj: np.ndarray, s: np.ndarray, d: np.ndarray,
                  max_hops: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Widest paths from row s[p] to row d[p] of the symmetric edge matrix
    `adj` (-inf where there is no edge). Per pair: the best bottleneck over
    any hop count (-inf when unreachable), the fewest hops achieving it
    (argmax picks the smallest such layer; 0 when unreachable), the path as
    rows padded with -1, and whether a direct edge joins the pair. Every row
    with an edge can relay, and no other row can. A hop-minimal widest path
    is simple, so the hop budget is clamped to one edge fewer than the rows
    with an edge: a deeper layer could only tie an earlier one, and argmax
    keeps the earlier."""
    rank, values = _edge_ranks(adj)
    linked = int(np.count_nonzero((rank >= 0).any(axis=1)))
    max_hops = max(1, min(max_hops, linked - 1))
    col, tables, layers = _maxmin_tables(rank, max_hops, s, d)
    best = layers.max(axis=0)
    hops = np.where(best >= 0, np.argmax(layers == best, axis=0) + 1, 0)
    steps = _extract_paths(rank, tables, s, d, col, best, hops)
    return values[best], hops, steps, rank[s, d] >= 0


# --- the xApp tick ----------------------------------------------------------------

def xapp_tick(state: RicState, step: int) -> tuple[ControlBatch, XAppDiagnostics]:
    """One controller pass over the state's served pairs under its policy:
    graph from fresh reports, widest path per pair from its smaller slot to
    its larger, one message (node, pair, next hop) per hop of each multi-hop
    path whose row differs from `sent`; `sent` then holds this tick's
    multi-hop rows and -1 elsewhere, so a pair relayed after a gap is resent."""
    s, d = state.pairs[:, 0], state.pairs[:, 1]
    snr = build_graph(state, step, state.xapp.snr_min_db)
    bottleneck, hops, steps, direct = _widest_paths(snr, s, d, state.xapp.max_hops)
    served, relayed = hops > 0, hops >= 2
    rows = np.full(state.sent.shape, -1, dtype=np.int64)
    rows[:, : steps.shape[1]] = steps
    changed = np.flatnonzero(relayed & (rows != state.sent).any(axis=1))
    state.sent = np.where(relayed[:, None], rows, -1)
    path, col = np.nonzero(np.arange(rows.shape[1]) < hops[changed, None])
    pair = changed[path]
    batch = ControlBatch(target=rows[pair, col], pair=pair, next_hop=rows[pair, col + 1])

    edge = snr > -np.inf
    diagnostics = XAppDiagnostics(
        graph_nodes=int(np.count_nonzero((state.reported_at >= 0) | edge.any(axis=1))),
        graph_edges=int(np.count_nonzero(np.triu(edge))),
        pairs_total=len(state.pairs),
        pairs_feasible=int(np.count_nonzero(served)),
        served=served,
        hops=hops,
        direct=direct,
        paths=rows,
        bottleneck_snr_db=bottleneck,
    )
    return batch, diagnostics
