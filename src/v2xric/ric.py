"""Controller runtime for relay assignment.

Holds each node's latest indication report as one row of a slot-indexed SNR
matrix, builds an SNR-thresholded undirected connectivity graph from the
fresh rows, and solves hop-bounded maximum-bottleneck-SNR (widest) paths
between served pairs from tables of the served destinations' rows alone, on
the ranks of the edge SNRs, a block of ticks at once. An xApp cuts its tick
from a solve at or below its threshold. Ties go to fewer hops, then to the
lexicographically smallest node sequence in code order, so identical inputs
yield identical assignments.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import ConfigurationError, check_keys, config_key, require_int
from .ran import ControlBatch, IndicationBatch, NodeKind, kinds

# Bytes of the min-array one relaxation chunk may materialise: k relays cost
# k * (served destinations) * n ranks, and the last hop n ranks per pair.
_SCRATCH_BYTES = 2**20
# Bytes of the ticks solved as one block, a tick of n slots and P pairs counted
# as 8n(n + P): its float64 graph and a float64 row per pair.
_BLOCK_BYTES = 2**17


@dataclass(slots=True)
class XAppConfig:
    """Relay-assignment policy: edge SNR threshold and hop budget."""

    snr_min_db: float = config_key(5.0, "[-300, 300]")
    max_hops: int = config_key(4, "[1, inf)")

    def validate(self) -> "XAppConfig":
        check_keys(self)
        return self


@dataclass(slots=True)
class RicState:
    """The controller's view by slot, a node's row in the n ascending node
    `codes` (slot order keeps the report cap's and the pathfinder's
    tie-breaks on code order): the step each node's held report was taken
    (-1 before its first), `measured[reporter, neighbour]`, each link's SNR in
    that report (+inf where it lacks the link), and `staleness_steps`, the
    age in steps up to which a report is fresh."""

    codes: np.ndarray
    staleness_steps: int = 2
    rejected_out_of_order: int = 0
    reported_at: np.ndarray = field(init=False)
    measured: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.codes = np.asarray(self.codes, dtype=np.int64)
        n = len(self.codes)
        if n == 0 or (np.diff(self.codes) <= 0).any():
            raise ConfigurationError("controller view needs ascending, distinct node codes")
        require_int("staleness_steps", self.staleness_steps)
        if self.staleness_steps < 0:
            raise ConfigurationError(f"staleness_steps must be >= 0: {self.staleness_steps}")
        self.reported_at = np.full(n, -1, dtype=np.int64)
        self.measured = np.full((n, n), np.inf)


def row_width(n: int, max_hops: int) -> int:
    """The slots of a path row on a view of n slots."""
    return max(1, min(max_hops, n - 1)) + 1


@dataclass(slots=True)
class XAppState:
    """One xApp on a view of `n` slots: its policy, its `pairs`, (P, 2) slots
    smaller first, and `sent`, each pair's last sent path row (-1 if none)."""

    n: int
    pairs: np.ndarray = field(default=())
    xapp: XAppConfig = field(default_factory=XAppConfig)
    sent: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.xapp.validate()
        pairs = np.asarray(self.pairs, dtype=np.int64).reshape(len(self.pairs), 2)
        if ((pairs < 0) | (pairs >= self.n)).any():
            raise ConfigurationError("pair names a node outside the controller's view")
        if (pairs[:, 0] == pairs[:, 1]).any():
            raise ConfigurationError("pair endpoints must differ")
        self.pairs = np.sort(pairs, axis=1)
        self.sent = np.full((len(pairs), row_width(self.n, self.xapp.max_hops)), -1,
                            dtype=np.int64)


@dataclass(frozen=True, slots=True)
class Solve:
    """One tick's widest paths at `gammas[0]`: per pair the bottleneck SNR
    (-inf if unreachable), hops (0 then), the path padded with -1 and the
    direct link's SNR (-inf if none); the graph's (nodes, edges) at each
    of the sorted `gammas`."""

    step: int
    gammas: tuple[float, ...]
    graph: tuple[tuple[int, int], ...]
    best: np.ndarray
    hops: np.ndarray
    paths: np.ndarray
    link: np.ndarray


@dataclass(slots=True)
class XAppDiagnostics:
    """Per-tick controller introspection, enough to derive every metric.
    `graph_nodes` counts the view slots that reported or hold an edge. The
    arrays run over the served pairs; `paths` holds each path as view slots
    padded with -1, as wide as `XAppState.sent`, and `hops` is 0 for an
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
    """The symmetric edge matrices `adj` (-inf where there is no edge, on the
    diagonal too) as ranks among all their distinct edge SNRs, each edge
    ranked once from the upper triangle, -1 where there is no edge: int16, or
    int32 past 32,767 distinct values. The solve reads SNRs only through min,
    max and >=, which ranks keep, ties included. Also returns the SNR of each
    rank, with -inf last so that rank -1 reads -inf."""
    edge = np.triu(adj > -np.inf, 1)
    values, inverse = np.unique(adj[edge], return_inverse=True)
    rank = np.full(adj.shape, -1,
                   dtype=np.int16 if len(values) <= np.iinfo(np.int16).max else np.int32)
    rank[edge] = inverse
    return np.maximum(rank, rank.swapaxes(-1, -2)), np.append(values, -np.inf)


def _maxmin_tables(rank: np.ndarray, max_hops: int, s: np.ndarray,
                   d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best bottleneck ranks of walks on tick t's edge ranks `rank[t]` (-1 if
    none): `tables[h-1][t, col[p], k]` from node k to d[p] in h < max_hops
    edges, destination-major, relaxed from the destination side through the
    rows with an edge in some tick, a T-th of one tick's chunk at a time, and
    `layers[h-1][t, p]` from s[p] to d[p] in h <= max_hops, the last per pair."""
    ticks, n = rank.shape[:2]
    dest = np.flatnonzero(np.bincount(d, minlength=n))  # distinct, ascending
    col = np.searchsorted(dest, d)
    tables = np.full((max_hops - 1, ticks, len(dest), n), -1, dtype=rank.dtype)
    tables[:1] = rank[:, dest]  # no tables at all when max_hops == 1
    relays = np.flatnonzero((rank >= 0).any(axis=(0, 2)))
    chunk = min(len(relays), _SCRATCH_BYTES // max(rank.itemsize * n * len(dest), 1))
    chunk = max(1, chunk // ticks)
    for prev, cur in zip(tables, tables[1:]):
        for ks in (relays[start : start + chunk] for start in range(0, len(relays), chunk)):
            np.maximum(cur, np.minimum(prev[..., ks, None], rank[:, None, ks]).max(axis=2), out=cur)
    layers = np.concatenate((tables[:, :, col, s], rank[:, s, d][None]))
    if max_hops > 1:
        via = tables[-1]
        step = max(1, min(len(s), _SCRATCH_BYTES // (rank.itemsize * n)) // ticks)
        for p in (slice(start, start + step) for start in range(0, len(s), step)):
            layers[-1][:, p] = np.minimum(rank.take(s[p], 1), via.take(col[p], 1)).max(axis=2)
    return col, tables, layers


def _extract_paths(rank: np.ndarray, tables: np.ndarray, s: np.ndarray, d: np.ndarray,
                   col: np.ndarray, best: np.ndarray, hops: np.ndarray, width: int) -> np.ndarray:
    """Greedy lexicographic walk per tick t and pair p (s[p] -> d[p], table
    row col[p], bottleneck rank best[t, p], hops[t, p] edges; none if 0):
    each step takes the smallest next node keeping the edge and the remaining
    completion at or above the bottleneck, all at once. Returns node indices,
    padded with -1 to `width`. A hop-minimal walk at the optimal bottleneck is
    simple (shortcutting a revisit would beat the hop count)."""
    ticks, dests, n = tables.shape[1:]
    ranks, tables = rank.reshape(-1, n), tables.reshape(-1, n)  # np.take beats a fancy index
    steps = np.full((*best.shape, width), -1, dtype=np.int64)
    steps[..., 0] = np.where(hops > 0, s, -1)
    for k in range(1, int(hops.max(initial=0)) + 1):
        remaining = hops - (k - 1)
        steps[..., k] = np.where(remaining == 1, d, -1)
        t, p = np.nonzero(remaining >= 2)
        if len(t):
            floor = best[t, p, None]
            ok = ((ranks.take(t * n + steps[t, p, k - 1], 0) >= floor)
                  & (tables.take(((remaining[t, p] - 2) * ticks + t) * dests + col[p], 0) >= floor))
            if not ok.any(axis=1).all():
                raise RuntimeError("widest-path tables disagree with reconstruction")
            steps[t, p, k] = np.argmax(ok, axis=1)
    return steps


def _widest_paths(rank: np.ndarray, values: np.ndarray, s: np.ndarray, d: np.ndarray,
                  max_hops: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Widest paths from row s[p] to row d[p] of each tick's edge ranks
    `rank[t]` (`_edge_ranks`, whose SNRs are `values`). Per tick and pair: the
    best bottleneck over any hop count (-inf when unreachable), the fewest
    hops achieving it (argmax picks the smallest such layer; 0 when
    unreachable), the path as a row padded with -1 to `row_width`, and
    whether a direct edge joins the pair. Every row with an edge in some tick
    can relay. A hop-minimal widest path is simple, so the hop budget is
    clamped to one edge fewer than those rows: a deeper layer could only tie
    an earlier one, and argmax keeps the earlier."""
    linked = int(np.count_nonzero((rank >= 0).any(axis=(0, 2))))
    col, tables, layers = _maxmin_tables(rank, max(1, min(max_hops, linked - 1)), s, d)
    best = layers.max(axis=0)
    hops = np.where(best >= 0, np.argmax(layers == best, axis=0) + 1, 0)
    steps = _extract_paths(rank, tables, s, d, col, best, hops, row_width(rank.shape[-1], max_hops))
    return values[best], hops, steps, rank[:, s, d] >= 0


# --- the xApp tick ----------------------------------------------------------------

def solve(ticks: Iterable[tuple[int, np.ndarray, np.ndarray]], pairs: np.ndarray,
          max_hops: int, gammas: tuple[float, ...]) -> Iterator[Solve]:
    """The widest path of each of `pairs` (smaller slot first) under `max_hops`
    at each of `ticks`, (step, graph at `gammas[0]`, slots that had reported),
    solved in blocks that fit `_BLOCK_BYTES`. A graph's nodes are the slots
    that reported or hold an edge."""
    s, d = pairs[:, 0], pairs[:, 1]
    ticks = iter(ticks)
    for first in ticks:
        n = len(first[2])
        more = islice(ticks, max(1, _BLOCK_BYTES // (8 * n * (n + len(pairs)))) - 1)
        steps, snr, reported = map(np.array, zip(first, *more))
        del first  # the stacked graphs are the block's one copy
        counts = [(np.count_nonzero(reported | edge.any(axis=2), axis=1),
                   np.count_nonzero(edge, axis=(1, 2)) // 2) for edge in (snr >= g for g in gammas)]
        link, (rank, values) = snr[:, s, d], _edge_ranks(snr)
        del snr  # the ranks stand for the graphs from here
        best, hops, paths, _ = _widest_paths(rank, values, s, d, max_hops)
        for t, step in enumerate(steps.tolist()):
            graph = tuple((int(nodes[t]), int(edges[t])) for nodes, edges in counts)
            yield Solve(step, gammas, graph, best[t], hops[t], paths[t], link[t])
        del rank, best, hops, paths, link  # before the next block is read


def xapp_tick(state: XAppState, solved: Solve) -> tuple[ControlBatch, XAppDiagnostics]:
    """The xApp's tick cut from a solve of its pairs at its threshold γ: a
    pair is served when its bottleneck reaches γ. Exact, since the graph at
    γ holds every path at or above γ of the solve's graph. One message
    (node, pair, next hop) per hop of each multi-hop path whose row differs
    from `sent`; `sent` then holds this tick's multi-hop rows and -1
    elsewhere, so a pair relayed after a gap is resent."""
    gamma = state.xapp.snr_min_db
    served = solved.best >= gamma
    hops = np.where(served, solved.hops, np.int64(0))
    rows = np.where(served[:, None], solved.paths, np.int64(-1))
    relayed = hops >= 2
    changed = np.flatnonzero(relayed & (rows != state.sent).any(axis=1))
    state.sent = np.where(relayed[:, None], rows, -1)
    path, col = np.nonzero(np.arange(rows.shape[1]) < hops[changed, None])
    pair = changed[path]
    batch = ControlBatch(target=rows[pair, col], pair=pair, next_hop=rows[pair, col + 1])

    graph_nodes, graph_edges = solved.graph[solved.gammas.index(gamma)]
    diagnostics = XAppDiagnostics(
        graph_nodes=graph_nodes,
        graph_edges=graph_edges,
        pairs_total=len(state.pairs),
        pairs_feasible=int(np.count_nonzero(served)),
        served=served,
        hops=hops,
        direct=solved.link >= gamma,
        paths=rows,
        bottleneck_snr_db=np.where(served, solved.best, -np.inf),
    )
    return batch, diagnostics
