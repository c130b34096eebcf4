"""Independent reference implementation of the controller's graph build.

Used by the controller tests as an oracle for `ric.build_graph`: a plain loop
over every fresh report the per-node reference controller
(`reference_reports.RicState`) holds, into a dict keyed by canonical node
pair, written with none of the production code's matrix machinery.
"""

from __future__ import annotations

from reference_ids import NodeId
from reference_reports import RicState
from v2xric import NodeKind

FRESH_EPS = 1e-9  # the float rule's guard at the staleness boundary


def fresh(t: float, reported_t: float, window_s: float) -> bool:
    """The freshness rule on float time: a report taken at `reported_t` s is
    fresh at `t` s within a window of `window_s` s."""
    return (t - reported_t) <= window_s + FRESH_EPS


def reference_graph(state: RicState, t: float, snr_min_db: float
                    ) -> tuple[tuple[NodeId, ...], dict[tuple[NodeId, NodeId], float]]:
    """(nodes, {(u, v): snr_db} with u < v) of the thresholded graph.

    Edge SNR is the minimum over the reported directions. A CAV-CAV edge needs
    both endpoints' reports fresh; an edge with an RSU endpoint stands on one
    fresh measurement. Nodes are every reporter plus every edge endpoint.
    """
    trusted = {src for src, rep in state.latest_report.items()
               if fresh(t, rep.t, state.staleness_window_s)}
    measured: dict[tuple[NodeId, NodeId], float] = {}
    for src in trusted:
        rep = state.latest_report[src]
        for code, snr in zip(rep.neighbors.tolist(), rep.snr_db.tolist()):
            rx = NodeId.from_code(code)
            u, v = (src, rx) if src < rx else (rx, src)
            held = measured.get((u, v))
            if held is None or snr < held:
                measured[(u, v)] = snr
    edges: dict[tuple[NodeId, NodeId], float] = {}
    for (u, v), snr in measured.items():
        if snr < snr_min_db:
            continue
        infrastructure = u.kind != NodeKind.CAV or v.kind != NodeKind.CAV
        if infrastructure or (u in trusted and v in trusted):
            edges[(u, v)] = snr
    nodes = set(state.latest_report)
    for u, v in edges:
        nodes.add(u)
        nodes.add(v)
    return tuple(sorted(nodes)), edges
