"""Controller tests: report ingestion, graph building, relay assignment fan-out."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import reference_reports
from reference_ids import NodeId
from reference_graph import reference_graph
from reference_paths import edges_of, graph_of, random_connectivity_graph, reference_widest_path
from slot_adapter import (Path, codes_of, edge_snr, graph_nodes, has_edge, indication_slots,
                          pair_slots, path_of, slots_of, solve_tick)
from v2xric import (ConfigurationError, IndicationBatch, NodeKind, RicState, XAppConfig,
                    XAppState, build_graph, emit_indication, ric, xapp_tick)
from v2xric.ric import _SCRATCH_BYTES, _edge_ranks


def cav(i):
    return NodeId(NodeKind.CAV, i)


def rsu(i):
    return NodeId(NodeKind.RSU, i)


DT = 0.05  # seconds per step where the float-time oracles check the controller


def seconds(step):
    """A step as the float-time oracles take it: its time on the DT grid."""
    return round(step * DT, 9)


def view(staleness_steps=2, nodes=None):
    """An empty controller view over `nodes` (default: RSUs 0-3, CAVs 0-31)."""
    if nodes is None:
        nodes = [rsu(k) for k in range(4)] + [cav(k) for k in range(32)]
    return RicState(sorted(node.code for node in nodes), staleness_steps=staleness_steps)


def xapp_on(state, pairs=(), cfg=None):
    """An xApp on the view `state` that serves the (NodeId, NodeId) `pairs`
    under `cfg` and has sent no path yet."""
    return XAppState(len(state.codes), pairs=pair_slots(state.codes, pairs),
                     xapp=XAppConfig() if cfg is None else cfg)


def run_tick(state, xapp, step):
    """The xApp's tick at `step` on the view `state`, solved at its own threshold."""
    policy = xapp.xapp
    return xapp_tick(xapp, solve_tick(state, step, xapp.pairs, policy.max_hops,
                                      (policy.snr_min_db,)))


def ingest(state, batch):
    """The controller's ingest of a batch that names nodes by NodeId code,
    as the tests build them: the codes become the view's slots first."""
    return ric.ingest(state, indication_slots(batch, state.codes))


def instant(step, *reports):
    """The reports taken at one step; reports are (source, [(rx, snr_db), ...])."""
    links = [(src.code, rx.code, snr) for src, mine in reports for rx, snr in mine]
    return IndicationBatch(step=step, reporters=np.array([src.code for src, _ in reports], dtype=np.int64),
                           source=np.array([s for s, _, _ in links], dtype=np.int64),
                           neighbor=np.array([r for _, r, _ in links], dtype=np.int64),
                           snr_db=np.array([v for _, _, v in links], dtype=np.float64))


def report(src, step, links):
    """One node's report alone in its step; links: list of (rx, snr_db)."""
    return instant(step, (src, links))


def graph_reports(g, step=0):
    """One step at which every node of the graph g reports its edges."""
    edges = edges_of(g)
    return instant(step, *((node, [(v if u == node else u, snr) for (u, v), snr in edges.items()
                                if node in (u, v)]) for node in graph_nodes(g.codes)))


def held_links(state, node):
    """The links in the node's held report: [(rx, snr_db)] by rx."""
    row = state.measured[slots_of(state.codes, [node.code])[0]]
    return [(NodeId.from_code(state.codes[k]), float(row[k])) for k in np.nonzero(row < np.inf)[0]]


def held_step(state, node):
    return int(state.reported_at[slots_of(state.codes, [node.code])[0]])


def graph_members(state, snr):
    """The nodes `XAppDiagnostics.graph_nodes` counts: every view slot that
    reported or holds an edge of the graph `snr`."""
    held = (state.reported_at >= 0) | (snr > -np.inf).any(axis=1)
    return tuple(map(NodeId.from_code, state.codes[held].tolist()))


def tick(state, step, cfg, pairs=()):
    """xapp_tick under `cfg` for (NodeId, NodeId) pairs, which the view's
    slots name, by an xApp on the view that has sent no path yet."""
    return run_tick(state, xapp_on(state, pairs, cfg), step)


def assigned(diag, k, codes):
    """The path a tick assigned its k-th pair, named by the view's `codes`, or None."""
    return path_of(codes, diag.paths[k], diag.bottleneck_snr_db[k]) if diag.served[k] else None


# --- ingestion -------------------------------------------------------------------


def test_ingest_keeps_newest_report():
    state = view()
    ingest(state, report(cav(0), 2, [(cav(1), 10.0)]))
    ingest(state, report(cav(0), 1, [(cav(1), 3.0)]))
    assert held_step(state, cav(0)) == 2
    assert held_links(state, cav(0)) == [(cav(1), 10.0)]
    assert state.rejected_out_of_order == 1


def test_ingest_same_instant_replaces():
    state = view()
    ingest(state, report(cav(0), 2, [(cav(1), 10.0), (cav(2), 6.0)]))
    ingest(state, report(cav(0), 2, [(cav(1), 4.0)]))
    assert state.rejected_out_of_order == 0
    assert held_links(state, cav(0)) == [(cav(1), 4.0)]


def test_ingest_rejects_reporters_one_by_one():
    # one batch: cav(0) already holds a newer report, cav(1) does not
    state = view()
    ingest(state, report(cav(0), 3, [(cav(2), 9.0)]))
    ingest(state, instant(2, (cav(0), [(cav(2), 1.0)]), (cav(1), [(cav(2), 5.0)])))
    assert state.rejected_out_of_order == 1
    assert held_links(state, cav(0)) == [(cav(2), 9.0)]
    assert held_links(state, cav(1)) == [(cav(2), 5.0)]
    assert (held_step(state, cav(0)), held_step(state, cav(1))) == (3, 2)


def test_controller_view_needs_ascending_codes_and_known_nodes():
    for codes in ([], [cav(2).code, cav(1).code], [cav(1).code, cav(1).code]):
        with pytest.raises(ConfigurationError):
            RicState(codes)


@pytest.mark.parametrize("column", ["reporters", "source", "neighbor"])
@pytest.mark.parametrize("outside", [-1, 2])
def test_ingest_rejects_slots_outside_the_view(column, outside):
    # a two-node view holds slots 0 and 1 alone; numpy would wrap -1 silently
    batch = IndicationBatch(step=0, reporters=np.array([0, 1]), source=np.array([0, 1]),
                            neighbor=np.array([1, 0]), snr_db=np.array([3.0, 4.0]))
    getattr(batch, column)[1] = outside
    state = view(nodes=[cav(0), cav(1)])
    with pytest.raises(ConfigurationError, match="outside the controller's view"):
        ric.ingest(state, batch)
    assert (state.reported_at == -1).all() and (state.measured == np.inf).all()


# --- graph building --------------------------------------------------------------


def test_vehicle_edge_needs_both_reports_fresh():
    state = view(staleness_steps=2)
    ingest(state, report(cav(0), 0, [(cav(1), 10.0)]))
    g = build_graph(state, 0, snr_min_db=5.0)
    assert not has_edge(state.codes, g, cav(0), cav(1))  # cav(1) never reported
    ingest(state, report(cav(1), 0, [(cav(0), 12.0)]))
    g = build_graph(state, 0, snr_min_db=5.0)
    assert has_edge(state.codes, g, cav(0), cav(1))


def test_infrastructure_edge_stands_on_single_report():
    state = view(staleness_steps=2)
    ingest(state, report(rsu(0), 0, [(cav(1), 15.0)]))
    g = build_graph(state, 0, snr_min_db=5.0)
    assert has_edge(state.codes, g, rsu(0), cav(1))


def test_stale_reports_drop_out_of_the_graph():
    state = view(staleness_steps=2)
    ingest(state, instant(0, (cav(0), [(cav(1), 10.0)]), (cav(1), [(cav(0), 10.0)])))
    boundary = build_graph(state, 2, snr_min_db=5.0)
    assert has_edge(state.codes, boundary, cav(0), cav(1))
    late = build_graph(state, 3, snr_min_db=5.0)
    assert not has_edge(state.codes, late, cav(0), cav(1))
    assert cav(0) in graph_members(state, late)  # reporters stay known even when stale


def test_edge_snr_is_min_over_directions():
    state = view(staleness_steps=2)
    ingest(state, instant(0, (cav(0), [(cav(1), 10.0)]), (cav(1), [(cav(0), 3.0)])))
    assert not has_edge(state.codes, build_graph(state, 0, snr_min_db=5.0), cav(0), cav(1))
    g = build_graph(state, 0, snr_min_db=2.0)
    assert edge_snr(state.codes, g, cav(0), cav(1)) == 3.0


def test_adjacency_matrix_is_symmetric_with_minus_inf_holes():
    state = view(staleness_steps=2)
    ingest(state, instant(0, (rsu(0), [(cav(1), 15.0)]), (cav(2), [])))
    adj = build_graph(state, 0, snr_min_db=5.0)
    assert graph_members(state, adj) == (rsu(0), cav(1), cav(2))
    assert type(adj) is np.ndarray  # the graph is the view's matrix
    assert adj.shape == (36, 36)
    nodes = graph_nodes(state.codes)
    i, j = nodes.index(rsu(0)), nodes.index(cav(1))
    assert adj[i, j] == adj[j, i] == 15.0
    assert adj[i, i] == -math.inf
    k = nodes.index(cav(2))
    assert adj[i, k] == adj[k, j] == -math.inf


def random_nodes(rng, low=2, high=13):
    """Seeded mixed-kind nodes, ascending, with gaps in the indices."""
    counters = {kind: 0 for kind in NodeKind}
    nodes = []
    for _ in range(int(rng.integers(low, high))):
        kind = NodeKind.RSU if rng.random() < 0.35 else NodeKind.CAV
        nodes.append(NodeId(kind, counters[kind]))
        counters[kind] += int(rng.integers(1, 3))
    return sorted(nodes)


def random_ric_state(rng, step=40, staleness_steps=5):
    """Seeded controller view at `step`, batched and per-node (the oracle on
    float time): mixed-kind nodes that report fresh, report stale or never
    report; pairs measured from neither side, one side, or both sides with
    equal or different SNRs; sometimes a report cap, sometimes only
    infrastructure reporting. Nodes of one age report in one batch."""
    nodes = random_nodes(rng)
    n = len(nodes)
    infrastructure_only = bool(rng.random() < 0.2)
    integer_snrs = bool(rng.random() < 0.5)

    def draw():  # small integers make threshold and cap ties
        return float(rng.integers(0, 8)) if integer_snrs else float(rng.uniform(-10.0, 30.0))

    links = {node: [] for node in nodes}
    for a in range(n):
        for b in range(a + 1, n):
            u, v = nodes[a], nodes[b]
            shape = rng.choice(("none", "u", "v", "equal", "asymmetric"))
            if shape in ("u", "equal", "asymmetric"):
                links[u].append((v, draw()))
            if shape in ("v", "asymmetric"):
                links[v].append((u, draw()))
            if shape == "equal":
                links[v].append((u, links[u][-1][1]))
    cap = None if rng.random() < 0.6 else int(rng.integers(1, 4))
    state = view(staleness_steps, nodes)
    ref = reference_reports.RicState(staleness_window_s=seconds(staleness_steps))
    by_step = {}
    for node in nodes:
        role = rng.choice(("fresh", "boundary", "stale", "silent"), p=(0.55, 0.1, 0.2, 0.15))
        if role == "silent" or (infrastructure_only and node.kind == NodeKind.CAV):
            continue
        age = {"fresh": int(rng.uniform(0.0, staleness_steps)), "boundary": staleness_steps,
               "stale": staleness_steps + 1 + int(rng.uniform(0.0, 20.0))}[role]
        by_step.setdefault(step - age, []).append(node)
    for taken, reporters in by_step.items():
        mine = [(src, *link) for src in reporters for link in sorted(links[src])]
        ingest(state, emit_indication([src.code for src in reporters],
                                      [src.code for src, _, _ in mine],
                                      [rx.code for _, rx, _ in mine],
                                      [snr for _, _, snr in mine], taken, cap))
        for src in reporters:
            own = sorted(links[src])
            reference_reports.ingest(ref, reference_reports.emit_indication(
                src, [rx.code for rx, _ in own], [snr for _, snr in own], seconds(taken), cap))
    return state, ref


def test_build_graph_matches_reference_on_random_reports():
    rng = np.random.default_rng(2024)
    edges_seen = silent_endpoint_edges = 0
    for _ in range(400):
        state, ref = random_ric_state(rng)
        snr_min = float(rng.choice((-20.0, 0.0, 3.0, 4.0, float(rng.uniform(-5.0, 20.0)))))
        g = build_graph(state, 40, snr_min)
        nodes, edges = reference_graph(ref, seconds(40), snr_min)
        assert graph_members(state, g) == nodes
        assert tick(state, 40, XAppConfig(snr_min_db=snr_min))[1].graph_nodes == len(nodes)
        assert np.array_equal(g, g.T)
        assert (np.diag(g) == -np.inf).all()
        assert np.array_equal(g, dense_reference(graph_nodes(state.codes), edges))
        edges_seen += len(edges)
        silent_endpoint_edges += sum(u not in ref.latest_report or v not in ref.latest_report
                                   for u, v in edges)
    assert edges_seen >= 2000
    assert silent_endpoint_edges >= 100  # endpoints that never report still join the graph


def dense_reference(nodes, edges):
    """The reference graph as one matrix in node order, -inf off the edges."""
    idx = {node: k for k, node in enumerate(nodes)}
    snr = np.full((len(nodes), len(nodes)), -np.inf)
    for (u, v), value in edges.items():
        snr[idx[u], idx[v]] = snr[idx[v], idx[u]] = value
    return snr


def test_report_stream_matches_per_node_reference():
    """One stream of report steps, fed as batches to the controller view and
    report by report to the per-node oracle on float time, gives after every
    ingest the same graph codes, every SNR entry and the same out-of-order
    count. The stream mixes out-of-order and equal-time arrivals, silent
    reporters, stale and boundary-aged reporters, capped reports with SNR
    ties, infrastructure-only steps and RSUs."""
    rng = np.random.default_rng(77)
    seen = Counter()
    for _ in range(60):
        nodes = random_nodes(rng, 3, 14)
        window = int(rng.choice((2, 5, 10)))  # 0.1, 0.25 and 0.5 s
        state = view(window, nodes)
        ref = reference_reports.RicState(staleness_window_s=seconds(window))
        cap = None if rng.random() < 0.4 else int(rng.integers(1, 4))
        integer_snrs = bool(rng.random() < 0.5)
        seen["rsu"] += any(node.kind == NodeKind.RSU for node in nodes)
        instants, now = [], 20
        for _ in range(10):
            kind = str(rng.choice(("now", "repeat", "late"), p=(0.6, 0.2, 0.2)))
            if kind == "repeat" and instants:
                step = instants[int(rng.integers(len(instants)))]
            elif kind == "late":
                step = now - int(rng.choice((2, 4, 6, 12)))
            else:
                step = now
            instants.append(step)
            infrastructure_only = bool(rng.random() < 0.2)
            reporters = [node for node in nodes if rng.random() < 0.7
                         and not (infrastructure_only and node.kind == NodeKind.CAV)]
            seen["infrastructure-only"] += infrastructure_only
            seen["silent"] += len(nodes) - len(reporters)
            links = []
            for src in reporters:
                for rx in nodes:
                    if rx != src and rng.random() < 0.6:
                        snr = float(rng.integers(0, 6)) if integer_snrs else float(rng.uniform(-5, 25))
                        links.append((src, rx, snr))
            order = rng.permutation(len(links))  # the batch keeps no particular order
            links = [links[k] for k in order]
            ingest(state, emit_indication([src.code for src in reporters],
                                          [src.code for src, _, _ in links],
                                          [rx.code for _, rx, _ in links],
                                          [snr for _, _, snr in links], step, cap))
            for src in reporters:
                seen["equal-time"] += (src in ref.latest_report
                                       and ref.latest_report[src].t == seconds(step))
                own = sorted((rx, snr) for s, rx, snr in links if s == src)
                seen["capped"] += cap is not None and len(own) > cap
                seen["capped ties"] += (cap is not None and len(own) > cap
                                        and len({snr for _, snr in own}) < len(own))
                reference_reports.ingest(ref, reference_reports.emit_indication(
                    src, [rx.code for rx, _ in own], [snr for _, snr in own], seconds(step), cap))
            assert state.rejected_out_of_order == ref.rejected_out_of_order

            held = sorted({round(rep.t / DT) for rep in ref.latest_report.values()})
            for q in (now, held[0] + window if held else now, now + round(window * 0.6)):
                ages = [seconds(q) - rep.t for rep in ref.latest_report.values()]
                seen["boundary"] += sum(abs(age - seconds(window)) < 1e-9 for age in ages)
                seen["stale"] += sum(age > seconds(window) + 1e-9 for age in ages)
                snr_min = float(rng.choice((-10.0, 2.0, 3.0, float(rng.uniform(0.0, 20.0)))))
                g = build_graph(state, q, snr_min)
                want_nodes, want_edges = reference_graph(ref, seconds(q), snr_min)
                assert graph_members(state, g) == want_nodes
                assert np.array_equal(g, dense_reference(graph_nodes(state.codes), want_edges))
                seen["edges"] += len(want_edges)
            now += int(rng.choice((2, 4)))
        seen["rejected"] += state.rejected_out_of_order
    assert seen["rejected"] >= 100 and seen["edges"] >= 5000
    assert min(seen[key] for key in ("rsu", "equal-time", "infrastructure-only", "silent",
                                     "capped", "capped ties", "boundary", "stale")) >= 20, seen


def test_controller_tick_constructs_no_node_ids():
    """From a report batch to the control batch, the controller works on
    node codes alone: one tick of ingest, build_graph and xapp_tick relays.
    The package has no NodeId to build (`test_api` guards that)."""
    rng = np.random.default_rng(5)
    nodes = [rsu(0)] + [cav(k) for k in range(12)]
    src, dst = np.triu_indices(len(nodes), 1)
    snr = rng.uniform(0.0, 20.0, len(src))
    codes = np.array([node.code for node in nodes])
    reports = emit_indication(codes, codes[np.concatenate((src, dst))],
                              codes[np.concatenate((dst, src))], np.concatenate((snr, snr)),
                              0, 3)
    state = view(nodes=nodes)
    ingest(state, reports)
    batch, diag = tick(state, 0, XAppConfig(snr_min_db=5.0),
                       [(nodes[a], nodes[b]) for a in range(1, 13) for b in range(a + 1, 13)])
    assert np.count_nonzero(diag.served & ~diag.direct) > 0 and len(batch) > 0


# --- the xApp tick ---------------------------------------------------------------


def triangle(step):
    """A, R, B all reporting at `step`: A-R at 9 dB, R-B at 7 dB, no A-B edge."""
    return instant(step, (cav(0), [(cav(5), 9.0)]),
                   (cav(5), [(cav(0), 9.0), (cav(9), 7.0)]), (cav(9), [(cav(5), 7.0)]))


def fresh_triangle():
    """The triangle reported at step 0 to a view."""
    return ingest(view(staleness_steps=2), triangle(0))


def slots(state, *nodes):
    """The nodes' view slots, as control batches name them."""
    return slots_of(state.codes, [node.code for node in nodes]).tolist()


def test_xapp_tick_emits_one_message_per_forwarding_node():
    state = fresh_triangle()
    cfg = XAppConfig(snr_min_db=5.0)
    batch, diag = tick(state, 0, cfg, [(cav(0), cav(9))])
    assert len(batch) == 2
    assert batch.target.tolist() == slots(state, cav(0), cav(5))
    assert batch.pair.tolist() == [0, 0]
    assert batch.next_hop.tolist() == slots(state, cav(5), cav(9))
    # 3 nodes hold an edge, so the solve clamps the budget to 2 edges, and
    # its rows are padded to the width a simple path over the view can fill
    width = min(cfg.max_hops, len(state.codes) - 1) + 1
    assert diag.paths.tolist() == [slots(state, cav(0), cav(5), cav(9)) + [-1] * (width - 3)]
    assert assigned(diag, 0, state.codes) == Path(7.0, (cav(0), cav(5), cav(9)))


def test_direct_pairs_emit_no_messages():
    state = view(staleness_steps=2)
    ingest(state, instant(0, (cav(0), [(cav(1), 10.0)]), (cav(1), [(cav(0), 10.0)])))
    cfg = XAppConfig(snr_min_db=5.0)
    batch, diag = tick(state, 0, cfg, [(cav(0), cav(1))])
    assert len(batch) == 0
    assert diag.direct.tolist() == [True]
    assert np.count_nonzero(diag.direct) == 1
    assert np.count_nonzero(diag.served & ~diag.direct) == 0
    assert diag.hops[diag.served].mean() == 1.0


def test_three_relayed_pairs_give_six_ordered_messages():
    state = view(staleness_steps=2)
    pairs = []
    for k in range(3):
        a, r, b = cav(10 * k), cav(10 * k + 1), cav(10 * k + 2)
        ingest(state, instant(0, (a, [(r, 9.0)]), (r, [(a, 9.0), (b, 8.0)]), (b, [(r, 8.0)])))
        pairs.append((a, b))
    cfg = XAppConfig(snr_min_db=5.0)
    batch, diag = tick(state, 0, cfg, pairs)
    assert np.count_nonzero(diag.served & ~diag.direct) == 3
    assert batch.target.tolist() == slots(state, cav(0), cav(1), cav(10), cav(11), cav(20), cav(21))
    assert batch.pair.tolist() == [0, 0, 1, 1, 2, 2]
    assert batch.next_hop.tolist() == slots(state, cav(1), cav(2), cav(11), cav(12), cav(21),
                                            cav(22))
    assert len(batch) == 6


def test_diagnostics_counts_are_consistent():
    state = fresh_triangle()
    ingest(state, report(cav(7), 0, []))  # reachable by nobody
    cfg = XAppConfig(snr_min_db=5.0)
    _, diag = tick(state, 0, cfg, [(cav(0), cav(9)), (cav(0), cav(7))])
    assert diag.pairs_total == 2
    assert diag.pairs_feasible == 1
    assert diag.pairs_total - diag.pairs_feasible == 1
    assert diag.pairs_feasible == np.count_nonzero(diag.served)
    assert diag.direct.tolist() == [False, False]
    assert diag.hops[diag.served].mean() == 2.0
    assert diag.served.tolist() == [True, False]
    assert diag.hops.tolist() == [2, 0]
    assert assigned(diag, 0, state.codes).nodes == (cav(0), cav(5), cav(9))
    assert assigned(diag, 1, state.codes) is None


def same_tick(got, want):
    """Whether two (ControlBatch, XAppDiagnostics) are equal, arrays bit for
    bit with their dtypes."""
    (batch, diag), (want_batch, want_diag) = got, want
    arrays = [(getattr(batch, c), getattr(want_batch, c)) for c in ("target", "pair", "next_hop")]
    arrays += [(getattr(diag, c), getattr(want_diag, c))
               for c in ("served", "hops", "direct", "paths", "bottleneck_snr_db")]
    counts = ("graph_nodes", "graph_edges", "pairs_total", "pairs_feasible")
    return (all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                for a, b in arrays)
            and [getattr(diag, c) for c in counts] == [getattr(want_diag, c) for c in counts])


@pytest.mark.parametrize("measured_neighbors", [None, 1, 3])
def test_a_solve_cut_at_a_higher_threshold_is_the_tick_solved_there(measured_neighbors):
    """On one ingested view, the solve at the smallest threshold of a grid,
    held in the narrow types a sweep holds it in or not, and cut by
    `xapp_tick` at a threshold of the grid, gives tick after tick the batch
    and diagnostics of the solve at that threshold itself, each xApp's
    `sent` carried along: a threshold on an edge's SNR, one above every
    edge and ticks with no edge included. Reports are capped at
    `measured_neighbors` and come from a random part of the nodes."""
    rng = np.random.default_rng([53, measured_neighbors or 0])
    seen = Counter()
    for _ in range(40):
        nodes = random_nodes(rng, 4, 16)
        n = len(nodes)
        state = view(int(rng.integers(0, 3)), nodes)
        a, b = np.triu_indices(n, 1)
        link_snr = (rng.integers(0, 8, len(a)).astype(float) if rng.random() < 0.5
                    else rng.uniform(-10.0, 30.0, len(a)))
        pick = rng.permutation(len(a))[: int(rng.integers(1, 12))]
        pairs = np.stack((a[pick], b[pick]), axis=1)
        max_hops = int(rng.integers(1, 5))
        gammas = tuple(sorted({float(rng.uniform(-20.0, 0.0)), float(rng.choice(link_snr)),
                               float(link_snr.max()) + 1.0, float(rng.uniform(0.0, 20.0))}))
        own = {g: XAppState(n, pairs, XAppConfig(snr_min_db=g, max_hops=max_hops)) for g in gammas}
        cut = {g: XAppState(n, pairs, XAppConfig(snr_min_db=g, max_hops=max_hops)) for g in gammas}
        held = bool(rng.random() < 0.5)
        for step in range(8):
            if rng.random() < 0.6:
                links = np.flatnonzero(rng.random(len(a)) < 0.5)
                src = np.concatenate((a[links], b[links]))
                dst = np.concatenate((b[links], a[links]))
                reporters = np.flatnonzero(rng.random(n) < 0.8)
                sent = np.isin(src, reporters)
                ric.ingest(state, emit_indication(reporters, src[sent], dst[sent],
                                                  np.tile(link_snr[links], 2)[sent], step,
                                                  measured_neighbors))
            shared = solve_tick(state, step, pairs, max_hops, gammas)
            if held:
                shared = replace(shared, hops=shared.hops.astype(np.int16),
                                 paths=shared.paths.astype(np.int16))
            for g in gammas:
                want = xapp_tick(own[g], solve_tick(state, step, pairs, max_hops, (g,)))
                assert same_tick(xapp_tick(cut[g], shared), want), (step, g)
                diag = want[1]
                seen["on an edge"] += bool((diag.bottleneck_snr_db[diag.served] == g).any())
                seen["cut"] += bool(np.count_nonzero(diag.served)
                                    < np.count_nonzero(shared.best >= gammas[0]))
                seen["above every edge"] += diag.graph_edges == 0 < shared.graph[0][1]
                seen["relayed"] += len(want[0]) > 0
            seen["no edges"] += shared.graph[0][1] == 0
    assert min(seen.values()) >= 10 and len(seen) == 5, seen


def test_xapp_tick_paths_match_reference_on_random_graphs():
    """One tick extracts every pair's path in a single batch; each must be the
    brute-force oracle's path, ties included."""
    rng = np.random.default_rng(31)
    graphs = [random_connectivity_graph(rng) for _ in range(150)]
    graphs += [random_connectivity_graph(rng, n_nodes=20, edge_p=0.2) for _ in range(3)]
    checked = 0
    for g in graphs:
        nodes = graph_nodes(g.codes)
        state = view(nodes=nodes)
        ingest(state, graph_reports(g))
        pairs = tuple((u, v) for k, u in enumerate(nodes) for v in nodes[k + 1:])
        max_hops = int(rng.integers(1, 6))
        snr_min = float(rng.choice((-5.0, 1.5, 4.0)))
        _, diag = tick(state, 0, XAppConfig(snr_min_db=snr_min, max_hops=max_hops), pairs)
        for k, (u, v) in enumerate(pairs):
            got = assigned(diag, k, state.codes)
            assert got == reference_widest_path(g, u, v, max_hops, snr_min)
            checked += got is not None
    assert checked >= 1000


def test_xapp_tick_matches_reference_when_columns_relax_in_several_chunks():
    """200-node integer-SNR graphs with enough distinct destinations that each
    hop layer relaxes in several slices of relays, at int16 ranks: every
    pair's path is the brute-force oracle's, ties included."""
    rng = np.random.default_rng(4243)
    checked = 0
    for _ in range(6):
        g = random_connectivity_graph(rng, n_nodes=200, edge_p=0.03)
        edges = {e: float(round(snr)) for e, snr in edges_of(g).items()}
        g = graph_of(edges, graph_nodes(g.codes))
        nodes = graph_nodes(g.codes)
        state = view(nodes=nodes)
        ingest(state, graph_reports(g))
        ends = np.sort(rng.choice(len(nodes), size=(32, 2), replace=False), axis=1)
        pairs = tuple((nodes[a], nodes[b]) for a, b in ends)  # served smaller -> larger
        destinations = {v for _, v in pairs}
        # one slice holds _SCRATCH_BYTES // (rank bytes * rows * destinations)
        # relays
        rank, _ = _edge_ranks(build_graph(state, 0, 0.0))
        relays = np.count_nonzero((rank >= 0).any(axis=1))
        assert rank.dtype == np.int16
        assert relays > 2 * (_SCRATCH_BYTES // (rank.itemsize * len(nodes) * len(destinations)))
        _, diag = tick(state, 0, XAppConfig(snr_min_db=0.0, max_hops=4), pairs)
        for k, (u, v) in enumerate(pairs):
            got = assigned(diag, k, state.codes)
            assert got == reference_widest_path(g, u, v, 4, 0.0)
            checked += got is not None
    assert checked >= 120  # most of the 192 pairs have a feasible path


def spread(node, offset=1):
    """The node at index 2 * index + offset of its kind."""
    return NodeId(node.kind, 2 * node.index + offset)


def test_silent_edgeless_slots_change_no_path():
    """Silent nodes without an edge, interleaved into the view of a random
    oracle graph, change nothing: every bottleneck, hop count and path is
    still the oracle's, ties included, and the control batch, renamed to
    codes, is that of the view without them. Such slots cannot relay, and the
    solve clamps the hop budget to the nodes with an edge; only the -1
    padding widens, to the min(max_hops, n - 1) + 1 slots of each view."""
    rng = np.random.default_rng(606)
    seen = Counter()
    for _ in range(150):
        g = random_connectivity_graph(rng)
        g = graph_of({(spread(u), spread(v)): snr for (u, v), snr in edges_of(g).items()},
                     [spread(node) for node in graph_nodes(g.codes)])
        members = graph_nodes(g.codes)
        silent = [spread(node, 0) for node in members if rng.random() < 0.7]
        pairs = [(u, v) for k, u in enumerate(members) for v in members[k + 1:]]
        cfg = XAppConfig(snr_min_db=float(rng.choice((-5.0, 1.5, 4.0))),
                         max_hops=int(rng.integers(1, 9)))
        ticks = []
        for nodes in (members, sorted(set(members) | set(silent))):
            state = view(nodes=nodes)
            ingest(state, graph_reports(g))
            ticks.append((state.codes, *tick(state, 0, cfg, pairs)))
        (codes, batch, diag), (wide_codes, wide_batch, wide_diag) = ticks
        assert len(wide_codes) > len(codes) or not silent
        for n, result in ((len(codes), diag), (len(wide_codes), wide_diag)):
            width = max(1, min(cfg.max_hops, n - 1)) + 1
            assert result.paths.shape[1] == width
        width = diag.paths.shape[1]
        assert (wide_diag.paths[:, width:] == -1).all()
        assert (codes_of(wide_codes, wide_diag.paths[:, :width]).tolist()
                == codes_of(codes, diag.paths).tolist())
        assert codes_of(wide_codes, wide_batch.target).tolist() == codes_of(codes, batch.target).tolist()
        assert (codes_of(wide_codes, wide_batch.next_hop).tolist()
                == codes_of(codes, batch.next_hop).tolist())
        assert wide_batch.pair.tolist() == batch.pair.tolist()
        assert wide_diag.graph_nodes == diag.graph_nodes == len(members)
        for k, (u, v) in enumerate(pairs):
            want = reference_widest_path(g, u, v, cfg.max_hops, cfg.snr_min_db)
            assert assigned(wide_diag, k, wide_codes) == want
            assert wide_diag.hops[k] == diag.hops[k]
        seen["relayed"] += len(np.unique(batch.pair))
        seen["clamped"] += cfg.max_hops >= width and len(batch) > 0
        seen["wider rows"] += wide_diag.paths.shape[1] > width and len(batch) > 0
        seen["silent rsu"] += any(node.kind == NodeKind.RSU for node in silent)
    assert min(seen.values()) >= 20, seen


def test_empty_pair_list_serves_nothing():
    state = fresh_triangle()
    batch, diag = tick(state, 0, XAppConfig(snr_min_db=5.0))
    assert len(batch) == 0
    assert diag.graph_nodes == 3  # the graph is still built
    assert diag.pairs_total == 0
    assert len(diag.served) == 0


def test_empty_controller_state_is_quiet():
    state = view()
    batch, diag = tick(state, 0, XAppConfig(), [(cav(0), cav(1))])
    assert len(batch) == 0
    assert diag.served.tolist() == [False]
    assert diag.graph_nodes == 0
    assert diag.pairs_total == 1
    assert diag.pairs_feasible == 0 and diag.hops.tolist() == [0]


# --- configuration and pairs -----------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    dict(snr_min_db=500.0),
    dict(snr_min_db=-500.0),
    dict(max_hops=0),
    dict(snr_min_db=math.nan),
    # a bool was taken as 1.0, and a str died with a TypeError
    dict(snr_min_db=True),
    dict(snr_min_db="5"),
])
def test_xapp_config_validation(kwargs):
    with pytest.raises(ConfigurationError) as err:
        XAppConfig(**kwargs).validate()
    assert any(key in str(err.value) for key in kwargs), err.value


@pytest.mark.parametrize("pairs", [
    [(0, 1), (2, 2)],  # a degenerate pair behind a valid one
    [(1, 1)],
    [(0, -1)],  # numpy would wrap -1 to the view's last slot
    [(-1, 0)],
    [(0, 1), (0, 36)],  # the default view holds slots 0-35
])
def test_xapp_tick_rejects_bad_pairs_before_building_the_graph(pairs, monkeypatch):
    """Bad pairs are refused when the xApp's state is built, before any tick
    builds a graph."""
    monkeypatch.setattr(ric, "build_graph", lambda *args: pytest.fail("graph built"))
    with pytest.raises(ConfigurationError):
        XAppState(len(view().codes), pairs=np.array(pairs), xapp=XAppConfig(snr_min_db=5.0))


@pytest.mark.parametrize("hops", [2.5, True, "4", np.float64(3.0)])
def test_xapp_config_refuses_a_hop_budget_that_is_not_an_integer(hops):
    """A fractional hop budget was accepted and only failed when the first
    tick sized its path rows."""
    with pytest.raises(ConfigurationError, match="max_hops"):
        XAppConfig(max_hops=hops).validate()
    assert XAppConfig(max_hops=np.int64(3)).validate().max_hops == 3


@pytest.mark.parametrize("window", [-1, 2.5, True, np.float64(2.0)])
def test_ric_state_refuses_a_staleness_window_that_is_not_a_step_count(window):
    """A negative K made a report stale at the step it was taken, so the xApp
    could never build an edge; a fractional or bool K was taken as a number."""
    with pytest.raises(ConfigurationError, match="staleness_steps"):
        RicState(view().codes, window)


def test_zero_staleness_keeps_a_report_fresh_at_its_own_step():
    state = view(staleness_steps=0)
    ingest(state, instant(0, (cav(0), [(cav(1), 10.0)]), (cav(1), [(cav(0), 10.0)])))
    assert has_edge(state.codes, build_graph(state, 0, snr_min_db=5.0), cav(0), cav(1))
    assert not has_edge(state.codes, build_graph(state, 1, snr_min_db=5.0), cav(0), cav(1))


def test_xapp_state_validates_its_policy():
    with pytest.raises(ConfigurationError, match="max_hops"):
        XAppState(len(view().codes), xapp=XAppConfig(max_hops=0))


def test_pairs_run_from_the_smaller_slot():
    cfg = XAppConfig(snr_min_db=5.0)
    state = fresh_triangle()
    forward_xapp = xapp_on(state, [(cav(0), cav(9))], cfg)
    backward_xapp = xapp_on(state, [(cav(9), cav(0))], cfg)
    assert backward_xapp.pairs.tolist() == [slots(state, cav(0), cav(9))]
    forward, _ = run_tick(state, forward_xapp, 0)
    backward, diag = run_tick(state, backward_xapp, 0)
    assert (backward.target.tolist(), backward.pair.tolist(), backward.next_hop.tolist()) == (
        forward.target.tolist(), forward.pair.tolist(), forward.next_hop.tolist())
    assert backward.target.tolist() == slots(state, cav(0), cav(5))
    assert assigned(diag, 0, state.codes).nodes == (cav(0), cav(5), cav(9))


def test_unchanged_path_gets_no_message():
    """Over the triangle and a second relayed pair, a second tick of the same
    xApp sends nothing; moving one pair's relay resends that pair's hops
    alone."""
    cfg = XAppConfig(snr_min_db=5.0)
    state = fresh_triangle()
    xapp = xapp_on(state, [(cav(0), cav(9)), (cav(1), cav(8))], cfg)
    ingest(state, instant(0, (cav(1), [(cav(6), 9.0)]),
                          (cav(6), [(cav(1), 9.0), (cav(8), 9.0)]), (cav(8), [(cav(6), 9.0)])))
    first, diag = run_tick(state, xapp, 0)
    assert first.pair.tolist() == [0, 0, 1, 1] and len(first) == 4
    again, same = run_tick(state, xapp, 0)
    assert len(again) == 0 and again.pair.tolist() == [] and again.next_hop.shape == (0,)
    assert same.paths.tolist() == diag.paths.tolist()
    # cav(9) now reaches cav(0) better through cav(3)
    ingest(state, instant(1, (cav(0), [(cav(3), 12.0)]), (cav(3), [(cav(0), 12.0), (cav(9), 12.0)]),
                          (cav(9), [(cav(3), 12.0)])))
    moved, now = run_tick(state, xapp, 1)
    assert moved.pair.tolist() == [0, 0]
    assert moved.target.tolist() == slots(state, cav(0), cav(3))
    assert moved.next_hop.tolist() == slots(state, cav(3), cav(9))
    assert assigned(now, 0, state.codes).nodes == (cav(0), cav(3), cav(9))


@pytest.mark.parametrize("gap", ["direct", "unserved"])
def test_pair_relayed_again_after_a_gap_gets_its_hops_resent(gap):
    """A tick on which the pair went direct or unserved leaves its sent row
    all -1, so the same relayed path on a later tick is sent in full."""
    cfg = XAppConfig(snr_min_db=5.0)
    state = fresh_triangle()
    xapp = xapp_on(state, [(cav(0), cav(9))], cfg)
    batch, diag = run_tick(state, xapp, 0)
    if gap == "direct":
        ingest(state, instant(1, (cav(0), [(cav(5), 9.0), (cav(9), 10.0)]),
                              (cav(9), [(cav(5), 7.0), (cav(0), 10.0)])))
        between, mid = run_tick(state, xapp, 1)
        assert mid.direct.tolist() == [True]
    else:
        between, mid = run_tick(state, xapp, 10)
        assert mid.served.tolist() == [False]
    assert len(between) == 0
    assert (xapp.sent == -1).all()
    ingest(state, triangle(11))
    resent, again = run_tick(state, xapp, 11)
    assert again.paths.tolist() == diag.paths.tolist()
    assert resent.target.tolist() == batch.target.tolist() == slots(state, cav(0), cav(5))
    assert (resent.pair.tolist(), resent.next_hop.tolist()) == (batch.pair.tolist(),
                                                                batch.next_hop.tolist())
