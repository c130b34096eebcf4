"""Simulation-loop tests: cadence, determinism, metrics, audits, sweeps."""

import importlib
import importlib.util
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import reference_schedule
from reference_channel import reference_link_table
from reference_graph import fresh
from reference_ids import NodeId
import v2xric
from reference_mobility import VehicleState, fleet_of
from reference_outage import _link_uniform_int
from reference_run import reference_run
from slot_adapter import pair_slots, solve_tick
from v2xric import (ChannelParams, ConfigurationError, IndicationBatch, MetricsRecord,
                    MobilityState, NodeKind, RicState, SimConfig, SweepSpec, TrafficConfig, World,
                    WorldConfig, XAppConfig, XAppState, apply_control, build_intersection,
                    forwarding_table, ingest, run, run_with_audit, spawn_vehicles, step_mobility,
                    sweep_blockage, sweep_snr, time_average, xapp_tick)
from v2xric import channel, engine, ran, ric, streams
from v2xric.engine import _build_pairs, _connectivity
from v2xric.scenario import CAR_EXTENT


def cav(i):
    return NodeId(NodeKind.CAV, i)


def quick_cfg(**overrides):
    base = dict(duration_s=5.0, seed=2, warmup_s=0.0)
    base.update(overrides)
    return SimConfig(**base)


def record_reprs(records):
    return [repr(r) for r in records]


# --- cadence and determinism -----------------------------------------------------


def test_one_record_per_control_tick():
    records = run(quick_cfg(duration_s=1.0, control_period_s=0.5))
    assert [r.t for r in records] == [0.0, 0.5]


def test_identical_config_and_seed_reproduce_records():
    cfg_a = quick_cfg(duration_s=3.0, channel=ChannelParams(p_b=0.3))
    cfg_b = quick_cfg(duration_s=3.0, channel=ChannelParams(p_b=0.3))
    assert record_reprs(run(cfg_a)) == record_reprs(run(cfg_b))


def test_different_seeds_diverge():
    a = run(quick_cfg(duration_s=2.0, seed=2))
    b = run(quick_cfg(duration_s=2.0, seed=3))
    assert record_reprs(a) != record_reprs(b)


def spy_schedule(monkeypatch):
    """Record the report, ingest and tick events of the runs that follow, in
    the form `reference_schedule.schedule` predicts: each step as its time,
    round(step * dt_s, 9), at the dt_s of the run's latest report. A tick is
    recorded where its solve stream fixes its graph from the view, in step
    order, ahead of the block of ticks solved with it."""
    events, dt = [], []
    collect, ingest, fix = streams.collect_reports, ric.ingest, ric.build_graph

    def seconds(step):
        return round(step * dt[-1], 9)

    def collect_spy(measured, cfg, *rest):
        dt.append(cfg.dt_s)
        events.append(("report", seconds(measured.step)))
        return collect(measured, cfg, *rest)

    def ingest_spy(state, batch):
        events.append(("ingest", seconds(batch.step)))
        return ingest(state, batch)

    def fix_spy(state, step, snr_min_db):
        events.append(("tick", seconds(step)))
        return fix(state, step, snr_min_db)

    monkeypatch.setattr(streams, "collect_reports", collect_spy)
    monkeypatch.setattr(ric, "ingest", ingest_spy)
    monkeypatch.setattr(ric, "build_graph", fix_spy)
    return events


def reference_events(cfg):
    """The float reference's events for `cfg`, less the reports that arrive
    after its last tick: no tick ingests them, so the run takes none."""
    events = reference_schedule.schedule(cfg.duration_s, cfg.dt_s, cfg.control_period_s,
                                         cfg.resolved_reporting_period(), cfg.control_delay_s)
    ingested = {t for kind, t in events if kind == "ingest"}
    return [(kind, t) for kind, t in events if kind != "report" or t in ingested]


def read_reports(cfg):
    """How many reports of a run `cfg` some control tick ingests."""
    return sum(kind == "ingest" for kind, _ in reference_events(cfg))


def assert_schedule(events, cfg):
    """The run's events are `reference_events`', and every report it takes
    is ingested, in the order taken."""
    assert events == reference_events(cfg), cfg
    assert ([t for kind, t in events if kind == "report"]
            == [t for kind, t in events if kind == "ingest"]), cfg


def test_report_cadence_fires_on_whole_steps(monkeypatch):
    events = spy_schedule(monkeypatch)
    # a 0.5 s period fires at its multiples; the 3.0 s report would arrive
    # at 3.01 s, after the last tick
    cfg = quick_cfg(duration_s=3.1, reporting_period_s=0.5, control_period_s=0.5)
    run(cfg)
    assert [t for kind, t in events if kind == "report"] == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
    assert_schedule(events, cfg)
    # 0.3 is not exactly 3 * 0.1, yet the cadence fires every 3 steps
    events.clear()
    cfg = quick_cfg(duration_s=3.0, reporting_period_s=0.3, control_period_s=0.3)
    run(cfg)
    assert [t for kind, t in events if kind == "report"] == [round(0.3 * k, 9) for k in range(9)]
    assert_schedule(events, cfg)


def test_schedule_matches_the_float_reference(monkeypatch):
    """On random whole-step configs the run reports, ingests and ticks in the
    order the float-time rule it replaced predicts."""
    events = spy_schedule(monkeypatch)
    rng = np.random.default_rng(13)
    for dt in (0.1, 0.05, 0.2, 0.3 / 3):
        for delay in (0.0, 0.01, dt, 0.25):
            control, reporting = rng.integers(1, 6, size=2)
            cfg = quick_cfg(duration_s=int(rng.integers(6, 16)) * dt, dt_s=dt,
                            control_period_s=int(control) * dt,
                            reporting_period_s=None if rng.random() < 0.3 else int(reporting) * dt,
                            control_delay_s=delay, traffic=TrafficConfig(density_veh_km=10.0))
            events.clear()
            run(cfg)
            assert_schedule(events, cfg)


def test_decoupled_reporting_cadence_still_feeds_the_controller():
    records = run(quick_cfg(duration_s=1.0, reporting_period_s=0.2,
                            xapp=XAppConfig(snr_min_db=0.0)))
    assert len(records) == 10
    # the controller tick between reports works on the previous report set
    assert records[1].t == 0.1
    assert records[1].connectivity > 0.0


# --- metrics ---------------------------------------------------------------------


def path_tick(pairs=(), cfg=None):
    """The first tick, at step 0, of an xApp that serves the (NodeId,
    NodeId) `pairs` under `cfg` on a fresh controller view of a chain a-b (10
    dB), b-c (8 dB), c-d (6 dB); cav(i) holds view slot i. Returns the xApp's
    state, its control batch and its diagnostics."""
    edges = {(cav(0), cav(1)): 10.0, (cav(1), cav(2)): 8.0, (cav(2), cav(3)): 6.0}
    links = [(u, v, snr) for (u, v), snr in edges.items()] + [
        (v, u, snr) for (u, v), snr in edges.items()]
    codes = np.array([cav(i).code for i in range(4)])
    view = ingest(RicState(codes), IndicationBatch(
        step=0, reporters=np.arange(4),
        source=np.array([u.index for u, _, _ in links], dtype=np.int64),
        neighbor=np.array([v.index for _, v, _ in links], dtype=np.int64),
        snr_db=np.array([snr for _, _, snr in links], dtype=np.float64)))
    state = XAppState(len(codes), pairs=pair_slots(codes, pairs),
                      xapp=XAppConfig() if cfg is None else cfg)
    policy = state.xapp
    return (state, *xapp_tick(state, solve_tick(view, 0, state.pairs, policy.max_hops,
                                                (policy.snr_min_db,))))


def all_pairs():
    ids = [cav(i) for i in range(4)]
    return [(ids[i], ids[j]) for i in range(4) for j in range(i + 1, 4)]


def connectivity(snr_min_db, max_hops, metric_mode="pairwise"):
    """One control tick's connectivity, scored as the run loop scores it."""
    state, _, diag = path_tick(all_pairs(), XAppConfig(snr_min_db=snr_min_db, max_hops=max_hops))
    return _connectivity(state.pairs, diag.served, metric_mode)


def test_connectivity_pairwise_counts_feasible_pairs():
    assert connectivity(snr_min_db=5.0, max_hops=4) == 1.0
    assert connectivity(snr_min_db=5.0, max_hops=1) == 0.5
    assert connectivity(snr_min_db=7.0, max_hops=4) == 0.5


def test_connectivity_per_vehicle_counts_served_vehicles():
    assert connectivity(snr_min_db=5.0, max_hops=1, metric_mode="per-vehicle") == 1.0
    # at 7 dB the c-d edge is gone: vehicle 3 is stranded, the rest are served
    assert connectivity(snr_min_db=7.0, max_hops=4, metric_mode="per-vehicle") == 0.75


def test_time_average_honors_warmup():
    def rec(t, value):
        return MetricsRecord(t=t, gamma_min_db=5.0, p_b=0.0, connectivity=value,
                             pairs_total=1, pairs_direct=0, pairs_relayed=0,
                             mean_hops=math.nan, direct_connectivity=value / 2)

    records = [rec(round(0.1 * k, 9), float(k)) for k in range(10)]
    assert time_average(records, 0.0) == pytest.approx(4.5)
    assert time_average(records, 0.5) == pytest.approx(7.0)
    assert time_average(records, 0.5, "direct_connectivity") == pytest.approx(3.5)
    with pytest.raises(ConfigurationError):
        time_average(records, 2.0)


# --- pair selection ----------------------------------------------------------------


def hand_world(n):
    layout = build_intersection(200.0, 14.0)
    vehicles = [
        VehicleState(vid=k, position=(-150.0 + 10.0 * k, -3.5), heading=(1.0, 0.0),
                     speed_mps=14.0, extent=CAR_EXTENT)
        for k in range(n)
    ]
    return World(layout=layout, fleet=fleet_of(vehicles), rsus=np.empty((0, 3)))


def pair_nodes(world, selection, seed):
    """The served pairs of `_build_pairs`, named by NodeId."""
    return [(NodeId.from_code(world.codes[a]), NodeId.from_code(world.codes[b]))
            for a, b in _build_pairs(world.codes, selection, seed).tolist()]


def test_matched_pairs_form_a_perfect_matching():
    world = hand_world(7)
    pairs = pair_nodes(world, "matched", seed=5)
    assert len(pairs) == 3  # one vehicle sits out of an odd count
    seen = [node for pair in pairs for node in pair]
    assert len(seen) == len(set(seen))
    assert all(u < v for u, v in pairs)
    assert pairs == sorted(pairs)
    assert pairs == pair_nodes(world, "matched", seed=5)
    assert pairs != pair_nodes(world, "matched", seed=6)


def test_all_pairs_enumerates_every_combination():
    world = hand_world(5)
    pairs = pair_nodes(world, "all", seed=1)
    assert len(pairs) == 10
    assert pairs == sorted(set(pairs)) and all(u < v for u, v in pairs)


def test_pair_building_needs_two_vehicles():
    with pytest.raises(ConfigurationError):
        _build_pairs(hand_world(1).codes, "all", seed=1)


def test_records_report_the_full_pair_count():
    cfg = quick_cfg(duration_s=1.0, seed=11)
    records = run(cfg)
    layout = build_intersection(200.0, 14.0)
    n = len(spawn_vehicles(layout, TrafficConfig(seed=11)))
    assert records[0].pairs_total == n * (n - 1) // 2


# --- run-level invariants ----------------------------------------------------------


def test_relay_dominates_direct_at_every_tick():
    for seed in (1, 5, 9):
        relay_cfg = quick_cfg(duration_s=10.0, seed=seed,
                              xapp=XAppConfig(snr_min_db=10.0))
        direct_cfg = replace(relay_cfg, xapp=replace(relay_cfg.xapp, max_hops=1))
        relay_records = run(relay_cfg)
        direct_records = run(direct_cfg)
        assert len(relay_records) == len(direct_records)
        for rr, dr in zip(relay_records, direct_records):
            assert rr.connectivity >= dr.connectivity
            # a direct-only run measures exactly the relay run's direct baseline
            assert dr.connectivity == rr.direct_connectivity


@pytest.mark.parametrize("overrides", [
    dict(),
    dict(seed=6, metric_mode="per-vehicle", pair_selection="matched",
         channel=ChannelParams(p_b=0.3)),
    dict(measured_neighbors=3),
    dict(xapp=XAppConfig(max_hops=1)),
    dict(xapp=XAppConfig(snr_min_db=-300.0)),
], ids=["default", "matched-per-vehicle", "capped", "no-relay", "lowest-threshold"])
def test_report_floor_changes_no_record_and_no_audit(monkeypatch, overrides):
    """A run whose link tables carry no report floor gives the same records
    and audit as the floored run, having measured at least as many links."""
    cfg = quick_cfg(**{"duration_s": 2.0, "seed": 5, **overrides})
    measured = []
    link_table = channel.link_table

    def spy(floored):
        def measure(*args, min_snr_db, **kwargs):
            assert min_snr_db == cfg.xapp.snr_min_db
            tab = link_table(*args, min_snr_db=min_snr_db if floored else None, **kwargs)
            measured.append(len(tab.i))
            return tab
        return measure

    monkeypatch.setattr(channel, "link_table", spy(True))
    floored = run_with_audit(cfg)
    floored_links, measured[:] = sum(measured), []
    monkeypatch.setattr(channel, "link_table", spy(False))
    unfloored = run_with_audit(cfg)
    assert record_reprs(floored[0]) == record_reprs(unfloored[0])
    assert floored[1] == unfloored[1]
    assert floored_links <= sum(measured)
    if cfg.xapp.snr_min_db > -300.0:
        assert floored_links < sum(measured)


@pytest.mark.parametrize("mode", ["stochastic", "combined"])
def test_certain_blockage_zeroes_connectivity(mode):
    cfg = quick_cfg(duration_s=3.0, channel=ChannelParams(p_b=1.0, blockage_mode=mode))
    for record in run(cfg):
        assert record.connectivity == 0.0
        assert record.direct_connectivity == 0.0


def test_infrastructure_only_reporting_has_no_direct_vehicle_pairs():
    cfg = quick_cfg(duration_s=2.0, cav_terminations=False,
                    xapp=XAppConfig(snr_min_db=0.0))
    for record in run(cfg):
        assert record.pairs_direct == 0
        assert record.direct_connectivity == 0.0


def test_audit_confirms_sound_control_plane():
    records, audit = run_with_audit(quick_cfg(duration_s=5.0,
                                              xapp=XAppConfig(snr_min_db=10.0)))
    assert len(records) == 50
    assert audit.messages_total > 0
    assert audit.paths_checked > 0
    assert audit.paths_ok == audit.paths_checked
    assert audit.paths_failed == 0
    assert audit.protocol_errors == 0


def test_hop_budget_past_the_view_costs_nothing():
    """A hop-minimal widest path is simple, so a budget past n - 1 edges for
    the n slots of the controller's view changes nothing in a run: records
    and audit equal the n - 1 run's, and the traced peak stays within 1 MB
    of it, since the path rows the xApp keeps are sized by the view, not by
    the budget."""
    cfg = SimConfig(duration_s=0.3, warmup_s=0.0)
    n = len(engine._world(cfg, cfg.world.layout()).codes)
    outputs, peaks = [], []
    for max_hops in (n - 1, 5000):
        tracemalloc.start()
        try:
            outputs.append(run_with_audit(replace(cfg, xapp=XAppConfig(max_hops=max_hops))))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    (records, audit), (deep_records, deep_audit) = outputs
    assert n == 43 and audit.paths_checked > 0
    assert record_reprs(deep_records) == record_reprs(records) and deep_audit == audit
    assert peaks[1] < peaks[0] + 1e6, peaks


def test_audit_counts_broken_forwarding():
    """A table corrupted after a sound tick fails exactly the paths it breaks:
    chain 0-1-2-3 serves (0, 3) over three hops and (0, 2) over two."""
    _, batch, diag = path_tick([(cav(0), cav(3)), (cav(0), cav(2))], XAppConfig(snr_min_db=5.0))
    assert diag.hops.tolist() == [3, 2]

    def audited(corrupt):
        table = forwarding_table(4, 2)
        apply_control(table, batch)
        corrupt(table)
        assert len(diag.paths) == 2
        return len(diag.paths) - ran.delivered(table, diag.paths, np.arange(2))

    def drop(table):
        table[2, 0] = -1  # cav(2) forgets pair (0, 3)

    def loop(table):
        table[1, 0] = 0  # cav(1) sends (0, 3) back to cav(0)

    def through_destination(table):
        # cav(0) jumps to cav(3), which holds an entry back to cav(2): the walk
        # ends at the destination in three hops, but passed it after one
        table[0, 0] = 3
        table[3, 0] = 2

    assert audited(lambda table: None) == 0
    assert audited(drop) == 1
    assert audited(loop) == 1
    assert audited(through_destination) == 1


def test_audit_checks_entries_kept_from_an_earlier_tick(monkeypatch):
    """The audit walks every multi-hop path of a tick, not only the ones the
    tick sent: the entry of a pair relayed over the same path on two ticks,
    corrupted between them, gets no message on the second and fails exactly
    that path. The first tick has no reports yet; the second and third do."""
    cfg = quick_cfg(duration_s=0.3)
    clean = run_with_audit(cfg)[1]
    ticks, corrupted = [], []
    xapp, apply = ric.xapp_tick, ran.apply_control

    def tick_spy(*args):
        ticks.append(xapp(*args))
        return ticks[-1]

    def apply_spy(table, batch):
        if len(ticks) == 3:
            (_, before), (_, now) = ticks[1:]
            kept = [k for k in np.flatnonzero((before.hops >= 2) & (now.hops >= 2)).tolist()
                    if now.paths[k][now.paths[k] >= 0].tolist()
                    == before.paths[k][before.paths[k] >= 0].tolist()]
            k = kept[0]
            assert k not in batch.pair.tolist()
            table[now.paths[k, 0], k] = -1
            corrupted.append(k)
        return apply(table, batch)

    monkeypatch.setattr(ric, "xapp_tick", tick_spy)
    monkeypatch.setattr(ran, "apply_control", apply_spy)
    _, audit = run_with_audit(cfg)
    assert len(corrupted) == 1 and clean.paths_failed == 0
    assert (audit.messages_total, audit.paths_checked) == (clean.messages_total,
                                                           clean.paths_checked)
    assert audit.paths_failed == 1


def test_runs_never_import_numpy_ma():
    # np.unique (and np.isin, which calls it) imports numpy.ma, ~1 MB that stays;
    # the held sweep solves its ticks in blocks of several
    code = ("import sys\n"
            "from v2xric import SimConfig, SweepSpec, run, sweep_blockage\n"
            "run(SimConfig(duration_s=0.3, warmup_s=0.0))\n"
            "run(SimConfig(duration_s=0.3, warmup_s=0.0, metric_mode='per-vehicle',\n"
            "              pair_selection='matched', measured_neighbors=3))\n"
            "sweep_blockage(SweepSpec(SimConfig(duration_s=0.5, warmup_s=0.0,\n"
            "                                   pair_selection='matched'),\n"
            "                         gamma_min_values=(5.0, 15.0), p_b_values=(0.0, 0.5)))\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
    env = dict(os.environ, PYTHONPATH=str(Path(v2xric.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120, env=env)


def test_every_export_resolves():
    for name in v2xric.__all__:
        assert hasattr(v2xric, name), name


def test_every_bench_hook_resolves_and_fires(tmp_path):
    """Each layer the benchmark's tracer (bench/spans.py) wraps is a callable
    that a run reaches, so a renamed layer fails here instead of tracing as
    0 calls."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [name for name, _, _ in spans.HOOKS]
    for name, module, attr in spans.HOOKS:
        assert callable(getattr(importlib.import_module(f"v2xric.{module}"), attr, None)), name
    cli = importlib.import_module("v2xric.cli")
    tracer = spans.Tracer(names)
    tracer.install()
    try:
        assert cli.main(["run", "--out", str(tmp_path / "out"), "--duration", "0.3",
                         "--warmup", "0", "--snr-min", "0"]) == 0
    finally:
        assert tracer.restore()
    assert tracer.warnings == []
    assert {name: calls["calls"] for name, calls in tracer.totals().items()
            if calls["calls"] == 0} == {}


# --- sweeps ------------------------------------------------------------------------


def test_snr_sweep_rows_pair_direct_and_relay_series():
    spec = SweepSpec(base=quick_cfg(duration_s=2.0, seed=3),
                     gamma_min_values=(10.0, 5.0), replications=2)
    result = sweep_snr(spec)
    assert [(r.gamma_min_db, r.mode) for r in result.rows] == [
        (5.0, "direct"), (5.0, "relay"), (10.0, "direct"), (10.0, "relay")]
    assert all(r.replications == 2 for r in result.rows)
    assert [(r.cfg.xapp.snr_min_db, r.replication) for r in result.runs] == [
        (5.0, 0), (5.0, 1), (10.0, 0), (10.0, 1)]
    assert [r.cfg.seed for r in result.runs] == [3, 4, 3, 4]
    for gamma in (5.0, 10.0):
        direct_row = next(r for r in result.rows if r.gamma_min_db == gamma and r.mode == "direct")
        relay_row = next(r for r in result.rows if r.gamma_min_db == gamma and r.mode == "relay")
        assert relay_row.connectivity_mean >= direct_row.connectivity_mean


def test_blockage_sweep_grid_order_and_zero_column():
    spec = SweepSpec(base=quick_cfg(duration_s=2.0, seed=3),
                     gamma_min_values=(10.0, 5.0), p_b_values=(0.5, 0.0, 1.0),
                     replications=2)
    result = sweep_blockage(spec)
    assert [(r.gamma_min_db, r.p_b, r.mode) for r in result.rows] == [
        (5.0, 0.0, "relay"), (5.0, 0.5, "relay"), (5.0, 1.0, "relay"),
        (10.0, 0.0, "relay"), (10.0, 0.5, "relay"), (10.0, 1.0, "relay")]
    for row in result.rows:
        if row.p_b == 1.0:
            assert row.connectivity_mean == 0.0


def test_blockage_sweep_zero_column_equals_snr_sweep():
    base = quick_cfg(duration_s=2.0, seed=3)
    snr_rows = sweep_snr(SweepSpec(base=base, gamma_min_values=(5.0, 10.0),
                                   replications=2)).rows
    blk_rows = sweep_blockage(SweepSpec(base=base, gamma_min_values=(5.0, 10.0),
                                        p_b_values=(0.0,), replications=2)).rows
    for gamma in (5.0, 10.0):
        relay = next(r for r in snr_rows if r.gamma_min_db == gamma and r.mode == "relay")
        blocked = next(r for r in blk_rows if r.gamma_min_db == gamma)
        assert blocked.connectivity_mean == relay.connectivity_mean
        assert blocked.connectivity_std == relay.connectivity_std


def serial_pool(monkeypatch):
    """Stand in for the fork pool with one that maps in this process, so
    nothing is forked; returns the process counts the sweeps ask it for."""
    requested = []

    class SerialPool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]

    class Context:
        Pool = SerialPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context())
    return requested


def test_sweep_pool_starts_no_more_workers_than_cells(monkeypatch):
    """A held replication is one job, and past the hold budget, here 0
    bytes, each cell is one: a sweep starts one pool of at most as many
    processes as jobs, and none for one job or one worker."""
    requested = serial_pool(monkeypatch)
    base = quick_cfg(duration_s=1.0, seed=3)
    full = streams._HOLD_BYTES
    for reps, workers, budget, pools in ((1, 8, full, []), (3, 8, full, [3]), (3, 2, full, [2]),
                                         (2, 1, full, []), (1, 8, 0, [4]), (1, 1, 0, [])):
        monkeypatch.setattr(streams, "_HOLD_BYTES", budget)
        requested[:] = []
        spec = SweepSpec(base=base, gamma_min_values=(5.0, 10.0), p_b_values=(0.0, 0.5),
                         replications=reps, workers=workers)
        assert len(sweep_blockage(spec).runs) == 4 * reps
        assert requested == pools, (reps, workers, budget)


def sweep_case(rng, measured_neighbors):
    """A random short blockage sweep with two replications. Its threshold
    grid holds the SNR of a LOS link between an RSU and a vehicle measured
    at the first step, which is that link's LOS SNR, and its p_b grid holds
    0, 1 and the same link's outage uniform at that step. A bandwidth off
    the powers of ten makes the noise floor a fraction of a dB, and the
    EIRP is one at which the outage SNR's float depends on the order of
    its terms."""
    params = ChannelParams(bandwidth_hz=float(rng.choice((20e6, 50e6, 400e6))),
                           blockage_mode=str(rng.choice(("stochastic", "combined"))))
    noise, outage = channel.noise_floor(params), channel.OUTAGE_PATHLOSS_DB
    eirp = float(rng.uniform(15.0, 30.0))
    while eirp - outage - noise == eirp - noise - outage:
        eirp = float(rng.uniform(15.0, 30.0))
    base = quick_cfg(
        duration_s=float(rng.choice((0.4, 0.6))), seed=int(rng.integers(1, 10_000)),
        traffic=TrafficConfig(density_veh_km=float(rng.choice((20.0, 40.0, 60.0)))),
        channel=replace(params, eirp_dbm=eirp),
        measured_neighbors=measured_neighbors,
        cav_terminations=bool(rng.random() < 0.7),
        reporting_period_s=float(rng.choice((0.1, 0.2))),
        control_delay_s=float(rng.choice((0.0, 0.01, 0.15))))
    world = engine._world(base, base.world.layout())
    tab = channel.link_table(base.channel, world.xyz(), world.body, world.boxes(),
                             max_range=base.sensing_range_m)
    rsu_link = (ran.kinds(world.codes[tab.i]) == NodeKind.RSU) & (tab.snr_db > 0.0)
    k = int(rng.choice(np.flatnonzero(rsu_link & tab.los)))
    u = _link_uniform_int(base.seed, *sorted((int(world.codes[tab.i[k]]),
                                              int(world.codes[tab.j[k]]))), 0)
    gammas = (float(tab.snr_db[k]), *(float(g) for g in rng.uniform(-5.0, 25.0, size=2)))
    p_bs = (0.0, 1.0, u, float(rng.uniform(0.05, 0.95)))
    return SweepSpec(base=base, gamma_min_values=gammas, p_b_values=p_bs, replications=2)


def spy_batches(monkeypatch):
    """Every report batch the runs that follow emit, column by column as bytes."""
    batches, emit = [], ran.emit_indication

    def spy(*args):
        batch = emit(*args)
        batches.append((batch.step, *(getattr(batch, c).tobytes()
                                      for c in ("reporters", "source", "neighbor", "snr_db"))))
        return batch

    monkeypatch.setattr(ran, "emit_indication", spy)
    return batches


def cell_outputs(result):
    return [(record_reprs(cell.records), cell.audit) for cell in result.runs]


@pytest.mark.parametrize("measured_neighbors", [None, 1, 3])
def test_sweep_cells_equal_their_own_runs(monkeypatch, measured_neighbors):
    """Every cell of a sweep on its replication's shared world stream and its
    p_b's shared solve stream gives the records and audit of its own
    standalone run, at one and two workers. The sweep emits, replication by
    replication and p_b by p_b, bit for bit the report batches the
    standalone run at the smallest threshold emits, the link on the
    threshold and at the outage boundary included."""
    spec = sweep_case(np.random.default_rng([41, measured_neighbors or 0]), measured_neighbors)
    batches = spy_batches(monkeypatch)
    swept = sweep_blockage(spec)
    shared, lowest = list(batches), []
    for rep in range(spec.replications):
        for p_b in sorted(spec.p_b_values):
            for cell in (c for c in swept.runs
                         if c.replication == rep and c.cfg.channel.p_b == p_b):
                batches[:] = []
                records, audit = run_with_audit(cell.cfg)
                assert record_reprs(records) == record_reprs(cell.records), cell.cfg
                assert audit == cell.audit
                if cell.cfg.xapp.snr_min_db == min(spec.gamma_min_values):
                    lowest += batches
    assert lowest == shared
    assert cell_outputs(sweep_blockage(replace(spec, workers=2))) == cell_outputs(swept)


def own_link_table_batch(world, cfg, step):
    """The report batch of `cfg`'s own floored measurement of `world` at
    `step` with its outages applied inside it, as a run measured before world
    streams: the oracle `reference_link_table` at the cell's p_b."""
    tab = reference_link_table(cfg.channel, world.xyz(), world.codes, world.body, world.boxes(),
                               round(step * cfg.dt_s, 9), cfg.seed, max_range=cfg.sensing_range_m,
                               min_snr_db=cfg.xapp.snr_min_db)
    reporting = cfg.cav_terminations | (ran.kinds(world.codes) != NodeKind.CAV)
    src, dst = np.concatenate((tab.i, tab.j)), np.concatenate((tab.j, tab.i))
    sent = reporting[src]
    return ran.emit_indication(np.flatnonzero(reporting), src[sent], dst[sent],
                               np.concatenate((tab.snr_db, tab.snr_db))[sent], step,
                               cfg.measured_neighbors)


@pytest.mark.parametrize("measured_neighbors", [None, 1, 3])
def test_every_cell_reports_what_its_own_link_table_gives(measured_neighbors):
    """At every report step of a world stream floored at a threshold, each
    p_b cell's batch at that threshold is bit for bit the one its own
    floored measurement with its outages inside gives (the oracle
    `reference_link_table`), the link on the threshold and at an outage
    boundary included."""
    spec = sweep_case(np.random.default_rng([47, measured_neighbors or 0]), measured_neighbors)
    base = replace(spec.base, xapp=replace(spec.base.xapp, snr_min_db=spec.gamma_min_values[0]))
    stream = engine._world_stream(base, spec.p_b_values)
    world = engine._world(base, base.world.layout())
    mobility = MobilityState.from_seed(base.seed, base.traffic.turn_probability)
    reporting = base.cav_terminations | (ran.kinds(world.codes) != NodeKind.CAV)
    at, outages = 0, 0
    for measured in stream.steps:
        for at in range(at, measured.step):
            step_mobility(world.fleet, world.layout, base.dt_s, mobility)
        at = measured.step
        for p in spec.p_b_values:
            cell = replace(base, channel=replace(base.channel, p_b=p))
            got = streams.collect_reports(measured, cell, reporting, streams.cell_level(cell, stream))
            want = own_link_table_batch(world, cell, measured.step)
            assert got.step == want.step
            for column in ("reporters", "source", "neighbor", "snr_db"):
                assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
            outages += int(np.count_nonzero(want.snr_db < -300.0))
    assert outages > 0


def spy_solves(monkeypatch):
    """Count the ticks of the widest-path solves of the runs that follow, in
    this process, one entry per tick of each solved block."""
    ticks, widest = [], ric._widest_paths
    monkeypatch.setattr(ric, "_widest_paths",
                        lambda rank, *args: ticks.extend([1] * len(rank)) or widest(rank, *args))
    return ticks


def counted_sweep(monkeypatch, spec, budget):
    """`spec`'s blockage sweep under a hold budget of `budget` bytes, its
    `link_table` and widest-path calls, and its outputs, which are the same
    at two workers."""
    monkeypatch.setattr(streams, "_HOLD_BYTES", budget)
    measured, measure = [], channel.link_table
    monkeypatch.setattr(channel, "link_table",
                        lambda *args, **kwargs: measured.append(1) or measure(*args, **kwargs))
    solved = spy_solves(monkeypatch)
    result = sweep_blockage(spec)
    counts = len(measured), len(solved)
    assert cell_outputs(sweep_blockage(replace(spec, workers=2))) == cell_outputs(result)
    return counts, result


def test_sweep_solves_each_p_b_once_per_tick(monkeypatch):
    """Within the hold budget a replication's world is measured once per
    report step some tick reads, and the threshold cells of one (replication,
    p_b) share one widest-path solve per control tick."""
    spec = sweep_case(np.random.default_rng(45), 2)
    (measured, solved), shared = counted_sweep(monkeypatch, spec, streams._HOLD_BYTES)
    base = spec.base
    ticks = len(shared.runs[0].records)
    assert ticks == base.n_steps() // base.steps(base.control_period_s)
    reports = read_reports(base)
    assert measured == spec.replications * reports
    assert solved == spec.replications * len(spec.p_b_values) * ticks


def test_sweep_past_the_hold_budget_runs_each_cell_alone(monkeypatch):
    """Past the hold budget, here 0 bytes, a replication's first report step
    is the only one measured for the sweep: it is dropped, and every cell
    measures its own world and solves its own controller, with the outputs
    of the held sweep."""
    spec = sweep_case(np.random.default_rng(43), None)
    shared = sweep_blockage(spec)
    (measured, solved), alone = counted_sweep(monkeypatch, spec, 0)
    base = spec.base
    ticks = len(shared.runs[0].records)
    reports = read_reports(base)
    cells = len(spec.gamma_min_values) * len(spec.p_b_values)
    taken = math.ceil(base.n_steps() / base.steps(base.reporting_period_s))
    assert taken > 2 and reports < taken  # the last report arrives after the last tick
    assert measured == spec.replications * (1 + cells * reports)
    assert solved == spec.replications * cells * ticks
    assert cell_outputs(alone) == cell_outputs(shared) and alone.rows == shared.rows


def hold_bytes(spec, rep):
    """The bytes `streams.need` counts for replication `rep` of `spec`'s
    blockage sweep: its world (the first report step's, int32 endpoints,
    times the read report steps) and one p_b's solves (control ticks times
    pairs times 16 bytes and a 2-byte slot per hop count and path entry)."""
    base = spec.base
    cfg = replace(base, seed=base.seed + rep,
                  xapp=replace(base.xapp, snr_min_db=min(spec.gamma_min_values)))
    stream = engine._world_stream(cfg, sorted(spec.p_b_values))
    first = next(iter(stream.steps))
    pairs = len(engine._build_pairs(stream.codes, cfg.pair_selection, cfg.seed))
    assert len(stream.codes) > cfg.xapp.max_hops
    ticks = base.n_steps() // base.steps(base.control_period_s)
    world = read_reports(base) * sum(a.nbytes for a in (
        first.i.astype(np.int32), first.j.astype(np.int32), first.snr_db, first.outage))
    return world, ticks * pairs * (16 + 2 * (cfg.xapp.max_hops + 2))


def test_sweep_holds_a_world_only_with_its_solves(monkeypatch):
    """The budget is the first report step's bytes times the read report steps
    plus one p_b's solves: control ticks times pairs times 16 bytes and a
    2-byte slot per hop count and path entry. At exactly that many bytes the
    replication is held; one byte fewer, or a budget the world alone fits,
    and every cell runs alone. The outputs are the same in every case."""
    spec = replace(sweep_case(np.random.default_rng(49), 1), replications=1)
    base = spec.base
    world, solves = hold_bytes(spec, 0)
    reports = read_reports(base)
    ticks = base.n_steps() // base.steps(base.control_period_s)
    cells = len(spec.gamma_min_values) * len(spec.p_b_values)
    (measured, solved), held = counted_sweep(monkeypatch, spec, world + solves)
    assert (measured, solved) == (reports, len(spec.p_b_values) * ticks)
    for budget in (world + solves - 1, world):
        (measured, solved), alone = counted_sweep(monkeypatch, spec, budget)
        assert (measured, solved) == (1 + cells * reports, cells * ticks)
        assert cell_outputs(alone) == cell_outputs(held) and alone.rows == held.rows


def test_a_pool_runs_no_more_held_replications_than_fit_the_budget(monkeypatch):
    """Held replications run at once only as far as the budget fits the
    largest of them that many times, and a replication past the budget
    runs each cell alone. At a budget each replication fits but not two of
    them, the two-worker sweep runs both in turn in this process; at twice
    that, on a pool of two; at a budget only the smaller fits, the larger's
    cells share a pool of two with it. Each held world is measured once,
    and the outputs are those of the serial sweep."""
    requested = serial_pool(monkeypatch)
    spec = sweep_case(np.random.default_rng(55), None)
    needs = [sum(hold_bytes(spec, rep)) for rep in range(spec.replications)]
    assert spec.replications == 2 and min(needs) < max(needs) < 2 * min(needs)
    measured, measure = [], channel.link_table
    monkeypatch.setattr(channel, "link_table",
                        lambda *args, **kwargs: measured.append(1) or measure(*args, **kwargs))
    reports = read_reports(spec.base)
    cells = len(spec.gamma_min_values) * len(spec.p_b_values)
    serial = sweep_blockage(spec)
    for budget, pools, measures in ((max(needs), [], 2 * reports),
                                    (2 * max(needs), [2], 2 * reports),
                                    (min(needs), [2], reports + 1 + cells * reports)):
        monkeypatch.setattr(streams, "_HOLD_BYTES", budget)
        measured[:], requested[:] = [], []
        split = sweep_blockage(replace(spec, workers=2))
        assert (len(measured), requested) == (measures, pools), budget
        assert cell_outputs(split) == cell_outputs(serial) and split.rows == serial.rows


@pytest.mark.parametrize("replications,workers,held", [(3, 2, True), (1, 4, True), (1, 4, False)])
def test_uneven_worker_splits_give_the_serial_cells(monkeypatch, replications, workers, held):
    """Three replications on two worker processes, and one replication with
    four workers, held or past the hold budget (0 bytes) so that its cells
    are the jobs, give the cells and rows of the serial sweep."""
    spec = replace(sweep_case(np.random.default_rng([53, replications]), None),
                   replications=replications)
    serial = sweep_blockage(spec)
    monkeypatch.setattr(streams, "_HOLD_BYTES", streams._HOLD_BYTES if held else 0)
    split = sweep_blockage(replace(spec, workers=workers))
    assert cell_outputs(split) == cell_outputs(serial) and split.rows == serial.rows


# Runs whose every report would arrive after their last control tick: one
# tick at 0 s, before the first report arrives at 0.01 s, and a delay past
# the run.
NOTHING_READ = {
    "one-tick": quick_cfg(duration_s=0.1, traffic=TrafficConfig(density_veh_km=20.0)),
    "delay-past-the-run": quick_cfg(duration_s=0.5, control_delay_s=1.0,
                                    traffic=TrafficConfig(density_veh_km=20.0)),
}


@pytest.mark.parametrize("cfg", NOTHING_READ.values(), ids=NOTHING_READ.keys())
def test_a_run_that_reads_no_report_measures_no_link(monkeypatch, cfg):
    """With no report read, a run and a held 2 x 2 blockage sweep, within
    its hold budget and past it, run to the end without a `link_table` call,
    each run with the records and audit of the whole-run reference."""
    assert read_reports(cfg) == 0
    spec = SweepSpec(base=cfg, gamma_min_values=(5.0, 10.0), p_b_values=(0.0, 0.5))
    cells = [replace(cfg, xapp=XAppConfig(snr_min_db=g), channel=ChannelParams(p_b=p))
             for g in spec.gamma_min_values for p in spec.p_b_values]
    want = [reference_run(c) for c in [cfg, *cells]]
    measured, measure = [], channel.link_table
    monkeypatch.setattr(channel, "link_table",
                        lambda *args, **kwargs: measured.append(1) or measure(*args, **kwargs))
    got = [run_with_audit(cfg)]
    for budget in (streams._HOLD_BYTES, 0):
        monkeypatch.setattr(streams, "_HOLD_BYTES", budget)
        runs = sweep_blockage(spec).runs
        assert [c.cfg for c in runs] == cells
        got += [(c.records, c.audit) for c in runs]
    for (records, audit), (want_records, want_audit) in zip(got, want + want[1:], strict=True):
        assert record_reprs(records) == record_reprs(want_records) and audit == want_audit
    assert measured == []


def held_solves(cfg, gammas, p_bs):
    """`cfg`'s solves held at the smallest of `gammas` on its world for `p_bs`."""
    world = engine._world(cfg, cfg.world.layout())
    pairs = engine._build_pairs(world.codes, cfg.pair_selection, cfg.seed)
    stream = engine._world_stream(cfg, p_bs, world, streams.need(cfg, world, p_bs, len(pairs))[1])
    return streams.hold_solves(streams.solve_stream(cfg, stream, pairs, gammas))


def test_a_run_refuses_solves_for_another_run():
    cfg = quick_cfg(duration_s=0.3)
    solves = held_solves(cfg, (5.0, 10.0), (0.0,))
    for other in (replace(cfg, seed=3), replace(cfg, xapp=XAppConfig(snr_min_db=7.0)),
                  replace(cfg, xapp=XAppConfig(max_hops=3)),
                  replace(cfg, channel=ChannelParams(p_b=0.5))):
        with pytest.raises(ConfigurationError, match="solved for another run"):
            run_with_audit(other, solves=solves)
    cell = replace(cfg, xapp=XAppConfig(snr_min_db=10.0))
    assert record_reprs(run_with_audit(cell, solves=solves)[0]) == record_reprs(run(cell))


def test_a_solve_stream_refuses_a_world_measured_for_another_run():
    cfg = quick_cfg(duration_s=0.3)
    stream = engine._world_stream(cfg, (0.0, 0.5))
    pairs = engine._build_pairs(stream.codes, cfg.pair_selection, cfg.seed)
    for other in (replace(cfg, seed=3), replace(cfg, xapp=XAppConfig(snr_min_db=7.0)),
                  replace(cfg, channel=ChannelParams(p_b=1.0))):
        with pytest.raises(ConfigurationError, match="measured for another run"):
            streams.solve_stream(other, stream, pairs, (other.xapp.snr_min_db,))
    cell = replace(cfg, channel=ChannelParams(p_b=0.5))
    solves = held_solves(cell, (5.0, 10.0), (0.0, 0.5))
    cell = replace(cell, xapp=XAppConfig(snr_min_db=10.0))
    assert record_reprs(run_with_audit(cell, solves=solves)[0]) == record_reprs(run(cell))


def test_blockage_sweep_needs_a_stochastic_mode():
    spec = SweepSpec(base=quick_cfg(channel=ChannelParams(blockage_mode="geometric")),
                     gamma_min_values=(5.0,), p_b_values=(0.0,))
    with pytest.raises(ConfigurationError):
        sweep_blockage(spec)


@pytest.mark.parametrize("kwargs", [
    dict(gamma_min_values=()),
    dict(gamma_min_values=(5.0,), p_b_values=()),
    dict(gamma_min_values=(5.0,), p_b_values=(1.5,)),
    dict(gamma_min_values=(5.0,), replications=0),
    dict(gamma_min_values=(5.0,), workers=0),
    dict(gamma_min_values=(5.0, 400.0)),
    dict(gamma_min_values=(math.nan,)),
    dict(gamma_min_values=(5.0,), p_b_values=(math.nan,)),
    # fractional counts died with a TypeError after the worlds were built, or
    # (workers=2.5) ran
    dict(gamma_min_values=(5.0,), replications=1.5),
    dict(gamma_min_values=(5.0,), replications=True),
    dict(gamma_min_values=(5.0,), workers=1.5),
    dict(gamma_min_values=(5.0,), workers=2.5),
    # a bool grid value was taken as 1.0, and a str died with a TypeError
    dict(gamma_min_values=(True,)),
    dict(gamma_min_values=(5.0,), p_b_values=(0.5, True)),
    dict(gamma_min_values=("5",)),
    # a grid that is not a sequence died with a TypeError
    dict(gamma_min_values=5.0),
    dict(gamma_min_values=(5.0,), p_b_values=None),
    # a repeated value ran its cell twice, and each summary row averaged one
    # replication with itself
    dict(gamma_min_values=(5.0, 5.0)),
    dict(gamma_min_values=(5.0,), p_b_values=(0.5, 0.0, 0.5)),
])
def test_sweep_spec_validation(kwargs):
    # the last keyword holds the bad value, and the error names it
    with pytest.raises(ConfigurationError, match=list(kwargs)[-1]):
        SweepSpec(base=quick_cfg(), **kwargs).validate()


def test_a_grid_may_be_a_list():
    spec = SweepSpec(base=quick_cfg(), gamma_min_values=[5.0, 10.0], p_b_values=[0.0, 0.5])
    assert spec.validate() is spec


def test_numpy_integer_seeds_and_counts_pass():
    spec = SweepSpec(base=quick_cfg(seed=np.int64(3)), gamma_min_values=(5.0,),
                     replications=np.int64(2), workers=np.int64(2))
    assert spec.validate() is spec


@pytest.mark.parametrize("flag", [1, 0, "yes", None])
def test_cav_terminations_must_be_a_bool(flag):
    """`cav_terminations=1` turned the reporting mask into an index array: a
    1 s run from t = 0 scored 0.0 connectivity at every tick, where True
    scores 0.94 at t = 0.1 s. A numpy bool runs as the bool."""
    with pytest.raises(ConfigurationError, match="cav_terminations"):
        SimConfig(cav_terminations=flag).validate()
    cfg = quick_cfg(duration_s=0.2)
    assert record_reprs(run(replace(cfg, cav_terminations=np.bool_(True)))) == \
        record_reprs(run(cfg))


def test_sweep_spec_builds_every_replication_world_up_front(monkeypatch):
    """The sweep builds each replication's world as its run would before it
    hands any replication to `_replication`, so a world past the node-index
    bound (scaled down to 2^6 here) is refused before any run. At 80 veh/km
    seeds 2, 3 and 4 spawn 58, 49 and 65 vehicles: two replications from
    seed 2 fit, the third does not. `_replication` runs one replication's
    cells at a time, on the world the sweep built for it."""
    monkeypatch.setattr(ran, "_INDEX_BITS", 6)
    jobs = []
    monkeypatch.setattr(engine, "_replication",
                        lambda cfg, rep, world, *rest: jobs.append((rep, len(world.fleet))) or [])
    base = replace(quick_cfg(), traffic=TrafficConfig(density_veh_km=80.0))
    sweep_snr(SweepSpec(base=base, gamma_min_values=(5.0,), replications=2))
    assert jobs == [(0, 58), (1, 49)]
    with pytest.raises(ConfigurationError, match=r"2\^6: 4 RSUs and 65 vehicles"):
        sweep_snr(SweepSpec(base=base, gamma_min_values=(5.0,), replications=3))
    assert len(jobs) == 2


# --- configuration validation --------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    dict(duration_s=0.0),
    dict(control_period_s=0.05, dt_s=0.1),
    dict(seed=-1),
    dict(sensing_range_m=0.0),
    dict(control_delay_s=-0.1),
    dict(warmup_s=10.0, duration_s=5.0),
    dict(metric_mode="median"),
    dict(pair_selection="nearest"),
    dict(staleness_window_s=0.0),
    dict(reporting_period_s=0.01, dt_s=0.1),
    dict(duration_s=math.inf),
    dict(control_delay_s=math.nan),
    dict(control_delay_s=math.inf),
    dict(warmup_s=math.nan),
    dict(sensing_range_m=math.inf),
    dict(staleness_window_s=math.inf),
    dict(control_period_s=math.inf, reporting_period_s=0.1),
    dict(control_period_s=math.nan, reporting_period_s=0.1),
    dict(duration_s=0.04, warmup_s=0.0),  # no step at all
    dict(duration_s=0.15, warmup_s=0.12),  # ticks at 0.0 and 0.1 only
    dict(duration_s=0.15, warmup_s=0.0),  # 1.5 steps of dt_s
    dict(duration_s=0.25, warmup_s=0.0),
    dict(duration_s=0.55, warmup_s=0.0),
    dict(duration_s=0.2, warmup_s=0.15),  # whole steps, ticks at 0.0 and 0.1 only
    dict(dt_s=0.0),
    dict(dt_s=-0.1),
    dict(warmup_s=-0.1),
    # periods of an infinite number of steps
    dict(duration_s=1e300, dt_s=1e-9, control_period_s=1e-9, reporting_period_s=0.001,
         warmup_s=0.0),
    dict(duration_s=1.0, dt_s=1e-9, control_period_s=1e300, reporting_period_s=0.1,
         warmup_s=0.0),
    # steps below 1e-9 s, the grid record times round to
    dict(duration_s=2e-9, dt_s=1e-10, control_period_s=1e-10, reporting_period_s=0.001,
         warmup_s=0.0),
    # a seed that is not an integer (both ran to the end)
    dict(seed=1.5),
    dict(seed=True),
    # a delay or window of an infinite number of steps (both overflowed in the run)
    dict(duration_s=0.3, warmup_s=0.0, control_delay_s=1e308),
    dict(duration_s=0.3, warmup_s=0.0, staleness_window_s=1e308),
    # a bool was taken as 1.0 (both ran), and a str or None died with a TypeError
    dict(sensing_range_m=True),
    dict(control_delay_s=True),
    dict(duration_s="1"),
    dict(warmup_s=None),
])
def test_sim_config_validation(kwargs):
    with pytest.raises(ConfigurationError) as err:
        SimConfig(**kwargs).validate()
    assert any(key in str(err.value) for key in kwargs), err.value


@pytest.mark.parametrize("cap", [2.5, True, 0, -1, np.float64(3.0)])
def test_measured_neighbors_must_be_a_positive_integer(cap):
    """A fractional cap ran as the next integer up (2.5 kept 3 links)."""
    with pytest.raises(ConfigurationError, match="measured_neighbors"):
        SimConfig(measured_neighbors=cap).validate()
    assert SimConfig(measured_neighbors=np.int64(3)).validate().measured_neighbors == 3


def test_every_step_has_its_own_time():
    """Record times and outage keys round to 1e-9 s, so `dt_s` is refused
    below 1e-9, where several steps would share one time, and accepted at it,
    where 200 steps carry 200 times."""
    for dt in (1e-10, 5e-10):
        cfg = SimConfig(duration_s=200 * dt, dt_s=dt, control_period_s=dt,
                        reporting_period_s=0.001, warmup_s=0.0)
        assert len({round(step * dt, 9) for step in range(200)}) < 200
        with pytest.raises(ConfigurationError, match="dt_s"):
            cfg.validate()
    cfg = SimConfig(duration_s=2e-7, dt_s=1e-9, control_period_s=1e-9,
                    reporting_period_s=0.001, warmup_s=0.0).validate()
    assert cfg.n_steps() == 200
    assert len({round(step * cfg.dt_s, 9) for step in range(cfg.n_steps())}) == 200


def test_sim_config_needs_whole_steps():
    for duration in (0.15, 0.25, 0.55, 1.05):
        with pytest.raises(ConfigurationError, match="whole number of dt_s steps"):
            SimConfig(duration_s=duration, warmup_s=0.0).validate()
    # float quotients a hair off a whole number still pass, and run that many steps
    for duration, dt, steps in ((0.3, 0.1, 3), (0.7, 0.1, 7), (1.5, 0.1, 15), (300.0, 0.1, 3000),
                                (0.15, 0.05, 3), (1.0, 0.3 / 3, 10)):
        cfg = SimConfig(duration_s=duration, dt_s=dt, control_period_s=dt, warmup_s=0.0)
        assert cfg.validate().n_steps() == steps
    assert len(run(SimConfig(duration_s=0.3, warmup_s=0.0))) == 3
    # so must the control and reporting periods, each named by its key
    with pytest.raises(ConfigurationError, match="control_period_s must be a whole number"):
        SimConfig(control_period_s=0.25).validate()
    with pytest.raises(ConfigurationError, match="reporting_period_s must be a whole number"):
        SimConfig(reporting_period_s=0.15).validate()
    for period in (dict(control_period_s=0.3), dict(reporting_period_s=0.3),
                   dict(reporting_period_s=0.3 / 3), dict(dt_s=0.3 / 3, control_period_s=0.3)):
        SimConfig(**period).validate()


def test_sim_config_needs_a_control_tick_after_warmup():
    SimConfig(duration_s=0.2, warmup_s=0.1).validate()
    SimConfig(duration_s=1.0, warmup_s=0.5, control_period_s=0.5).validate()
    with pytest.raises(ConfigurationError, match="no control tick"):
        SimConfig(duration_s=1.0, warmup_s=0.6, control_period_s=0.5).validate()
    # the check and the run agree: the one accepted tick is the one scored
    records = run(SimConfig(duration_s=0.2, warmup_s=0.1))
    assert [r.t for r in records] == [0.0, 0.1]
    assert time_average(records, 0.1) == records[1].connectivity


def test_world_config_validation():
    with pytest.raises(ConfigurationError):
        WorldConfig(arm_length_m=-5.0).validate()
    with pytest.raises(ConfigurationError):
        WorldConfig(cav_antenna_height_m=0.0).validate()
    # positive dimensions that still build no intersection
    with pytest.raises(ConfigurationError, match="no room for buildings inside arm_length_m"):
        WorldConfig(arm_length_m=5.0).validate()
    # a bool was taken as 1.0 (the mast ran 1 m high), and a str died with a TypeError
    for key, value in (("rsu_mast_height_m", True), ("arm_length_m", "200"),
                       ("building_height_m", math.nan)):
        with pytest.raises(ConfigurationError, match=key):
            WorldConfig(**{key: value}).validate()


def test_a_building_setback_of_zero_is_a_world():
    """Buildings flush with the road edge: `build_intersection` accepts a
    setback of 0, and so does the config."""
    world = WorldConfig(building_setback_m=0.0)
    assert world.validate() is world
    got, want = world.layout(), build_intersection(200.0, 14.0, 0.0)
    for key in got.__dataclass_fields__:
        assert np.array_equal(getattr(got, key), getattr(want, key)), key


def test_blockage_sweep_needs_p_b_values():
    spec = SweepSpec(base=quick_cfg(duration_s=1.0), gamma_min_values=(5.0,), p_b_values=())
    with pytest.raises(ConfigurationError, match="p_b_values must be non-empty"):
        sweep_blockage(spec)


def test_explicit_staleness_window_empties_the_graph_between_reports(monkeypatch):
    """An explicit `staleness_window_s` is the controller's window, in whole
    steps: with one report every 0.5 s (5 steps), a 0.1 s window (1 step)
    keeps the graph's edges while the held report is at most 0.1 s old and
    leaves no edge at the ticks in between, where the default window (one
    cycle plus slack, 0.6 s or 6 steps) keeps them all."""
    edges, windows = [], []
    original, build = ric.xapp_tick, ric.build_graph

    def spy(state, solved):
        batch, diag = original(state, solved)
        edges.append((windows[-1], solved.step, diag.graph_edges))
        return batch, diag

    def graph_spy(view, step, snr_min_db):
        windows.append(view.staleness_steps)
        return build(view, step, snr_min_db)

    monkeypatch.setattr(ric, "xapp_tick", spy)
    monkeypatch.setattr(ric, "build_graph", graph_spy)
    cfg = quick_cfg(duration_s=1.0, reporting_period_s=0.5, control_delay_s=0.0)
    default = run(cfg)
    short = run(replace(cfg, staleness_window_s=0.1))
    assert len(edges) == 20
    assert all(window == 6 and count > 0 for window, _, count in edges[:10])
    fresh = [step % 5 <= 1 for _, step, _ in edges[10:]]
    assert fresh == [True, True, False, False, False] * 2
    assert [count > 0 for _, _, count in edges[10:]] == fresh
    assert all(window == 1 for window, _, _ in edges[10:])
    for was, now, ok in zip(default, short, fresh):
        assert now.connectivity == (was.connectivity if ok else 0.0)


# --- the controller clock ------------------------------------------------------------
# Freshness is `age <= K` in whole steps, K = `staleness_steps()`, taken once.
# The float rule it replaced (`reference_graph.fresh`) compared times rounded
# to 1e-9 s, so near a boundary its verdict could depend on the absolute step.


GRID_DTS = (0.1, 0.05, 0.2, 0.3 / 3, 0.01, 0.001, 0.025, 0.125, 0.5,
            1 / 30, 0.1 + 3e-10, 0.0123456789)  # the last three off the 1e-9 grid
REPORT_STEPS = (*range(40), *range(10**5, 10**5 + 20), *range(10**6, 10**6 + 20))


def grid_windows(dt):
    """(kind, window) for whole steps k of dt: on the grid, off it, within
    +-2e-9 of it, and the default of one reporting cycle plus delay and a step."""
    for k in range(1, 9):
        yield "on", k * dt
        yield "on", round(k * dt, 9)
        for part in (0.25, 0.5, 0.75):
            yield "off", (k + part) * dt
        for offset in (5e-10, 1e-9, 1.5e-9, 2e-9, 0.999e-9, 1.001e-9):
            yield "near", k * dt + offset
            yield "near", k * dt - offset
    for reporting in (1, 2, 5):
        for delay in (0.0, 0.01, dt, 0.07, 0.25):
            yield "default", reporting * dt + delay + dt


def near_boundary(dt, window):
    """Whether some absolute step can flip the float rule at this window: a
    step difference rounded to 1e-9 s is k * dt_s within float noise for a
    dt_s on the 1e-9 grid, and within 1e-9 s of it off the grid, so the rule
    reads k steps against window + 1e-9 at the edge of that error."""
    error = 1e-10 + (0.0 if math.isclose(dt, round(dt, 9), rel_tol=1e-12) else 1e-9)
    return any(abs(k * dt - 1e-9 - window) <= error for k in range(1, 20))


def test_step_freshness_matches_the_float_rule_off_the_boundary():
    """Over a dense grid of admitted (dt_s, window, age, absolute step), a
    report `age` steps old is fresh under `age <= K` exactly when the float
    rule says so, for every window outside the near-boundary class. Inside
    it, K is the float rule at step 0, and the float rule flips with the
    absolute step in some cases: the deliberate change."""
    seen = Counter()
    for dt in GRID_DTS:
        for kind, window in grid_windows(dt):
            cfg = SimConfig(duration_s=2e6 * dt, dt_s=dt, control_period_s=dt,
                            staleness_window_s=window, warmup_s=0.0).validate()
            k = cfg.staleness_steps()
            ages = range(max(0, k - 2), k + 3)
            assert [age <= k for age in ages] == [fresh(round(age * dt, 9), 0.0, window)
                                                  for age in ages]
            near = near_boundary(dt, window)
            flips = sum((age <= k) != fresh(round((r + age) * dt, 9), round(r * dt, 9), window)
                        for age in ages for r in REPORT_STEPS)
            assert near or flips == 0, (dt, kind, window, k)
            seen[kind, near] += 1
            seen["flips"] += flips
    assert seen["flips"] > 0 and min(seen[kind, False] for kind in ("on", "off", "near")) > 100
    assert seen["on", True] > 20 and seen["near", True] > 100, seen


def test_report_seven_steps_old_is_fresh_at_every_tick_under_a_window_just_below_seven_steps():
    """dt_s = 0.1 and staleness_window_s = 0.699999999, both admitted: the
    float rule keeps a 7-step-old report fresh when it was taken at step 0
    or 100 but not at step 1 or 14. K is 7, the float rule at step 0, so
    such a report is fresh at every tick and an 8-step-old one never is."""
    window = 0.699999999
    assert [fresh(round((r + 7) * 0.1, 9), round(r * 0.1, 9), window)
            for r in (0, 1, 14, 100)] == [True, False, False, True]
    cfg = SimConfig(staleness_window_s=window).validate()
    assert cfg.staleness_steps() == 7
    codes = np.array([cav(0).code, cav(1).code])
    for taken in range(120):
        state = ingest(RicState(codes, staleness_steps=cfg.staleness_steps()), IndicationBatch(
            step=taken, reporters=np.arange(2), source=np.array([0, 1]),
            neighbor=np.array([1, 0]), snr_db=np.array([10.0, 10.0])))
        assert ric.build_graph(state, taken + 7, 5.0)[0, 1] == 10.0
        assert ric.build_graph(state, taken + 8, 5.0)[0, 1] == -np.inf


def test_a_node_that_never_reported_is_never_fresh():
    """With K steps of window, a vehicle whose report has not arrived gains no
    vehicle edge from its neighbour's report in the first K steps either."""
    codes = np.array([cav(0).code, cav(1).code])
    state = ingest(RicState(codes, staleness_steps=5), IndicationBatch(
        step=0, reporters=np.arange(1), source=np.array([0]), neighbor=np.array([1]),
        snr_db=np.array([10.0])))
    assert state.reported_at.tolist() == [0, -1]
    for step in range(7):
        assert (ric.build_graph(state, step, 5.0) == -np.inf).all()
