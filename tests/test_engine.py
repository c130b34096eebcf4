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
from reference_graph import fresh
from reference_ids import NodeId
import v2xric
from reference_mobility import VehicleState, fleet_of
from reference_outage import _link_uniform_int
from slot_adapter import pair_slots
from v2xric import (ChannelParams, ConfigurationError, IndicationBatch, MetricsRecord,
                    MobilityState, NodeKind, RicState, SimConfig, SweepSpec, TrafficConfig, World,
                    WorldConfig, XAppConfig, apply_control, build_intersection, forwarding_table,
                    ingest, run, run_with_audit, spawn_vehicles, step_mobility, sweep_blockage,
                    sweep_snr, time_average, xapp_tick)
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
    round(step * dt_s, 9), at the dt_s of the run's latest report."""
    events, dt = [], []
    collect, ingest, tick = streams.collect_reports, ric.ingest, ric.xapp_tick

    def seconds(step):
        return round(step * dt[-1], 9)

    def collect_spy(measured, cfg, *rest):
        dt.append(cfg.dt_s)
        events.append(("report", seconds(measured.step)))
        return collect(measured, cfg, *rest)

    def ingest_spy(state, batch):
        events.append(("ingest", seconds(batch.step)))
        return ingest(state, batch)

    def tick_spy(state, step):
        events.append(("tick", seconds(step)))
        return tick(state, step)

    monkeypatch.setattr(streams, "collect_reports", collect_spy)
    monkeypatch.setattr(ric, "ingest", ingest_spy)
    monkeypatch.setattr(ric, "xapp_tick", tick_spy)
    return events


def reference_events(cfg):
    return reference_schedule.schedule(cfg.duration_s, cfg.dt_s, cfg.control_period_s,
                                       cfg.resolved_reporting_period(), cfg.control_delay_s)


def test_report_cadence_fires_on_whole_steps(monkeypatch):
    events = spy_schedule(monkeypatch)
    # a 0.5 s period fires at its multiples
    cfg = quick_cfg(duration_s=3.1, reporting_period_s=0.5, control_period_s=0.5)
    run(cfg)
    assert [t for kind, t in events if kind == "report"] == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    assert events == reference_events(cfg)
    # 0.3 is not exactly 3 * 0.1, yet the cadence fires every 3 steps
    events.clear()
    cfg = quick_cfg(duration_s=3.0, reporting_period_s=0.3, control_period_s=0.3)
    run(cfg)
    assert [t for kind, t in events if kind == "report"] == [round(0.3 * k, 9) for k in range(10)]
    assert events == reference_events(cfg)


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
            assert events == reference_events(cfg), cfg


def test_decoupled_reporting_cadence_still_feeds_the_controller():
    records = run(quick_cfg(duration_s=1.0, reporting_period_s=0.2,
                            xapp=XAppConfig(snr_min_db=0.0)))
    assert len(records) == 10
    # the controller tick between reports works on the previous report set
    assert records[1].t == 0.1
    assert records[1].connectivity > 0.0


# --- metrics ---------------------------------------------------------------------


def path_state(pairs=(), cfg=None):
    """A fresh controller view of a chain a-b (10 dB), b-c (8 dB), c-d (6 dB)
    whose xApp serves the (NodeId, NodeId) `pairs` under `cfg`; cav(i) holds
    view slot i."""
    edges = {(cav(0), cav(1)): 10.0, (cav(1), cav(2)): 8.0, (cav(2), cav(3)): 6.0}
    links = [(u, v, snr) for (u, v), snr in edges.items()] + [
        (v, u, snr) for (u, v), snr in edges.items()]
    codes = np.array([cav(i).code for i in range(4)])
    state = RicState(codes, pairs=pair_slots(codes, pairs),
                     xapp=XAppConfig() if cfg is None else cfg)
    return ingest(state, IndicationBatch(
        step=0, reporters=np.arange(4),
        source=np.array([u.index for u, _, _ in links], dtype=np.int64),
        neighbor=np.array([v.index for _, v, _ in links], dtype=np.int64),
        snr_db=np.array([snr for _, _, snr in links], dtype=np.float64)))


def all_pairs():
    ids = [cav(i) for i in range(4)]
    return [(ids[i], ids[j]) for i in range(4) for j in range(i + 1, 4)]


def connectivity(snr_min_db, max_hops, metric_mode="pairwise"):
    """One control tick's connectivity, scored as the run loop scores it."""
    state = path_state(all_pairs(), XAppConfig(snr_min_db=snr_min_db, max_hops=max_hops))
    _, diag = xapp_tick(state, 0)
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
    state = path_state([(cav(0), cav(3)), (cav(0), cav(2))], XAppConfig(snr_min_db=5.0))
    batch, diag = xapp_tick(state, 0)
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
    # np.unique (and np.isin, which calls it) imports numpy.ma, ~1 MB that stays
    code = ("import sys\n"
            "from v2xric import SimConfig, run\n"
            "run(SimConfig(duration_s=0.3, warmup_s=0.0))\n"
            "run(SimConfig(duration_s=0.3, warmup_s=0.0, metric_mode='per-vehicle',\n"
            "              pair_selection='matched', measured_neighbors=3))\n"
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


def test_sweep_pool_starts_no_more_workers_than_cells(monkeypatch):
    """Eight workers over a four-cell grid ask the pool for four processes.
    The pool is a stand-in that maps in this process, so nothing is forked."""
    requested = []

    class SerialPool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, jobs):
            return [fn(*job) for job in jobs]

    class Context:
        Pool = SerialPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context())
    spec = SweepSpec(base=quick_cfg(duration_s=1.0, seed=3), gamma_min_values=(5.0, 10.0),
                     p_b_values=(0.0, 0.5), workers=8)
    assert len(sweep_blockage(spec).runs) == 4
    assert requested == [4]


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
    tab = channel.link_table(base.channel, world.xyz(), world.codes, world.body, world.boxes(),
                             0.0, base.seed, max_range=base.sensing_range_m)
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
    """Every cell of a sweep on its replication's shared world stream gives
    the records and audit of its own standalone run, at one and two
    workers, and emits bit for bit the report batches that run emits, the
    link on the threshold and at the outage boundary included."""
    spec = sweep_case(np.random.default_rng([41, measured_neighbors or 0]), measured_neighbors)
    batches = spy_batches(monkeypatch)
    swept = sweep_blockage(spec)
    shared, batches[:] = list(batches), []
    for rep in range(spec.replications):
        for cell in (c for c in swept.runs if c.replication == rep):
            records, audit = run_with_audit(cell.cfg)
            assert record_reprs(records) == record_reprs(cell.records), cell.cfg
            assert audit == cell.audit
    assert batches == shared
    assert cell_outputs(sweep_blockage(replace(spec, workers=2))) == cell_outputs(swept)


def own_link_table_batch(world, cfg, step):
    """The report batch of `cfg`'s own floored `link_table` call on `world`
    at `step`, as a run measured before world streams."""
    tab = channel.link_table(cfg.channel, world.xyz(), world.codes, world.body, world.boxes(),
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
    """At every report step of a world stream, each grid cell's batch is bit
    for bit the one its own floored `link_table` call gives, the link on a
    threshold and at an outage boundary included."""
    spec = sweep_case(np.random.default_rng([47, measured_neighbors or 0]), measured_neighbors)
    base = spec.base
    stream = engine._world_stream(base, spec.gamma_min_values, spec.p_b_values)
    world = engine._world(base, base.world.layout())
    mobility = MobilityState.from_seed(base.seed, base.traffic.turn_probability)
    reporting = base.cav_terminations | (ran.kinds(world.codes) != NodeKind.CAV)
    at, outages = 0, 0
    for measured in stream.steps:
        for at in range(at, measured.step):
            step_mobility(world.fleet, world.layout, base.dt_s, mobility)
        at = measured.step
        for g in spec.gamma_min_values:
            for p in spec.p_b_values:
                cell = replace(base, xapp=replace(base.xapp, snr_min_db=g),
                               channel=replace(base.channel, p_b=p))
                got = streams.collect_reports(measured, cell, reporting,
                                              streams.cell_levels(cell, stream))
                want = own_link_table_batch(world, cell, measured.step)
                assert got.step == want.step
                for column in ("reporters", "source", "neighbor", "snr_db"):
                    assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
                outages += int(np.count_nonzero(want.snr_db < -300.0))
    assert outages > 0


def test_sweep_past_the_stream_budget_measures_each_cell(monkeypatch):
    """A stream held within the byte budget is measured once per
    replication and report step. Past the budget, here 0 bytes, the first
    measurement is dropped and every cell measures its own world, with the
    same outputs at one and two workers."""
    spec = sweep_case(np.random.default_rng(43), None)
    calls, measure = [], channel.link_table
    monkeypatch.setattr(channel, "link_table",
                        lambda *args, **kwargs: calls.append(1) or measure(*args, **kwargs))
    shared = sweep_blockage(spec)
    reports = math.ceil(spec.base.n_steps() / spec.base.steps(spec.base.reporting_period_s))
    cells = len(spec.gamma_min_values) * len(spec.p_b_values)
    assert len(calls) == spec.replications * reports
    calls.clear()
    monkeypatch.setattr(streams, "_STREAM_BYTES", 0)
    alone = sweep_blockage(spec)
    assert len(calls) == spec.replications * (1 + cells * reports)
    assert cell_outputs(alone) == cell_outputs(shared) and alone.rows == shared.rows
    assert cell_outputs(sweep_blockage(replace(spec, workers=2))) == cell_outputs(shared)


def test_a_run_refuses_a_stream_measured_for_another_run():
    cfg = quick_cfg(duration_s=0.3)
    stream = streams.hold(engine._world_stream(cfg, (5.0, 10.0), (0.0, 0.5)))
    for other in (replace(cfg, seed=3), replace(cfg, xapp=XAppConfig(snr_min_db=7.0)),
                  replace(cfg, channel=ChannelParams(p_b=1.0))):
        with pytest.raises(ConfigurationError, match="measured for another run"):
            run_with_audit(other, stream)
    cell = replace(cfg, xapp=XAppConfig(snr_min_db=10.0), channel=ChannelParams(p_b=0.5))
    assert record_reprs(run_with_audit(cell, stream)[0]) == record_reprs(run(cell))


def test_blockage_sweep_needs_a_stochastic_mode():
    spec = SweepSpec(base=quick_cfg(channel=ChannelParams(blockage_mode="geometric")),
                     gamma_min_values=(5.0,), p_b_values=(0.0,))
    with pytest.raises(ConfigurationError):
        sweep_blockage(spec)


@pytest.mark.parametrize("kwargs", [
    dict(gamma_min_values=()),
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
])
def test_sweep_spec_validation(kwargs):
    # the last keyword holds the bad value, and the error names it
    with pytest.raises(ConfigurationError, match=list(kwargs)[-1]):
        SweepSpec(base=quick_cfg(), **kwargs).validate()


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
    hands any job to `_execute`, so a world past the node-index bound
    (scaled down to 2^6 here) is refused before any run. At 80 veh/km seeds
    2, 3 and 4 spawn 58, 49 and 65 vehicles: two replications from seed 2
    fit, the third does not. `_execute` runs one replication's cells at a
    time."""
    monkeypatch.setattr(ran, "_INDEX_BITS", 6)
    jobs = []
    monkeypatch.setattr(engine, "_execute",
                        lambda cells, workers, stream: jobs.append(cells) or [])
    base = replace(quick_cfg(), traffic=TrafficConfig(density_veh_km=80.0))
    sweep_snr(SweepSpec(base=base, gamma_min_values=(5.0,), replications=2))
    assert [[rep for _, rep in cells] for cells in jobs] == [[0], [1]]
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
])
def test_sim_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        SimConfig(**kwargs).validate()


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
    edges = []
    original = ric.xapp_tick

    def spy(state, step):
        batch, diag = original(state, step)
        edges.append((state.staleness_steps, step, diag.graph_edges))
        return batch, diag

    monkeypatch.setattr(ric, "xapp_tick", spy)
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
