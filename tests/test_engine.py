"""Simulation-loop tests: cadence, determinism, metrics, audits, sweeps."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import v2xric
from reference_mobility import VehicleState, fleet_of
from v2xric import (AuditSummary, ChannelParams, ConfigurationError, ForwardingTable,
                    IndicationReport, MetricsRecord, NodeId, NodeKind, RicState, SimConfig,
                    SweepSpec, TrafficConfig, World, WorldConfig, XAppConfig, apply_control,
                    build_intersection, ingest, run, run_with_audit, spawn_vehicles,
                    sweep_blockage, sweep_snr, time_average, xapp_tick)
from v2xric.engine import _audit, _build_pairs, _connectivity
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


def test_decoupled_reporting_cadence_still_feeds_the_controller():
    records = run(quick_cfg(duration_s=1.0, reporting_period_s=0.2,
                            xapp=XAppConfig(snr_min_db=0.0)))
    assert len(records) == 10
    # the controller tick between reports works on the previous report set
    assert records[1].t == 0.1
    assert records[1].connectivity > 0.0


# --- metrics ---------------------------------------------------------------------


def path_state():
    """A fresh controller view of a chain a-b (10 dB), b-c (8 dB), c-d (6 dB)."""
    edges = {(cav(0), cav(1)): 10.0, (cav(1), cav(2)): 8.0, (cav(2), cav(3)): 6.0}
    state = RicState()
    for node in (cav(i) for i in range(4)):
        links = sorted((v if u == node else u, snr) for (u, v), snr in edges.items()
                       if node in (u, v))
        ingest(state, IndicationReport(
            source=node, t=0.0,
            neighbors=np.array([rx.code for rx, _ in links], dtype=np.int64),
            snr_db=np.array([snr for _, snr in links], dtype=np.float64)))
    return state


def all_pairs():
    ids = [cav(i) for i in range(4)]
    return [(ids[i], ids[j]) for i in range(4) for j in range(i + 1, 4)]


def connectivity(snr_min_db, max_hops, metric_mode="pairwise"):
    """One control tick's connectivity, scored as the run loop scores it."""
    pairs = all_pairs()
    cfg = XAppConfig(snr_min_db=snr_min_db, max_hops=max_hops, pairs=tuple(pairs))
    _, diag = xapp_tick(path_state(), 0.0, cfg)
    ends = np.array([(u.index, v.index) for u, v in pairs])
    return _connectivity(ends, diag.served, metric_mode)


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
    return World(layout=layout, fleet=fleet_of(vehicles), rsus=[])


def test_matched_pairs_form_a_perfect_matching():
    world = hand_world(7)
    pairs = _build_pairs(world, "matched", seed=5)
    assert len(pairs) == 3  # one vehicle sits out of an odd count
    seen = [node for pair in pairs for node in pair]
    assert len(seen) == len(set(seen))
    assert all(u < v for u, v in pairs)
    assert pairs == sorted(pairs)
    assert pairs == _build_pairs(world, "matched", seed=5)
    assert pairs != _build_pairs(world, "matched", seed=6)


def test_all_pairs_enumerates_every_combination():
    world = hand_world(5)
    pairs = _build_pairs(world, "all", seed=1)
    assert len(pairs) == 10


def test_pair_building_needs_two_vehicles():
    with pytest.raises(ConfigurationError):
        _build_pairs(hand_world(1), "all", seed=1)


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
        direct_cfg = replace(relay_cfg, relay_enabled=False)
        relay_records = run(relay_cfg)
        direct_records = run(direct_cfg)
        assert len(relay_records) == len(direct_records)
        for rr, dr in zip(relay_records, direct_records):
            assert rr.connectivity >= dr.connectivity
            # a direct-only run measures exactly the relay run's direct baseline
            assert dr.connectivity == rr.direct_connectivity


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


def test_audit_counts_broken_forwarding():
    """A table corrupted after a sound tick fails exactly the paths it breaks:
    chain 0-1-2-3 serves (0, 3) over three hops and (0, 2) over two."""
    cfg = XAppConfig(snr_min_db=5.0, pairs=((cav(0), cav(3)), (cav(0), cav(2))))
    batch, diag = xapp_tick(path_state(), 0.0, cfg)
    assert diag.hops.tolist() == [3, 2]

    def audited(corrupt, t=0.0):
        table = ForwardingTable.empty([cav(i).code for i in range(4)], 2, 0.5)
        apply_control(table, batch, 0.0)
        corrupt(table)
        audit = AuditSummary()
        _audit(table, batch, t, audit)
        assert audit.paths_checked == 2
        return audit.paths_failed

    def drop(table):
        table.next_hop[2, 0] = -1  # cav(2) forgets pair (0, 3)

    def expire(table):
        table.installed_at[1, 0] = 0.3 - table.ttl_s  # cav(1)'s entry for (0, 3) dies first

    def loop(table):
        table.next_hop[1, 0] = cav(0).code  # cav(1) sends (0, 3) back

    def through_destination(table):
        # cav(0) jumps to cav(3), which holds an entry back to cav(2): the walk
        # ends at the destination in three hops, but passed it after one
        table.next_hop[0, 0] = cav(3).code
        table.next_hop[3, 0] = cav(2).code
        table.installed_at[3, 0] = table.installed_at[0, 0]

    assert audited(lambda table: None) == 0
    assert audited(drop) == 1
    assert audited(expire, t=0.3) == 0
    assert audited(expire, t=float(np.nextafter(0.3, 1.0))) == 1
    assert audited(loop) == 1
    assert audited(through_destination) == 1


def test_forwarding_table_lives_for_the_control_ttl(monkeypatch):
    tables = []

    def spy(table, batch, t):
        tables.append(table)
        return apply_control(table, batch, t)

    monkeypatch.setattr(v2xric.ran, "apply_control", spy)
    run(quick_cfg(duration_s=0.3, xapp=XAppConfig(control_ttl_s=0.3)))
    assert len(tables) == 3
    assert all(table.ttl_s == 0.3 for table in tables)


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


# --- sweeps ------------------------------------------------------------------------


def test_snr_sweep_rows_pair_direct_and_relay_series():
    spec = SweepSpec(base=quick_cfg(duration_s=2.0, seed=3),
                     gamma_min_values=(10.0, 5.0), replications=2)
    result = sweep_snr(spec)
    assert [(r.gamma_min_db, r.mode) for r in result.rows] == [
        (5.0, "direct"), (5.0, "relay"), (10.0, "direct"), (10.0, "relay")]
    assert all(r.replications == 2 for r in result.rows)
    assert [(r.gamma_min_db, r.replication) for r in result.runs] == [
        (5.0, 0), (5.0, 1), (10.0, 0), (10.0, 1)]
    assert [r.seed for r in result.runs] == [3, 4, 3, 4]
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
])
def test_sweep_spec_validation(kwargs):
    with pytest.raises(ConfigurationError):
        SweepSpec(base=quick_cfg(), **kwargs).validate()


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
])
def test_sim_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        SimConfig(**kwargs).validate()


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
