"""End-to-end checks of the simulator's headline requirements.

Each test measures one requirement, prints exactly one ``PASS``/``FAIL`` line
with the numbers behind the verdict, and then asserts it, so the one-line
summaries survive into the pytest report (``-rA`` keeps them for passing
tests too).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import reference_control
from reference_paths import random_connectivity_graph, reference_widest_path
from slot_adapter import graph_nodes, widest_path
from v2xric import AuditSummary, ForwardingTable, ran, ric
from v2xric.channel import pathloss_los, pathloss_nlos
from v2xric.cli import main as cli_main
from v2xric.engine import (SimConfig, SweepSpec, _audit, run, run_with_audit, sweep_blockage,
                           time_average)


def _verdict(name, ok, details):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {details}")
    return ok


@pytest.mark.slow
def test_baseline_gap():
    """Relay assignment should at least double direct-only connectivity while
    the direct baseline stays low, for thresholds of 10 dB and up."""
    base = SimConfig(duration_s=300.0, seed=1, metric_mode="per-vehicle",
                     pair_selection="matched")
    ok = True
    parts = []
    for gamma in (10.0, 15.0, 20.0):
        cfg = replace(base, xapp=replace(base.xapp, snr_min_db=gamma))
        started = time.perf_counter()
        records = run(cfg)
        elapsed = time.perf_counter() - started
        relay = time_average(records, cfg.warmup_s)
        direct = time_average(records, cfg.warmup_s, "direct_connectivity")
        ratio = relay / direct if direct > 0 else math.inf
        ok = ok and direct <= 0.30 and ratio >= 2.0 and elapsed <= 60.0
        parts.append(f"snr_min={gamma:g}: direct={direct:.4f} relay={relay:.4f} "
                     f"ratio={ratio:.2f} ({elapsed:.0f}s)")
    details = ("need direct<=0.30 and relay>=2x direct at every threshold -- "
               + "; ".join(parts))
    assert _verdict("baseline-gap", ok, details), details


def test_threshold_monotonicity():
    """With the world fixed, raising the admission threshold can only prune
    edges, so relay connectivity must be non-increasing -- exactly."""
    base = SimConfig(duration_s=60.0, seed=1, metric_mode="per-vehicle",
                     pair_selection="matched")
    gammas = (0.0, 5.0, 10.0, 15.0, 20.0)
    series = {}
    for gamma in gammas:
        records = run(replace(base, xapp=replace(base.xapp, snr_min_db=gamma)))
        series[gamma] = [r.connectivity for r in records]
    per_tick_ok = all(
        all(a >= b for a, b in zip(series[lo], series[hi]))
        for lo, hi in zip(gammas, gammas[1:]))
    avgs = [float(np.mean(series[g])) for g in gammas]
    avg_ok = all(a >= b for a, b in zip(avgs, avgs[1:]))
    ok = per_tick_ok and avg_ok
    details = ("mean connectivity "
               + " -> ".join(f"{g:g}dB:{a:.4f}" for g, a in zip(gammas, avgs))
               + f"; exact per-tick non-increase={per_tick_ok}")
    assert _verdict("threshold-monotonicity", ok, details), details


@pytest.mark.slow
def test_blockage_monotonicity():
    """Connectivity must fall (within one standard error) as the random
    blockage probability rises, and certain blockage must give exactly zero."""
    started = time.perf_counter()
    base = SimConfig(duration_s=60.0, control_period_s=0.5, seed=1,
                     metric_mode="per-vehicle", pair_selection="matched")
    spec = SweepSpec(base=base, gamma_min_values=(5.0, 10.0),
                     p_b_values=(0.0, 0.25, 0.5, 0.75, 1.0), replications=10)
    result = sweep_blockage(spec)
    ok = True
    parts = []
    for gamma in (5.0, 10.0):
        rows = sorted((r for r in result.rows if r.gamma_min_db == gamma),
                      key=lambda r: r.p_b)
        means = [r.connectivity_mean for r in rows]
        ses = [r.connectivity_std / math.sqrt(r.replications) for r in rows]
        for i in range(len(rows) - 1):
            if means[i + 1] > means[i] + math.hypot(ses[i], ses[i + 1]):
                ok = False
        if means[-1] != 0.0:
            ok = False
        parts.append(f"snr_min={gamma:g}: " + " -> ".join(f"{m:.4f}" for m in means))
    stoch = replace(base, duration_s=10.0, warmup_s=0.0,
                    channel=replace(base.channel, blockage_mode="stochastic", p_b=1.0))
    all_zero = all(r.connectivity == 0.0 for r in run(stoch))
    elapsed = time.perf_counter() - started
    ok = ok and all_zero and elapsed <= 600.0
    details = ("; ".join(parts)
               + f"; random-only p_b=1 exactly zero={all_zero}; grid in {elapsed:.0f}s")
    assert _verdict("blockage-monotonicity", ok, details), details


def test_pathfinder_oracle():
    """The production pathfinder must agree with a brute-force widest-path
    search on random graphs, tie-breaks included."""
    rng = np.random.default_rng(2026)
    started = time.perf_counter()
    compared = 0
    mismatches = []
    for _ in range(1000):
        graph = random_connectivity_graph(rng)
        nodes = list(graph_nodes(graph.codes))
        if len(nodes) < 2:
            continue
        pairs = [(s, d) for s in nodes for d in nodes if s != d]
        if len(pairs) > 8:
            picks = rng.choice(len(pairs), size=8, replace=False)
            pairs = [pairs[int(i)] for i in picks]
        for s, d in pairs:
            max_hops = int(rng.integers(1, 6))
            snr_min = float(rng.choice((-5.0, 1.5, 4.0)))
            got = widest_path(*graph, s, d, max_hops, snr_min)
            want = reference_widest_path(graph, s, d, max_hops, snr_min)
            compared += 1
            if got != want:
                mismatches.append((s, d, max_hops, snr_min, got, want))
    elapsed = time.perf_counter() - started
    ok = not mismatches and compared >= 5000 and elapsed <= 30.0
    details = (f"{compared} lookups over 1000 random graphs, "
               f"{len(mismatches)} mismatches, {elapsed:.1f}s"
               + (f"; first mismatch: {mismatches[0]}" if mismatches else ""))
    assert _verdict("pathfinder-oracle", ok, details), details


def test_pathloss_reference():
    """Spot values must match an independent hand evaluation of the urban
    street-canyon formulas, and the distance slopes must be exact."""
    los = pathloss_los(100.0, 28.0)
    nlos = pathloss_nlos(100.0, 28.0, 1.6)
    los_ref = 103.34316062684438  # 32.4 + 21*2 + 20*log10(28), by hand
    nlos_ref = 123.79446606758927  # 22.4 + 35.3*2 + 21.3*log10(28) - 0.3*0.1
    slope_los = pathloss_los(1000.0, 28.0) - los
    slope_nlos = pathloss_nlos(1000.0, 28.0, 1.6) - nlos
    ok = (abs(los - los_ref) <= 0.01 and abs(nlos - nlos_ref) <= 0.01
          and abs(slope_los - 21.0) <= 1e-9 and abs(slope_nlos - 35.3) <= 1e-9)
    details = (f"los(100m,28GHz)={los:.6f} (ref {los_ref:.6f}), "
               f"nlos={nlos:.6f} (ref {nlos_ref:.6f}), "
               f"decade slopes {slope_los:.12f}/{slope_nlos:.12f}")
    assert _verdict("pathloss-reference", ok, details), details


@pytest.mark.slow
def test_relay_dominance():
    """At every control tick of every seeded run, relay-enabled connectivity
    must be at least the direct-only value -- the hop budget includes 1."""
    ok = True
    ticks = 0
    for seed in range(1, 21):
        cfg = SimConfig(duration_s=20.0, seed=seed)
        relay_records = run(cfg)
        direct_records = run(replace(cfg, xapp=replace(cfg.xapp, max_hops=1)))
        assert len(relay_records) == len(direct_records)
        for a, b in zip(relay_records, direct_records):
            assert a.t == b.t
            ticks += 1
            if a.connectivity < b.connectivity:
                ok = False
    details = f"relay >= direct at all {ticks} control ticks across seeds 1..20"
    assert _verdict("relay-dominance", ok, details), details


def test_determinism(tmp_path):
    """Identical config and seed must give byte-identical CSVs, and the
    worker count must not change sweep output at all."""
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert cli_main(["run", "--out", str(out), "--duration", "2", "--warmup", "0",
                         "--seed", "6", "--p-b", "0.2"]) == 0
    same_run = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("metrics.csv", "summary.csv"))
    w1, w8 = tmp_path / "w1", tmp_path / "w8"
    for out, workers in ((w1, "1"), (w8, "8")):
        assert cli_main(["sweep-snr", "--out", str(out), "--duration", "2", "--warmup", "0",
                         "--seed", "3", "--snr-min", "5,10",
                         "--replications", "2", "--workers", workers]) == 0
    sweep_files = ("summary.csv", "run_g5_r0/metrics.csv", "run_g5_r1/metrics.csv",
                   "run_g10_r0/metrics.csv", "run_g10_r1/metrics.csv")
    same_sweep = all(
        (w1 / name).read_bytes() == (w8 / name).read_bytes() for name in sweep_files)
    ok = same_run and same_sweep
    details = (f"repeat run byte-identical={same_run}; "
               f"sweep with 8 workers == 1 worker={same_sweep}")
    assert _verdict("determinism", ok, details), details


def _forwarding_variants():
    """The forwarding-soundness scenarios: (name, config)."""
    base = SimConfig(duration_s=10.0, warmup_s=0.0, seed=2)
    return [
        ("defaults", base),
        ("random-blockage", replace(base, seed=3,
                                    channel=replace(base.channel, p_b=0.3))),
        ("random-only", replace(base, seed=4,
                                channel=replace(base.channel,
                                                blockage_mode="stochastic", p_b=0.5))),
        ("rsu-reports-only", replace(base, seed=5, cav_terminations=False)),
        ("matched-per-vehicle", replace(base, seed=6, metric_mode="per-vehicle",
                                        pair_selection="matched")),
        ("tight-budget", replace(base, seed=7,
                                 xapp=replace(base.xapp, snr_min_db=15.0, max_hops=2))),
    ]


def test_forwarding_soundness():
    """Every path the controller installs must be walkable hop by hop from
    source to destination in exactly its advertised hop count."""
    ok = True
    total = 0
    parts = []
    for name, cfg in _forwarding_variants():
        _, audit = run_with_audit(cfg)
        total += audit.paths_checked
        good = audit.paths_ok == audit.paths_checked and audit.protocol_errors == 0
        ok = ok and good
        parts.append(f"{name} {audit.paths_ok}/{audit.paths_checked}"
                     f"(+{audit.protocol_errors}err)")
    ok = ok and total > 100
    details = f"paths walked ok per scenario: {'; '.join(parts)}; total={total}"
    assert _verdict("forwarding-soundness", ok, details), details


def _padded(row, width):
    """A path row, -1 padded to `width`, as a tuple."""
    return tuple(row.tolist()) + (-1,) * (width - len(row))


def test_delta_control_matches_full_fan_out(monkeypatch):
    """Sending only the multi-hop paths that changed must leave the RAN with
    the forwarding table that resending every path each tick leaves, after
    every tick, and the same audit. On each forwarding-soundness scenario a
    tick sends exactly the relayed pairs whose row differs from the tick
    before's, and a pair that was direct or unserved then counts as
    changed, even when its path is the one installed before."""
    xapp, apply = ric.xapp_tick, ran.apply_control
    ok = True
    parts = []
    resent_after_gap = kept = 0
    for name, cfg in _forwarding_variants():
        ticks, tables = [], []

        def tick_spy(*args):
            ticks.append(xapp(*args))
            return ticks[-1]

        def apply_spy(table, batch):
            apply(table, batch)
            tables.append(table.next_hop.copy())
            return table

        monkeypatch.setattr(ric, "xapp_tick", tick_spy)
        monkeypatch.setattr(ran, "apply_control", apply_spy)
        _, audit = run_with_audit(cfg)
        width = cfg.xapp.max_hops + 1
        oracle = ForwardingTable.empty(*tables[0].shape)
        want = AuditSummary()
        held = {}  # pair -> the row the RAN holds, for pairs relayed on the tick before
        last = {}  # pair -> its row on the last tick that relayed it
        same_tables = same_sent = True
        for (batch, diag), got in zip(ticks, tables):
            full = reference_control.full_fan_out(diag)
            apply(oracle, full)
            want.messages_total += len(full)
            relayed = np.flatnonzero(diag.hops >= 2)
            _audit(oracle, diag.paths[relayed], relayed, want)
            same_tables &= np.array_equal(got, oracle.next_hop)
            rows = {k: _padded(diag.paths[k], width) for k in relayed.tolist()}
            changed = [k for k, row in rows.items() if held.get(k) != row]
            # the batch is the full fan-out's messages for the changed pairs
            sent = np.isin(full.pair, changed)
            same_sent &= all(np.array_equal(getattr(batch, col), getattr(full, col)[sent])
                             for col in ("target", "pair", "next_hop"))
            # sent again although the path is the one installed before the gap
            resent_after_gap += sum(k not in held and last.get(k) == rows[k] for k in changed)
            kept += len(rows) - len(changed)
            held = rows
            last.update(rows)
        want.protocol_errors = oracle.protocol_errors
        good = same_tables and same_sent and audit == want
        ok = ok and good
        parts.append(f"{name} {len(ticks)} ticks {'ok' if good else 'MISMATCH'}")
    ok = ok and resent_after_gap > 0 and kept > 0
    details = (f"tables, sent pairs and audit equal the full fan-out's: {'; '.join(parts)}; "
               f"{kept} paths kept, {resent_after_gap} resent after a direct or unserved tick")
    assert _verdict("delta-control", ok, details), details
