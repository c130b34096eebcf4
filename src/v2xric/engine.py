"""Deterministic discrete-time simulation loop and experiment sweeps.

One run advances vehicle mobility every `dt_s`, has every radio endpoint sense
and report on its reporting cadence, and executes the controller (graph build,
widest-path assignment, control fan-out) on every control tick, recording one
connectivity measurement per control tick. Sweeps fan runs out over a worker
pool; everything is keyed off the run seed, so identical configurations give
bit-identical outputs at any worker count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import channel, ran, ric
from .errors import ConfigurationError
from .scenario import (MobilityState, TrafficConfig, build_intersection, default_rsus,
                       spawn_vehicles, step_mobility)

_MATCH_TAG = 31  # seed stream tag for the matched-pair draw

METRIC_MODES = ("pairwise", "per-vehicle")
PAIR_SELECTIONS = ("all", "matched")


@dataclass(slots=True)
class WorldConfig:
    """Static geometry of the intersection scene."""

    arm_length_m: float = 200.0
    road_width_m: float = 14.0
    building_setback_m: float = 2.0
    building_height_m: float = 20.0
    rsu_mast_height_m: float = 6.0
    cav_antenna_height_m: float = 1.6

    def validate(self) -> "WorldConfig":
        for name in ("arm_length_m", "road_width_m", "building_setback_m",
                     "building_height_m", "rsu_mast_height_m", "cav_antenna_height_m"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigurationError(f"{name} must be positive: {value}")
        return self


@dataclass(slots=True)
class SimConfig:
    """Full description of one run; every derived quantity comes from `seed`."""

    duration_s: float = 300.0
    dt_s: float = 0.1
    control_period_s: float = 0.1
    seed: int = 1
    channel: channel.ChannelParams = field(default_factory=channel.ChannelParams)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    xapp: ric.XAppConfig = field(default_factory=ric.XAppConfig)
    world: WorldConfig = field(default_factory=WorldConfig)
    sensing_range_m: float = 300.0
    reporting_period_s: float | None = None  # None: report at the control cadence
    measured_neighbors: int | None = None
    staleness_window_s: float | None = None  # None: one reporting cycle plus slack
    control_delay_s: float = 0.01
    warmup_s: float = 10.0
    metric_mode: str = "pairwise"
    pair_selection: str = "all"
    relay_enabled: bool = True
    cav_terminations: bool = True  # False: only infrastructure reports (ablation)

    def validate(self) -> "SimConfig":
        for name in ("duration_s", "dt_s", "control_period_s", "sensing_range_m",
                     "reporting_period_s", "staleness_window_s", "control_delay_s", "warmup_s"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(f"invalid value for {name}: {value} (must be finite)")
        if not (self.duration_s > 0):
            raise ConfigurationError(f"duration_s must be positive: {self.duration_s}")
        if not (self.dt_s > 0):
            raise ConfigurationError(f"dt_s must be positive: {self.dt_s}")
        if self.control_period_s < self.dt_s:
            raise ConfigurationError(
                f"control_period_s must be >= dt_s: {self.control_period_s} < {self.dt_s}")
        if not (0 <= self.seed < 2**63):
            raise ConfigurationError(f"seed out of range [0, 2^63): {self.seed}")
        if not (self.sensing_range_m > 0):
            raise ConfigurationError(f"sensing_range_m must be positive: {self.sensing_range_m}")
        if self.control_delay_s < 0:
            raise ConfigurationError(f"control_delay_s must be >= 0: {self.control_delay_s}")
        if self.warmup_s < 0:
            raise ConfigurationError(f"warmup_s must be >= 0: {self.warmup_s}")
        if self.warmup_s >= self.duration_s:
            raise ConfigurationError(
                f"warmup_s must be below duration_s: {self.warmup_s} >= {self.duration_s}")
        if self.metric_mode not in METRIC_MODES:
            raise ConfigurationError(f"metric_mode must be one of {METRIC_MODES}: {self.metric_mode}")
        if self.pair_selection not in PAIR_SELECTIONS:
            raise ConfigurationError(
                f"pair_selection must be one of {PAIR_SELECTIONS}: {self.pair_selection}")
        if self.staleness_window_s is not None and not (self.staleness_window_s > 0):
            raise ConfigurationError(
                f"staleness_window_s must be positive: {self.staleness_window_s}")
        self.channel.validate()
        self.traffic.validate()
        self.xapp.validate()
        self.world.validate()
        ran.SubscriptionRequest(
            reporting_period_s=self.resolved_reporting_period(),
            measured_neighbors=self.measured_neighbors,
        ).validate(self.dt_s)
        if not self._scores_a_tick():
            raise ConfigurationError(
                f"no control tick at or after warmup_s={self.warmup_s} within "
                f"duration_s={self.duration_s}: the run would score nothing")
        return self

    def _scores_a_tick(self) -> bool:
        """True when a control tick of the run falls at or after the warm-up:
        the records `time_average` keeps. Scans back from the last step."""
        for step in range(round(self.duration_s / self.dt_s) - 1, -1, -1):
            t = round(step * self.dt_s, 9)
            if t < self.warmup_s - 1e-9:
                return False
            if ran.report_due(t, self.control_period_s, self.dt_s):
                return True
        return False

    def resolved_reporting_period(self) -> float:
        return self.control_period_s if self.reporting_period_s is None else self.reporting_period_s

    def resolved_staleness_window(self) -> float:
        if self.staleness_window_s is not None:
            return self.staleness_window_s
        return self.resolved_reporting_period() + self.control_delay_s + self.dt_s


@dataclass(slots=True)
class MetricsRecord:
    """One control tick's outcome. `direct_connectivity` is the same tick
    evaluated over direct links only (hop budget 1); it rides along for
    baseline comparisons and is not part of the metrics CSV schema."""

    t: float
    gamma_min_db: float
    p_b: float
    connectivity: float
    pairs_total: int
    pairs_direct: int
    pairs_relayed: int
    mean_hops: float
    direct_connectivity: float


@dataclass(slots=True)
class AuditSummary:
    """Control-plane bookkeeping for a whole run."""

    messages_total: int = 0
    paths_checked: int = 0
    paths_ok: int = 0
    protocol_errors: int = 0

    @property
    def paths_failed(self) -> int:
        return self.paths_checked - self.paths_ok


@dataclass(slots=True)
class SweepSpec:
    """Grid description for the experiment sweeps."""

    base: SimConfig
    gamma_min_values: tuple[float, ...] = ()
    p_b_values: tuple[float, ...] = ()
    replications: int = 1
    workers: int = 1

    def validate(self, need_p_b: bool = False) -> "SweepSpec":
        self.base.validate()
        if not self.gamma_min_values:
            raise ConfigurationError("gamma_min_values must be non-empty")
        for g in self.gamma_min_values:
            try:
                replace(self.base.xapp, snr_min_db=g).validate()
            except ConfigurationError as exc:
                raise ConfigurationError(f"invalid value for gamma_min_values: {exc}") from None
        if need_p_b and not self.p_b_values:
            raise ConfigurationError("p_b_values must be non-empty")
        for p in self.p_b_values:
            if not (0.0 <= p <= 1.0):
                raise ConfigurationError(f"p_b out of range [0, 1]: {p}")
        if self.replications < 1:
            raise ConfigurationError(f"replications must be >= 1: {self.replications}")
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1: {self.workers}")
        return self


@dataclass(slots=True)
class SummaryRow:
    """One row of the sweep summary table."""

    gamma_min_db: float
    p_b: float
    mode: str  # "relay" or "direct"
    connectivity_mean: float
    connectivity_std: float
    replications: int


@dataclass(slots=True)
class RunOutput:
    """One sweep cell replication: its records plus the audit trail."""

    gamma_min_db: float
    p_b: float
    replication: int
    seed: int
    records: list[MetricsRecord]
    audit: AuditSummary
    runtime_s: float


@dataclass(slots=True)
class SweepResult:
    rows: list[SummaryRow]
    runs: list[RunOutput]


# --- pair selection ----------------------------------------------------------------

def _build_pairs(world: ran.World, selection: str, seed: int) -> list[tuple[ran.NodeId, ran.NodeId]]:
    """The served pair set, fixed for the whole run.

    "all": every unordered vehicle pair. "matched": a seeded random perfect
    matching, so each vehicle is paired with exactly one partner (one vehicle
    sits out when the count is odd).
    """
    cavs = [node for node in world.nodes if node.kind == ran.NodeKind.CAV]
    if len(cavs) < 2:
        raise ConfigurationError(f"need at least 2 vehicles for pair metrics, got {len(cavs)}")
    if selection == "all":
        return [(cavs[a], cavs[b]) for a in range(len(cavs)) for b in range(a + 1, len(cavs))]
    rng = np.random.default_rng([seed, _MATCH_TAG])
    order = rng.permutation(len(cavs))
    pairs = []
    for k in range(len(cavs) // 2):
        u, v = cavs[order[2 * k]], cavs[order[2 * k + 1]]
        pairs.append((u, v) if u < v else (v, u))
    pairs.sort()
    return pairs


# --- metric assembly ----------------------------------------------------------------

def _connectivity(ends: np.ndarray, served: np.ndarray, metric_mode: str) -> float:
    """Connectivity: the fraction of pairs that are served ("pairwise"), or of
    the vehicles in them that belong to a served pair ("per-vehicle").
    `ends` holds each pair's two endpoints as small non-negative integers."""
    if metric_mode == "pairwise":
        return int(np.count_nonzero(served)) / len(served)
    in_pairs = np.bincount(ends.ravel()) > 0
    happy = np.bincount(ends[served].ravel(), minlength=len(in_pairs)) > 0
    return int(np.count_nonzero(happy)) / int(np.count_nonzero(in_pairs))


# --- the run loop -------------------------------------------------------------------

def _collect_reports(world: ran.World, cfg: SimConfig, t: float,
                     subscription: ran.SubscriptionRequest) -> list[ran.IndicationReport]:
    """Sense every in-range pair once, then split the table into per-node reports."""
    tab = channel.link_table(cfg.channel, world.xyz(), world.codes, world.body, world.boxes(),
                             t, cfg.seed, max_range=cfg.sensing_range_m)
    # both directions of every row, grouped by reporting slot, neighbours ascending
    src = np.concatenate((tab.i, tab.j))
    neighbors = world.codes[np.concatenate((tab.j, tab.i))]
    snr = np.concatenate((tab.snr_db, tab.snr_db))
    order = np.lexsort((neighbors, src))
    neighbors, snr = neighbors[order], snr[order]
    bounds = np.searchsorted(src[order], np.arange(len(world.nodes) + 1)).tolist()
    return [
        ran.emit_indication(node, neighbors[bounds[k]:bounds[k + 1]],
                            snr[bounds[k]:bounds[k + 1]], t, subscription)
        for k, node in enumerate(world.nodes)
        if cfg.cav_terminations or node.kind != ran.NodeKind.CAV
    ]


def _audit(table: ran.ForwardingTable, batch: ran.ControlBatch, t: float,
           audit: AuditSummary) -> None:
    """Walk every multi-hop path of the batch through the installed forwarding
    entries, all paths at once, and count those that reach their destination
    in exactly their hop count without passing it on the way."""
    paths = batch.paths
    hops = np.count_nonzero(paths >= 0, axis=1) - 1
    destination = paths[np.arange(len(paths)), hops]
    cur, ok = paths[:, 0], np.ones(len(paths), dtype=bool)
    for k in range(int(hops.max(initial=0))):
        step = ok & (k < hops)
        nxt = table.next_hops(cur, batch.pair, t)
        ok &= ~(step & ((nxt < 0) | (cur == destination)))
        cur = np.where(step & ok, nxt, cur)
    audit.paths_checked += len(paths)
    audit.paths_ok += int(np.count_nonzero(ok & (cur == destination)))


def run_with_audit(cfg: SimConfig) -> tuple[list[MetricsRecord], AuditSummary]:
    """Execute one run; returns its per-control-tick records and control audit."""
    cfg.validate()
    layout = build_intersection(
        arm_length_m=cfg.world.arm_length_m,
        road_width_m=cfg.world.road_width_m,
        building_setback_m=cfg.world.building_setback_m,
        building_height_m=cfg.world.building_height_m,
    )
    traffic = replace(cfg.traffic, seed=cfg.seed)
    world = ran.World(
        layout=layout,
        fleet=spawn_vehicles(layout, traffic),
        rsus=default_rsus(layout, mast_height_m=cfg.world.rsu_mast_height_m),
        cav_antenna_height_m=cfg.world.cav_antenna_height_m,
    )
    mobility = MobilityState.from_seed(cfg.seed, traffic.turn_probability)

    pairs = _build_pairs(world, cfg.pair_selection, cfg.seed)
    xapp_cfg = replace(
        cfg.xapp,
        pairs=tuple(pairs),
        max_hops=cfg.xapp.max_hops if cfg.relay_enabled else 1,
    ).validate()
    reporting_period = cfg.resolved_reporting_period()
    subscription = ran.SubscriptionRequest(
        reporting_period_s=reporting_period,
        measured_neighbors=cfg.measured_neighbors,
    ).validate(cfg.dt_s)

    ric_state = ric.RicState(staleness_window_s=cfg.resolved_staleness_window())
    table = ran.ForwardingTable.empty(world.codes, len(pairs), xapp_cfg.control_ttl_s)
    ends = table.slots(np.array([(u.code, v.code) for u, v in pairs], dtype=np.int64))[0]
    in_flight: list[tuple[float, ran.IndicationReport]] = []
    records: list[MetricsRecord] = []
    audit = AuditSummary()

    n_steps = round(cfg.duration_s / cfg.dt_s)
    for step in range(n_steps):
        t = round(step * cfg.dt_s, 9)
        if ran.report_due(t, reporting_period, cfg.dt_s):
            arrival = round(t + cfg.control_delay_s, 9)
            in_flight.extend((arrival, rep) for rep in _collect_reports(world, cfg, t, subscription))
        if ran.report_due(t, cfg.control_period_s, cfg.dt_s):
            while in_flight and in_flight[0][0] <= t + 1e-9:
                ric.ingest(ric_state, in_flight.pop(0)[1])
            batch, diag = ric.xapp_tick(ric_state, t, xapp_cfg)
            ran.apply_control(table, batch, t)
            audit.messages_total += len(batch)
            _audit(table, batch, t, audit)
            records.append(MetricsRecord(
                t=t,
                gamma_min_db=xapp_cfg.snr_min_db,
                p_b=cfg.channel.p_b,
                connectivity=_connectivity(ends, diag.served, cfg.metric_mode),
                pairs_total=diag.pairs_total,
                pairs_direct=diag.pairs_direct,
                pairs_relayed=diag.pairs_relayed,
                mean_hops=diag.mean_hops,
                direct_connectivity=_connectivity(ends, diag.direct, cfg.metric_mode),
            ))
        step_mobility(world.fleet, layout, cfg.dt_s, mobility)
    audit.protocol_errors = table.protocol_errors
    return records, audit


def run(cfg: SimConfig) -> list[MetricsRecord]:
    """Execute one run and return its per-control-tick metric records."""
    return run_with_audit(cfg)[0]


# --- aggregation and sweeps ----------------------------------------------------------

def time_average(records: list[MetricsRecord], warmup_s: float,
                 field_name: str = "connectivity") -> float:
    """Mean of one record field over the post-warm-up window."""
    values = [getattr(r, field_name) for r in records if r.t >= warmup_s - 1e-9]
    if not values:
        raise ConfigurationError(
            f"warm-up of {warmup_s} s leaves no records to average over")
    return float(np.mean(values))


def _mean_std(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return float(values[0]), 0.0
    return float(np.mean(values)), float(np.std(values, ddof=1))


def _run_cell(args: tuple[tuple, SimConfig]) -> tuple[tuple, tuple[list[MetricsRecord], AuditSummary, float]]:
    key, cfg = args
    started = time.perf_counter()
    records, audit = run_with_audit(cfg)
    return key, (records, audit, time.perf_counter() - started)


def _execute(jobs: list[tuple[tuple, SimConfig]], workers: int) -> dict[tuple, tuple[list[MetricsRecord], AuditSummary, float]]:
    """Run all jobs, optionally across processes; results keyed identically
    regardless of worker count."""
    if workers <= 1 or len(jobs) <= 1:
        return dict(_run_cell(job) for job in jobs)
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(processes=workers) as pool:
        return dict(pool.map(_run_cell, jobs))


def sweep_snr(spec: SweepSpec) -> SweepResult:
    """Connectivity versus SNR threshold: per threshold, time-averaged relay
    and direct-only connectivity over replications (both series come from the
    same relay-enabled runs; the direct series is the per-tick baseline)."""
    spec.validate()
    gammas = sorted(spec.gamma_min_values)
    jobs = []
    for g in gammas:
        for rep in range(spec.replications):
            cfg = replace(spec.base,
                          seed=spec.base.seed + rep,
                          xapp=replace(spec.base.xapp, snr_min_db=g),
                          relay_enabled=True)
            jobs.append(((g, rep), cfg))
    outcomes = _execute(jobs, spec.workers)

    rows: list[SummaryRow] = []
    runs: list[RunOutput] = []
    for g in gammas:
        relay_avgs, direct_avgs = [], []
        for rep in range(spec.replications):
            records, audit, runtime_s = outcomes[(g, rep)]
            relay_avgs.append(time_average(records, spec.base.warmup_s, "connectivity"))
            direct_avgs.append(time_average(records, spec.base.warmup_s, "direct_connectivity"))
            runs.append(RunOutput(gamma_min_db=g, p_b=spec.base.channel.p_b,
                                  replication=rep, seed=spec.base.seed + rep,
                                  records=records, audit=audit, runtime_s=runtime_s))
        for mode, avgs in (("direct", direct_avgs), ("relay", relay_avgs)):
            mean, std = _mean_std(avgs)
            rows.append(SummaryRow(gamma_min_db=g, p_b=spec.base.channel.p_b, mode=mode,
                                   connectivity_mean=mean, connectivity_std=std,
                                   replications=spec.replications))
    return SweepResult(rows=rows, runs=runs)


def sweep_blockage(spec: SweepSpec) -> SweepResult:
    """Relay connectivity over the (gamma_min, p_b) grid. Replication seeds are
    shared across cells, so the blockage draws are coupled and the p_b = 0
    column reproduces the SNR sweep exactly."""
    spec.validate(need_p_b=True)
    if spec.base.channel.blockage_mode not in ("stochastic", "combined"):
        raise ConfigurationError(
            "sweep_blockage needs blockage_mode 'stochastic' or 'combined', "
            f"got {spec.base.channel.blockage_mode!r}")
    gammas = sorted(spec.gamma_min_values)
    p_bs = sorted(spec.p_b_values)
    jobs = []
    for g in gammas:
        for p in p_bs:
            for rep in range(spec.replications):
                cfg = replace(spec.base,
                              seed=spec.base.seed + rep,
                              channel=replace(spec.base.channel, p_b=p),
                              xapp=replace(spec.base.xapp, snr_min_db=g),
                              relay_enabled=True)
                jobs.append(((g, p, rep), cfg))
    outcomes = _execute(jobs, spec.workers)

    rows: list[SummaryRow] = []
    runs: list[RunOutput] = []
    for g in gammas:
        for p in p_bs:
            avgs = []
            for rep in range(spec.replications):
                records, audit, runtime_s = outcomes[(g, p, rep)]
                avgs.append(time_average(records, spec.base.warmup_s, "connectivity"))
                runs.append(RunOutput(gamma_min_db=g, p_b=p, replication=rep,
                                      seed=spec.base.seed + rep, records=records,
                                      audit=audit, runtime_s=runtime_s))
            mean, std = _mean_std(avgs)
            rows.append(SummaryRow(gamma_min_db=g, p_b=p, mode="relay",
                                   connectivity_mean=mean, connectivity_std=std,
                                   replications=spec.replications))
    return SweepResult(rows=rows, runs=runs)
