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

from . import channel, ran, ric, streams
from .errors import ConfigurationError, require_int
from .scenario import (RoadLayout, TrafficConfig, build_intersection,
                       default_rsus, spawn_vehicles, step_mobility)

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
        """`build_intersection` checks the other dimensions and that they fit."""
        for name in ("building_setback_m", "rsu_mast_height_m", "cav_antenna_height_m"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigurationError(f"{name} must be positive: {value}")
        self.layout()
        return self

    def layout(self) -> RoadLayout:
        """The intersection these dimensions describe."""
        return build_intersection(self.arm_length_m, self.road_width_m,
                                  self.building_setback_m, self.building_height_m)


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
    cav_terminations: bool = True  # False: only infrastructure reports (ablation)

    def validate(self) -> "SimConfig":
        for name in ("duration_s", "dt_s", "control_period_s", "sensing_range_m",
                     "reporting_period_s", "staleness_window_s", "control_delay_s", "warmup_s"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(f"invalid value for {name}: {value} (must be finite)")
        if not (self.duration_s > 0):
            raise ConfigurationError(f"duration_s must be positive: {self.duration_s}")
        if not (self.dt_s >= 1e-9):  # record times are rounded to 1e-9 s
            raise ConfigurationError(f"dt_s must be at least 1e-9: {self.dt_s}")
        if self.control_period_s < self.dt_s:
            raise ConfigurationError(
                f"control_period_s must be >= dt_s: {self.control_period_s} < {self.dt_s}")
        require_int("seed", self.seed)
        if not (0 <= self.seed < 2**63):
            raise ConfigurationError(f"seed out of range [0, 2^63): {self.seed}")
        if not isinstance(self.cav_terminations, (bool, np.bool_)):
            raise ConfigurationError(f"cav_terminations must be a bool: {self.cav_terminations!r}")
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
        reporting = self.resolved_reporting_period()
        if not (0.001 <= reporting <= 1.0):
            if self.reporting_period_s is None:
                raise ConfigurationError("control_period_s sets the reporting period, which must "
                                         f"lie in [0.001, 1]: {reporting}")
            raise ConfigurationError(f"reporting_period_s out of range [0.001, 1]: {reporting}")
        if self.measured_neighbors is not None:
            require_int("measured_neighbors", self.measured_neighbors)
            if self.measured_neighbors < 1:
                raise ConfigurationError(
                    f"measured_neighbors must be >= 1 or None: {self.measured_neighbors}")
        periods = (("duration_s", self.duration_s), ("control_period_s", self.control_period_s),
                   ("reporting_period_s", reporting))
        spans = (*periods, ("control_delay_s", self.control_delay_s),
                 ("staleness_window_s", self.staleness_window_s))
        for name, value in spans:
            if value is not None and not math.isfinite(value / self.dt_s):
                raise ConfigurationError(
                    f"{name} / dt_s must be a finite number of steps: {value} / {self.dt_s}")
        every = self.steps(self.control_period_s)  # the last control tick must be scored
        if not _after_warmup(round((self.n_steps() - 1) // every * every * self.dt_s, 9),
                             self.warmup_s):
            raise ConfigurationError(
                f"no control tick at or after warmup_s={self.warmup_s} within "
                f"duration_s={self.duration_s}: the run would score nothing")
        for name, value in periods:
            if not math.isclose(value / self.dt_s, self.steps(value), rel_tol=1e-9):
                raise ConfigurationError(
                    f"{name} must be a whole number of dt_s steps: {value} / {self.dt_s}")
        return self

    def steps(self, seconds: float) -> int:
        """`seconds` in whole `dt_s` steps, exact for the periods `validate` accepts."""
        return round(seconds / self.dt_s)

    def n_steps(self) -> int:
        """Steps of the run: `duration_s / dt_s`."""
        return self.steps(self.duration_s)

    def resolved_reporting_period(self) -> float:
        return self.control_period_s if self.reporting_period_s is None else self.reporting_period_s

    def staleness_steps(self) -> int:
        """K, the staleness window in whole steps: the largest k <= n_steps() with
        round(k * dt_s, 9) <= window + 1e-9, the float rule at step 0. The window
        defaults to one reporting cycle plus the control delay and one step."""
        window = self.staleness_window_s
        if window is None:
            window = self.resolved_reporting_period() + self.control_delay_s + self.dt_s
        n, k = self.n_steps(), max(0, min(math.floor(window / self.dt_s) - 1, self.n_steps()))
        while k < n and round((k + 1) * self.dt_s, 9) <= window + 1e-9:
            k += 1  # from a step below window / dt_s, which the rule admits
        return k


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
    gamma_min_values: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    p_b_values: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    replications: int = 1
    workers: int = 1

    def validate(self) -> "SweepSpec":
        self.base.validate()
        if not self.gamma_min_values:
            raise ConfigurationError("gamma_min_values must be non-empty")
        for g in self.gamma_min_values:
            try:
                replace(self.base.xapp, snr_min_db=g).validate()
            except ConfigurationError as exc:
                raise ConfigurationError(f"invalid value for gamma_min_values: {exc}") from None
        for p in self.p_b_values:
            try:
                replace(self.base.channel, p_b=p).validate()
            except ConfigurationError as exc:
                raise ConfigurationError(f"invalid value for p_b_values: {exc}") from None
        require_int("replications", self.replications)
        if self.replications < 1:
            raise ConfigurationError(f"replications must be >= 1: {self.replications}")
        if self.base.seed + self.replications - 1 >= 2**63:
            raise ConfigurationError(f"replications out of range: seed {self.base.seed} + "
                                     f"{self.replications - 1} must stay below 2^63")
        require_int("workers", self.workers)
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
    """One sweep cell replication: the run's config, its records and audit
    trail, and its wall time."""

    cfg: SimConfig
    replication: int
    records: list[MetricsRecord]
    audit: AuditSummary
    runtime_s: float


@dataclass(slots=True)
class SweepResult:
    rows: list[SummaryRow]
    runs: list[RunOutput]


# --- pair selection ----------------------------------------------------------------

def _vehicle_slots(codes: np.ndarray) -> np.ndarray:
    """The view slots of the world's vehicles, at least the two a pair needs."""
    cavs = np.flatnonzero(ran.kinds(codes) == ran.NodeKind.CAV)
    if len(cavs) < 2:
        raise ConfigurationError(f"need at least 2 vehicles for pair metrics, got {len(cavs)}")
    return cavs


def _build_pairs(codes: np.ndarray, selection: str, seed: int) -> np.ndarray:
    """The served pair set, fixed for the whole run: (P, 2) view slots, the
    smaller first, in ascending order.

    "all": every unordered vehicle pair. "matched": a seeded random perfect
    matching, so each vehicle is paired with exactly one partner (one vehicle
    sits out when the count is odd).
    """
    cavs = _vehicle_slots(codes)
    if selection == "all":
        a, b = np.triu_indices(len(cavs), 1)
        return np.stack((cavs[a], cavs[b]), axis=1)
    rng = np.random.default_rng([seed, _MATCH_TAG])
    order = rng.permutation(len(cavs))
    pairs = np.sort(cavs[order[: len(cavs) // 2 * 2]].reshape(-1, 2), axis=1)
    return pairs[np.argsort(pairs[:, 0])]  # a matching: the first slots are distinct


# --- metric assembly ----------------------------------------------------------------

def _connectivity(pairs: np.ndarray, served: np.ndarray, metric_mode: str) -> float:
    """Connectivity: the fraction of pairs that are served ("pairwise"), or of
    the vehicles in them that belong to a served pair ("per-vehicle").
    `pairs` holds each pair's two endpoints as view slots."""
    if metric_mode == "pairwise":
        return int(np.count_nonzero(served)) / len(served)
    in_pairs = np.bincount(pairs.ravel()) > 0
    happy = np.bincount(pairs[served].ravel(), minlength=len(in_pairs)) > 0
    return int(np.count_nonzero(happy)) / int(np.count_nonzero(in_pairs))


# --- the run loop -------------------------------------------------------------------

def _world(cfg: SimConfig, layout: RoadLayout) -> ran.World:
    """The run's world at step 0: its traffic spawned at the run's seed."""
    return ran.World(
        layout=layout,
        fleet=spawn_vehicles(layout, replace(cfg.traffic, seed=cfg.seed)),
        rsus=default_rsus(layout, mast_height_m=cfg.world.rsu_mast_height_m),
        cav_antenna_height_m=cfg.world.cav_antenna_height_m,
    )


def _world_stream(cfg: SimConfig, gammas, p_bs) -> streams.WorldStream:
    """`cfg`'s world, measured as it is read, for cells on the grids; its
    fleet moves through this module's `step_mobility`."""
    return streams.world_stream(cfg, _world(cfg, cfg.world.layout()), gammas, p_bs, step_mobility)


def run_with_audit(cfg: SimConfig, stream: streams.WorldStream | None = None
                   ) -> tuple[list[MetricsRecord], AuditSummary]:
    """Execute one run; returns its per-control-tick records and control audit.
    `stream` is the run's world as a sweep holds it for all cells of one
    replication; by default the run measures its own world as it goes."""
    cfg.validate()
    if stream is None:
        stream = _world_stream(cfg, (cfg.xapp.snr_min_db,), (cfg.channel.p_b,))
    levels = streams.cell_levels(cfg, stream)
    codes = stream.codes

    pairs = _build_pairs(codes, cfg.pair_selection, cfg.seed)
    report_every = cfg.steps(cfg.resolved_reporting_period())
    control_every = cfg.steps(cfg.control_period_s)
    # a report arrives whole steps after it is taken, a part step rounding up
    delay_steps = math.ceil(round(cfg.control_delay_s / cfg.dt_s, 9))

    ric_state = ric.RicState(codes, cfg.staleness_steps(), pairs=pairs, xapp=cfg.xapp)
    table = ran.forwarding_table(len(codes), len(pairs))
    reporting = cfg.cav_terminations | (ran.kinds(codes) != ran.NodeKind.CAV)
    measured = iter(stream.steps)
    in_flight: list[tuple[int, ran.IndicationBatch]] = []  # (arrival step, batch)
    records: list[MetricsRecord] = []
    audit = AuditSummary()

    for step in range(cfg.n_steps()):
        if step % report_every == 0:
            in_flight.append((step + delay_steps,
                              streams.collect_reports(next(measured), cfg, reporting, levels)))
        if step % control_every == 0:
            while in_flight and in_flight[0][0] <= step:
                ric.ingest(ric_state, in_flight.pop(0)[1])
            batch, diag = ric.xapp_tick(ric_state, step)
            audit.protocol_errors += ran.apply_control(table, batch)
            relayed = np.flatnonzero(diag.hops >= 2)
            audit.messages_total += int(diag.hops[relayed].sum())  # the full fan-out
            audit.paths_checked += len(relayed)
            audit.paths_ok += ran.delivered(table, diag.paths[relayed], relayed)
            n_direct = int(np.count_nonzero(diag.direct))
            records.append(MetricsRecord(
                t=round(step * cfg.dt_s, 9),
                gamma_min_db=cfg.xapp.snr_min_db,
                p_b=cfg.channel.p_b,
                connectivity=_connectivity(pairs, diag.served, cfg.metric_mode),
                pairs_total=diag.pairs_total,
                pairs_direct=n_direct,
                pairs_relayed=diag.pairs_feasible - n_direct,
                mean_hops=(float(np.mean(diag.hops[diag.served])) if diag.pairs_feasible
                           else math.nan),
                direct_connectivity=_connectivity(pairs, diag.direct, cfg.metric_mode),
            ))
    return records, audit


def run(cfg: SimConfig) -> list[MetricsRecord]:
    """Execute one run and return its per-control-tick metric records."""
    return run_with_audit(cfg)[0]


# --- aggregation and sweeps ----------------------------------------------------------

def _after_warmup(t: float, warmup_s: float) -> bool:
    """Whether a record at `t` seconds falls in the scored, post-warm-up window."""
    return t >= warmup_s - 1e-9


def time_average(records: list[MetricsRecord], warmup_s: float,
                 field_name: str = "connectivity") -> float:
    """Mean of one record field over the post-warm-up window."""
    values = [getattr(r, field_name) for r in records if _after_warmup(r.t, warmup_s)]
    if not values:
        raise ConfigurationError(
            f"warm-up of {warmup_s} s leaves no records to average over")
    return float(np.mean(values))


def run_cell(cfg: SimConfig, replication: int = 0,
             stream: streams.WorldStream | None = None) -> RunOutput:
    """Execute and time one run: replication `replication` of its sweep cell,
    on its replication's world `stream` when one is held."""
    started = time.perf_counter()
    records, audit = run_with_audit(cfg, stream)
    return RunOutput(cfg, replication, records, audit, time.perf_counter() - started)


_HELD: streams.WorldStream | None = None  # the stream a pool's forked workers inherit


def _run_held(cfg: SimConfig, replication: int) -> RunOutput:
    return run_cell(cfg, replication, _HELD)


def _execute(jobs: list[tuple[SimConfig, int]], workers: int,
             stream: streams.WorldStream | None) -> list[RunOutput]:
    """Run all (config, replication) jobs on one world `stream`, or each on
    its own, optionally across processes (forked with the stream in place);
    results in job order at any worker count."""
    if workers <= 1 or len(jobs) <= 1:
        return [run_cell(*job, stream) for job in jobs]
    import multiprocessing

    global _HELD
    _HELD = stream
    try:
        with multiprocessing.get_context("fork").Pool(processes=min(workers, len(jobs))) as pool:
            return pool.starmap(_run_held, jobs)
    finally:
        _HELD = None


def summarise(cells: list[RunOutput], mode: str) -> SummaryRow:
    """One summary row over the replications of one (gamma_min, p_b) cell:
    "relay" averages the connectivity, "direct" the direct-only baseline of
    the same runs."""
    cfg = cells[0].cfg
    field_name = "connectivity" if mode == "relay" else "direct_connectivity"
    values = [time_average(c.records, c.cfg.warmup_s, field_name) for c in cells]
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return SummaryRow(gamma_min_db=cfg.xapp.snr_min_db, p_b=cfg.channel.p_b, mode=mode,
                      connectivity_mean=float(np.mean(values)), connectivity_std=std,
                      replications=len(cells))


def _sweep(spec: SweepSpec, p_bs: list[float], modes: tuple[str, ...]) -> SweepResult:
    """Run every (gamma_min, p_b, replication) cell, replication r at seed
    `base.seed + r`, and summarise each (gamma_min, p_b) once per mode. One
    replication at a time, its cells share one held world stream."""
    base, reps = spec.base, spec.replications
    # each replication's world as its runs build it, so a bad spawn fails up front
    layout = base.world.layout()
    for rep in range(reps):
        _vehicle_slots(_world(replace(base, seed=base.seed + rep), layout).codes)
    if base.xapp.max_hops < 2:
        raise ConfigurationError("the sweeps score relaying: max_hops must be >= 2")
    gammas, by_rep = sorted(spec.gamma_min_values), []
    for rep in range(reps):
        cfg = replace(base, seed=base.seed + rep)
        cells = [(replace(cfg, channel=replace(base.channel, p_b=p),
                          xapp=replace(base.xapp, snr_min_db=g)), rep) for g in gammas for p in p_bs]
        stream = streams.hold(_world_stream(cfg, gammas, p_bs)) if len(cells) > 1 else None
        by_rep.append(_execute(cells, spec.workers, stream))
        del stream  # before the next replication's is measured
    runs = [outs[k] for k in range(len(by_rep[0])) for outs in by_rep]
    rows = [summarise(runs[k:k + reps], mode)
            for k in range(0, len(runs), reps) for mode in modes]
    return SweepResult(rows=rows, runs=runs)


def sweep_snr(spec: SweepSpec) -> SweepResult:
    """Connectivity versus SNR threshold: per threshold, time-averaged relay
    and direct-only connectivity over replications (both series come from the
    same relay-enabled runs; the direct series is the per-tick baseline)."""
    spec.validate()
    return _sweep(spec, [spec.base.channel.p_b], ("direct", "relay"))


def sweep_blockage(spec: SweepSpec) -> SweepResult:
    """Relay connectivity over the (gamma_min, p_b) grid. Replication seeds are
    shared across cells, so the blockage draws are coupled and the p_b = 0
    column reproduces the SNR sweep exactly."""
    spec.validate()
    if not spec.p_b_values:
        raise ConfigurationError("p_b_values must be non-empty")
    if spec.base.channel.blockage_mode not in ("stochastic", "combined"):
        raise ConfigurationError(
            "sweep_blockage needs blockage_mode 'stochastic' or 'combined', "
            f"got {spec.base.channel.blockage_mode!r}")
    return _sweep(spec, sorted(spec.p_b_values), ("relay",))
