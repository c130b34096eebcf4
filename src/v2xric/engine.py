"""Deterministic discrete-time simulation loop and experiment sweeps.

One run advances vehicle mobility every `dt_s`, has every radio endpoint sense
and report on its reporting cadence, and executes the controller (graph build,
widest-path assignment, control fan-out) on every control tick, recording one
connectivity measurement per control tick, from streams (`v2xric.streams`).
Sweeps run a job per replication (per cell past the hold budget) on one pool;
all is keyed off the run seed, so outputs are bit-identical at any worker count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import channel, ran, ric, streams
from .errors import ConfigurationError, check_keys, config_key, within
from .scenario import (RoadLayout, TrafficConfig, build_intersection,
                       default_rsus, spawn_vehicles, step_mobility)

_MATCH_TAG = 31  # seed stream tag for the matched-pair draw

METRIC_MODES = ("pairwise", "per-vehicle")
PAIR_SELECTIONS = ("all", "matched")
_REPORTING_PERIODS = "[0.001, 1]"  # seconds, set or taken from control_period_s


@dataclass(slots=True)
class WorldConfig:
    """Static geometry of the intersection scene."""

    arm_length_m: float = config_key(200.0, "(0, inf)")
    road_width_m: float = config_key(14.0, "(0, inf)")
    building_setback_m: float = config_key(2.0, "[0, inf)")
    building_height_m: float = config_key(20.0, "(0, inf)")
    rsu_mast_height_m: float = config_key(6.0, "(0, inf)")
    cav_antenna_height_m: float = config_key(1.6, "(0, inf)")

    def validate(self) -> "WorldConfig":
        """Each dimension in its domain, and the buildings fitting the layout."""
        check_keys(self)
        self.layout()
        return self

    def layout(self) -> RoadLayout:
        """The intersection these dimensions describe."""
        return build_intersection(self.arm_length_m, self.road_width_m,
                                  self.building_setback_m, self.building_height_m)


@dataclass(slots=True)
class SimConfig:
    """Full description of one run; every derived quantity comes from `seed`."""

    duration_s: float = config_key(300.0, "(0, inf)")
    dt_s: float = config_key(0.1, "[1e-9, inf)")  # record times are rounded to 1e-9 s
    control_period_s: float = config_key(0.1, "(0, inf)")
    seed: int = config_key(1, "[0, 2^63)")
    channel: channel.ChannelParams = field(default_factory=channel.ChannelParams)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    xapp: ric.XAppConfig = field(default_factory=ric.XAppConfig)
    world: WorldConfig = field(default_factory=WorldConfig)
    sensing_range_m: float = config_key(300.0, "(0, inf)")
    reporting_period_s: float | None = config_key(None, _REPORTING_PERIODS)  # None: control cadence
    measured_neighbors: int | None = config_key(None, "[1, inf)")  # None: no cap
    staleness_window_s: float | None = config_key(None, "(0, inf)")  # None: a cycle plus slack
    control_delay_s: float = config_key(0.01, "[0, inf)")
    warmup_s: float = config_key(10.0, "[0, inf)")
    metric_mode: str = config_key("pairwise", METRIC_MODES)
    pair_selection: str = config_key("all", PAIR_SELECTIONS)
    cav_terminations: bool = config_key(True, (False, True))  # False: only RSUs report

    def validate(self) -> "SimConfig":
        """Every key in its domain, then the rules that join keys."""
        check_keys(self)
        if self.control_period_s < self.dt_s:
            raise ConfigurationError(
                f"control_period_s must be >= dt_s: {self.control_period_s} < {self.dt_s}")
        if self.warmup_s >= self.duration_s:
            raise ConfigurationError(
                f"warmup_s must be below duration_s: {self.warmup_s} >= {self.duration_s}")
        for section in (self.channel, self.traffic, self.xapp, self.world):
            section.validate()
        reporting = self.resolved_reporting_period()  # a set one passed its domain above
        if not within(_REPORTING_PERIODS, reporting):
            raise ConfigurationError("control_period_s sets the reporting period, which must "
                                     f"lie in {_REPORTING_PERIODS}: {reporting}")
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
    # each grid value must pass the domain of the key it sets in its cells
    gamma_min_values: tuple[float, ...] = config_key(
        (0.0, 5.0, 10.0, 15.0, 20.0), ric.XAppConfig.__dataclass_fields__["snr_min_db"])
    p_b_values: tuple[float, ...] = config_key(
        (0.0, 0.25, 0.5, 0.75, 1.0), channel.ChannelParams.__dataclass_fields__["p_b"])
    replications: int = config_key(1, "[1, inf)")
    workers: int = config_key(1, "[1, inf)")

    def validate(self) -> "SweepSpec":
        self.base.validate()
        check_keys(self)
        if self.base.seed + self.replications - 1 >= 2**63:
            raise ConfigurationError(f"replications out of range: seed {self.base.seed} + "
                                     f"{self.replications - 1} must stay below 2^63")
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

def _build_pairs(codes: np.ndarray, selection: str, seed: int) -> np.ndarray:
    """The served pair set, fixed for the whole run: (P, 2) view slots, the
    smaller first, in ascending order.

    "all": every unordered vehicle pair. "matched": a seeded random perfect
    matching, so each vehicle is paired with exactly one partner (one vehicle
    sits out when the count is odd). A world with fewer than two vehicles
    is refused.
    """
    cavs = np.flatnonzero(ran.kinds(codes) == ran.NodeKind.CAV)
    if len(cavs) < 2:
        raise ConfigurationError(f"need at least 2 vehicles for pair metrics, got {len(cavs)}")
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


def _world_stream(cfg: SimConfig, p_bs, world: ran.World | None = None,
                  first: list | None = None) -> streams.WorldStream:
    """`cfg`'s world, or `world` at step 0, for cells on the p_b grid, held given
    its `first` step (`streams.need`); it moves through this module's `step_mobility`."""
    world = world or _world(cfg, cfg.world.layout())
    return streams.world_stream(cfg, world, p_bs, step_mobility, first)


def run_with_audit(cfg: SimConfig, solves: streams.SolveStream | None = None
                   ) -> tuple[list[MetricsRecord], AuditSummary]:
    """Execute one run; returns its per-control-tick records and control audit.
    `solves` is the controller a sweep holds for the run's replication and
    p_b; by default the run draws its own."""
    cfg.validate()
    if solves is None:  # its own controller at its own threshold, on its own world
        stream = _world_stream(cfg, (cfg.channel.p_b,))
        pairs = _build_pairs(stream.codes, cfg.pair_selection, cfg.seed)
        solves = streams.solve_stream(cfg, stream, pairs, (cfg.xapp.snr_min_db,))
    else:
        streams.check_solves(cfg, solves)
    pairs = solves.pairs
    xapp = ric.XAppState(len(solves.codes), pairs=pairs, xapp=cfg.xapp)
    table = ran.forwarding_table(len(solves.codes), len(pairs))
    records: list[MetricsRecord] = []
    audit = AuditSummary()

    for solved in solves.ticks:
        batch, diag = ric.xapp_tick(xapp, solved)
        audit.protocol_errors += ran.apply_control(table, batch)
        relayed = np.flatnonzero(diag.hops >= 2)
        audit.messages_total += int(diag.hops[relayed].sum())  # the full fan-out
        audit.paths_checked += len(relayed)
        audit.paths_ok += ran.delivered(table, diag.paths[relayed], relayed)
        n_direct = int(np.count_nonzero(diag.direct))
        records.append(MetricsRecord(
            t=round(solved.step * cfg.dt_s, 9),
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
        del solved, batch, diag  # a solved block is freed before the next is solved
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
             solves: streams.SolveStream | None = None) -> RunOutput:
    """Execute and time one run: replication `replication` of its sweep cell,
    on the solves its replication's job holds for it, if any."""
    started = time.perf_counter()
    records, audit = run_with_audit(cfg, solves)
    return RunOutput(cfg, replication, records, audit, time.perf_counter() - started)


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


def _replication(cfg: SimConfig, rep: int, world: ran.World, pairs: np.ndarray, p_bs,
                 gammas: tuple[float, ...], first: list | None) -> list[RunOutput]:
    """Every cell of replication `rep` (`cfg` at the least of the sorted `gammas`)
    on its `world` at step 0 and `pairs`: held given its `first` step, one p_b's
    threshold cells at a time on one held solve stream, else each cell alone."""
    stream = None if first is None else _world_stream(cfg, p_bs, world, first)
    runs = []
    for p in p_bs:
        lowest = replace(cfg, channel=replace(cfg.channel, p_b=p))
        solves = stream and streams.solve_stream(lowest, stream, pairs, gammas)
        if solves and len(gammas) > 1:
            solves = streams.hold_solves(solves)
        runs += [run_cell(replace(lowest, xapp=replace(cfg.xapp, snr_min_db=g)), rep, solves)
                 for g in gammas]
    return runs


def _in_turn(jobs: list[tuple]) -> list[RunOutput]:
    """The runs of `_replication` jobs, one job after another."""
    return [out for job in jobs for out in _replication(*job)]


def _sweep(spec: SweepSpec, p_bs: list[float], modes: tuple[str, ...]) -> SweepResult:
    """Run every (gamma_min, p_b, replication) cell, replication r at seed
    `base.seed + r`, and summarise each (gamma_min, p_b) once per mode. A
    replication is a job (`_replication`) if it fits the hold budget
    (`streams.need`), else each of its cells is; all are spawned before any
    job starts. The held jobs share as many lanes as fit the budget at once;
    lanes and cells run in turn or on one fork pool of up to `spec.workers`."""
    base, reps = spec.base, spec.replications
    if base.xapp.max_hops < 2:
        raise ConfigurationError("the sweeps score relaying: max_hops must be >= 2")
    gammas, layout = tuple(sorted(spec.gamma_min_values)), base.world.layout()
    held, cells, most = [], [], 1  # most: the largest held job's bytes
    for rep in range(reps):
        cfg = replace(base, seed=base.seed + rep, xapp=replace(base.xapp, snr_min_db=gammas[0]))
        world = _world(cfg, layout)
        pairs = _build_pairs(world.codes, cfg.pair_selection, cfg.seed)
        need, first = (streams.need(cfg, world, p_bs, len(pairs)) if len(gammas) * len(p_bs) > 1
                       else (math.inf, None))
        if need <= streams._HOLD_BYTES:
            held.append((cfg, rep, world, pairs, p_bs, gammas, first))
            most = max(most, need)
        else:
            cells += [[(cfg, rep, world, pairs, (p,), (g,), None)] for p in p_bs for g in gammas]
    lanes = streams._HOLD_BYTES // most
    units = [held[k::lanes] for k in range(min(lanes, len(held)))] + cells
    processes = min(spec.workers, len(units))
    if processes == 1:
        done = list(map(_in_turn, units))
    else:
        import multiprocessing
        with multiprocessing.get_context("fork").Pool(processes) as pool:
            done = pool.map(_in_turn, units)
    runs = sorted((out for outs in done for out in outs),
                  key=lambda out: (out.cfg.xapp.snr_min_db, out.cfg.channel.p_b, out.replication))
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
    if spec.base.channel.blockage_mode not in ("stochastic", "combined"):
        raise ConfigurationError(
            "sweep_blockage needs blockage_mode 'stochastic' or 'combined', "
            f"got {spec.base.channel.blockage_mode!r}")
    return _sweep(spec, sorted(spec.p_b_values), ("relay",))
