"""World and solve streams: one world measured, and one controller solved,
once per step for many runs.

Control never feeds back into motion and each outage draw is a stateless
hash of (seed, link, time), so a sweep's geometry, mobility and outage
uniforms depend on the replication seed alone. A world stream measures each
report step once, at the smallest threshold of the sweep's grid and with no
outage, and every cell of that replication cuts its own reports from it: the
links at or above its threshold, an outage where the uniform lies below its
p_b. Each cut is bit for bit the report batch of the cell's own floored
`link_table` call.

A solve stream is one controller solved once per control tick at the
grid's smallest threshold; each threshold cell of one (replication, p_b)
cuts its tick from it (`ric.xapp_tick`). A run draws its own streams lazily.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace

import numpy as np

from . import channel, ran, ric
from .errors import ConfigurationError
from .scenario import MobilityState

# `SimConfig` in the annotations is `engine.SimConfig`, left unimported
# because the engine imports this module.

# Bytes a held world stream (one replication) and a held solve stream (one
# p_b of it) may take; past them each cell measures or solves its own.
_STREAM_BYTES = 2**26
_SOLVE_BYTES = 2**27


@dataclass(frozen=True, slots=True)
class Measurement:
    """One report step's links i < j (view slots), their SNR with no outage
    and, where some cell needs them, two grid levels per link: how many
    thresholds its LOS SNR reaches, and how many p_b values lie at or below
    its outage uniform."""

    step: int
    i: np.ndarray  # (L,) ints, int32 once held
    j: np.ndarray  # (L,) ints, int32 once held
    snr_db: np.ndarray  # (L,) float64
    floor: np.ndarray | None  # (L,) unsigned levels
    outage: np.ndarray | None  # (L,) unsigned levels


@dataclass(frozen=True, slots=True)
class WorldStream:
    """One replication's world for the runs of its sweep cells: the config
    it is measured from, its node codes, the sorted grids it serves, and one
    `Measurement` per report step, floored at the smallest threshold."""

    cfg: SimConfig
    codes: np.ndarray
    gammas: tuple[float, ...]
    p_bs: tuple[float, ...]
    steps: Iterable[Measurement]


def _levels(grid: tuple[float, ...], values: np.ndarray) -> np.ndarray:
    """How many values of the sorted `grid` lie at or below each of `values`."""
    return np.searchsorted(grid, values, side="right").astype(np.min_scalar_type(len(grid)))


def sense(world: ran.World, cfg: SimConfig, step: int, gammas: tuple[float, ...],
          p_bs: tuple[float, ...]) -> Measurement:
    """Measure `world` at `step` from one read of the fleet, with no outage.
    The outage uniforms key on the step's time in s; like `link_table`, it
    draws them only when some p_b of the grid can block."""
    t = round(step * cfg.dt_s, 9)
    xy = world.fleet.xy()
    params = replace(cfg.channel, p_b=0.0)
    tab = channel.link_table(params, world.xyz(xy), world.codes, world.body, world.boxes(xy), t,
                             cfg.seed, max_range=cfg.sensing_range_m, min_snr_db=gammas[0])
    floor = outage = None
    if len(gammas) > 1:
        los = channel.link_snr_db(params, channel.pathloss_los(tab.distance_m, params.carrier_ghz))
        floor = _levels(gammas, los)
    if params.blockage_mode in ("stochastic", "combined") and p_bs[-1] > 0.0:
        outage = _levels(p_bs, channel.outage_uniform(world.codes, tab.i, tab.j, t, cfg.seed))
    return Measurement(step, tab.i, tab.j, tab.snr_db, floor, outage)


def world_stream(cfg: SimConfig, world: ran.World, gammas, p_bs,
                 move: Callable) -> WorldStream:
    """`cfg`'s `world` for cells on the grids, measured at every report step
    as it is read and moved after every step by `move`, called as
    `step_mobility` is; the engine passes the `step_mobility` it sees."""
    gammas, p_bs = tuple(sorted(set(gammas))), tuple(sorted(set(p_bs)))

    def measure():
        mobility = MobilityState.from_seed(cfg.seed, cfg.traffic.turn_probability)
        report_every = cfg.steps(cfg.resolved_reporting_period())
        for step in range(cfg.n_steps()):
            if step % report_every == 0:
                yield sense(world, cfg, step, gammas, p_bs)
            move(world.fleet, world.layout, cfg.dt_s, mobility)

    return WorldStream(cfg, world.codes, gammas, p_bs, measure())


def hold(stream: WorldStream) -> WorldStream | None:
    """The stream held whole, its endpoints as int32, or None when its first
    step's size times its report steps passes `_STREAM_BYTES`."""
    steps = iter(stream.steps)
    first = _compact(next(steps))
    size = sum(a.nbytes for a in (first.i, first.j, first.snr_db, first.floor, first.outage)
               if a is not None)
    cfg = stream.cfg
    reports = len(range(0, cfg.n_steps(), cfg.steps(cfg.resolved_reporting_period())))
    if reports * size > _STREAM_BYTES:
        return None
    return replace(stream, steps=[first, *map(_compact, steps)])


def _compact(m: Measurement) -> Measurement:
    return replace(m, i=m.i.astype(np.int32), j=m.j.astype(np.int32))


def cell_levels(cfg: SimConfig, stream: WorldStream) -> tuple[int, int]:
    """The grid levels of the run's threshold and p_b on a stream measured
    from its config at some grid point."""
    gamma, p_b = cfg.xapp.snr_min_db, cfg.channel.p_b
    if (gamma not in stream.gammas or p_b not in stream.p_bs or stream.cfg != replace(
            cfg, xapp=stream.cfg.xapp, channel=replace(cfg.channel, p_b=stream.cfg.channel.p_b))):
        raise ConfigurationError("the world stream was measured for another run")
    return stream.gammas.index(gamma), stream.p_bs.index(p_b)


def collect_reports(m: Measurement, cfg: SimConfig, reporting: np.ndarray,
                    levels: tuple[int, int]) -> ran.IndicationBatch:
    """One run's reports at a measured step, both directions of each link
    from every reporting endpoint, in one batch of view slots. At p_b level
    k an outage is a uniform with at most k grid values at or below it, so
    u < p_b; at threshold level k > 0 the links whose LOS SNR reaches fewer
    than k + 1 thresholds go. The batch is bit for bit the one the run's own
    floored `link_table` call gives, and that floor is exact: every link at
    or above the threshold is reported with its unfloored SNR, and under the
    report cap it is outranked only by links also at or above it."""
    gamma_k, p_b_k = levels
    i, j, snr = m.i, m.j, m.snr_db
    if m.outage is not None:
        snr = np.where(m.outage <= p_b_k,
                       channel.link_snr_db(cfg.channel, channel.OUTAGE_PATHLOSS_DB), snr)
    if gamma_k:
        keep = m.floor > gamma_k
        i, j, snr = i[keep], j[keep], snr[keep]
    src = np.concatenate((i, j))
    dst = np.concatenate((j, i))
    snr = np.concatenate((snr, snr))
    sent = reporting[src]
    return ran.emit_indication(np.flatnonzero(reporting), src[sent], dst[sent], snr[sent], m.step,
                               cfg.measured_neighbors)


@dataclass(frozen=True, slots=True)
class SolveStream:
    """A controller solved from `cfg` at `gammas[0]` of the sorted grid: its
    view's codes, its served pairs, and one `ric.Solve` per control tick."""

    cfg: SimConfig
    codes: np.ndarray
    pairs: np.ndarray
    gammas: tuple[float, ...]
    ticks: Iterable[ric.Solve]


def solve_stream(cfg: SimConfig, stream: WorldStream, pairs: np.ndarray,
                 gammas: tuple[float, ...]) -> SolveStream:
    """`cfg`'s controller for `pairs`, solved as it is read on its reports
    cut from `stream`, each ingested at the first control tick at least
    ⌈control_delay_s / dt_s⌉ steps after it was taken."""
    levels = cell_levels(cfg, stream)
    reporting = cfg.cav_terminations | (ran.kinds(stream.codes) != ran.NodeKind.CAV)

    def solve():
        view = ric.RicState(stream.codes, cfg.staleness_steps())
        report_every = cfg.steps(cfg.resolved_reporting_period())
        control_every = cfg.steps(cfg.control_period_s)
        delay_steps = math.ceil(round(cfg.control_delay_s / cfg.dt_s, 9))
        measured = iter(stream.steps)
        in_flight: list[tuple[int, ran.IndicationBatch]] = []  # (arrival step, batch)
        for step in range(cfg.n_steps()):
            if step % report_every == 0:
                in_flight.append((step + delay_steps,
                                  collect_reports(next(measured), cfg, reporting, levels)))
            if step % control_every == 0:
                while in_flight and in_flight[0][0] <= step:
                    ric.ingest(view, in_flight.pop(0)[1])
                yield ric.solve(view, step, pairs, cfg.xapp.max_hops, gammas)

    return SolveStream(cfg, stream.codes, pairs, gammas, solve())


def hold_solves(solves: SolveStream) -> SolveStream | None:
    """The solves held whole, hops and paths in a small int type, or None,
    before any is solved, when they would pass `_SOLVE_BYTES`."""
    cfg, n = solves.cfg, len(solves.codes)
    small = np.dtype(np.int16 if n <= np.iinfo(np.int16).max else np.int32)
    pair_bytes = 2 * 8 + (ric.row_width(n, cfg.xapp.max_hops) + 1) * small.itemsize
    ticks = len(range(0, cfg.n_steps(), cfg.steps(cfg.control_period_s)))
    if ticks * len(solves.pairs) * pair_bytes > _SOLVE_BYTES:
        return None
    return replace(solves, ticks=[replace(t, hops=t.hops.astype(small), paths=t.paths.astype(small))
                                  for t in solves.ticks])


def check_solves(cfg: SimConfig, solves: SolveStream) -> None:
    """Refuse solves made for another config than `cfg` at a grid threshold."""
    if cfg.xapp.snr_min_db not in solves.gammas or solves.cfg != replace(
            cfg, xapp=replace(cfg.xapp, snr_min_db=solves.cfg.xapp.snr_min_db)):
        raise ConfigurationError("the solve stream was solved for another run")
