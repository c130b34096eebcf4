"""World and solve streams: one world measured, and one controller solved,
once per step for many runs.

Control never feeds back into motion and each outage draw is a stateless
hash of (seed, link, time), so a sweep's geometry, mobility and outage
uniforms depend on the replication seed alone. A world stream measures each
report step some control tick reads once (`sense`, `schedule`), floored at
its config's threshold, with each link's outage uniform, and each p_b of
that replication cuts its reports from it (`collect_reports`): an outage
where the uniform lies below its p_b. That draw and that cut are the one
outage rule. The floor stays exact under it: an outage lies below every
floor, and each draw hashes its own link.

A solve stream is one controller solved on those reports once per control
tick at the grid's smallest threshold, a block of ticks at a time; each
threshold cell of one (replication, p_b) cuts its tick from it
(`ric.xapp_tick`). A run draws its own streams lazily; a sweep holds a
replication's whole when they fit `_HOLD_BYTES` (`need`).
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

# Bytes the held world streams and p_b solves of a sweep's processes may take
# together: a replication past it alone runs each of its cells on its own, and
# no more held replications run at once than fit it.
_HOLD_BYTES = 3 * 2**26


@dataclass(frozen=True, slots=True)
class Measurement:
    """One report step's links i < j (view slots), their SNR with no outage
    and, where some p_b can block, each link's grid level: how many p_b
    values lie at or below its outage uniform."""

    step: int
    i: np.ndarray  # (L,) ints, int32 once held
    j: np.ndarray  # (L,) ints, int32 once held
    snr_db: np.ndarray  # (L,) float64
    outage: np.ndarray | None  # (L,) unsigned levels


@dataclass(frozen=True, slots=True)
class WorldStream:
    """One replication's world for the solves of its sweep cells: the config
    it is measured from, its node codes, the sorted p_b grid it serves, and
    one `Measurement` per read report step, floored at the config's threshold."""

    cfg: SimConfig
    codes: np.ndarray
    p_bs: tuple[float, ...]
    steps: Iterable[Measurement]


def sense(world: ran.World, cfg: SimConfig, step: int, p_bs: tuple[float, ...]) -> Measurement:
    """Measure `world` at `step` from one read of the fleet. Where some p_b
    of the grid can block, each link's outage uniform is drawn, keyed on the
    step's time in s, and kept as its grid level."""
    xy = world.fleet.xy()
    tab = channel.link_table(cfg.channel, world.xyz(xy), world.body, world.boxes(xy),
                             max_range=cfg.sensing_range_m, min_snr_db=cfg.xapp.snr_min_db)
    outage = None
    if cfg.channel.blockage_mode in ("stochastic", "combined") and p_bs[-1] > 0.0:
        u = channel.outage_uniform(world.codes, tab.i, tab.j, round(step * cfg.dt_s, 9), cfg.seed)
        outage = np.searchsorted(p_bs, u, side="right").astype(np.min_scalar_type(len(p_bs)))
    return Measurement(step, tab.i, tab.j, tab.snr_db, outage)


def schedule(cfg: SimConfig) -> tuple[range, range, int]:
    """`cfg`'s read report steps, control ticks and delay in steps. A report
    taken at step s arrives at s + ⌈control_delay_s / dt_s⌉ and is read only
    if it arrives by the last control tick; no output depends on the rest."""
    ticks = range(0, cfg.n_steps(), cfg.steps(cfg.control_period_s))
    delay = math.ceil(round(cfg.control_delay_s / cfg.dt_s, 9))
    return range(0, ticks[-1] - delay + 1, cfg.steps(cfg.resolved_reporting_period())), ticks, delay


def world_stream(cfg: SimConfig, world: ran.World, p_bs, move: Callable,
                 first: list[Measurement] | None = None) -> WorldStream:
    """`cfg`'s `world` for cells on the p_b grid, measured at each read report
    step as it is read and moved after each step through the last read one by
    `move`, called as `step_mobility` is (the engine passes the one it sees);
    held whole with int32 endpoints given the `first` read step `need` took."""
    p_bs, reads = tuple(sorted(p_bs)), schedule(cfg)[0]

    def measure():
        mobility = MobilityState.from_seed(cfg.seed, cfg.traffic.turn_probability)
        taken = iter(first or ())
        for step in range(reads[-1] + 1 if reads else 0):
            reading = step in reads and (next(taken, None) or sense(world, cfg, step, p_bs))
            move(world.fleet, world.layout, cfg.dt_s, mobility)
            if reading:
                yield reading

    return WorldStream(cfg, world.codes, p_bs,
                       measure() if first is None else [*map(_compact, measure())])


def _small(n: int) -> np.dtype:
    """The int type held solves narrow hops and paths to on a view of n slots."""
    return np.dtype(np.int16 if n <= np.iinfo(np.int16).max else np.int32)


def need(cfg: SimConfig, world: ran.World, p_bs, pairs: int) -> tuple[int, list[Measurement]]:
    """The bytes `cfg`'s world stream held whole and one p_b's solves of
    `pairs` pairs take: its first read report step's size with int32
    endpoints times its read report steps, plus ticks times pairs times bytes
    a pair; and that step ([] if none), measured on `world` without moving it."""
    reads, ticks, _ = schedule(cfg)
    first = [_compact(sense(world, cfg, 0, tuple(sorted(p_bs))))] if reads else []
    size = sum(a.nbytes for m in first for a in (m.i, m.j, m.snr_db, m.outage) if a is not None)
    n = len(world.codes)
    pair_bytes = 2 * 8 + (ric.row_width(n, cfg.xapp.max_hops) + 1) * _small(n).itemsize
    return len(reads) * size + len(ticks) * pairs * pair_bytes, first


def _compact(m: Measurement) -> Measurement:
    return replace(m, i=m.i.astype(np.int32, copy=False), j=m.j.astype(np.int32, copy=False))


def cell_level(cfg: SimConfig, stream: WorldStream) -> int:
    """The grid level of the run's p_b on a stream measured from its config
    at some grid p_b."""
    p_b = cfg.channel.p_b
    if p_b not in stream.p_bs or stream.cfg != replace(
            cfg, channel=replace(cfg.channel, p_b=stream.cfg.channel.p_b)):
        raise ConfigurationError("the world stream was measured for another run")
    return stream.p_bs.index(p_b)


def collect_reports(m: Measurement, cfg: SimConfig, reporting: np.ndarray,
                    level: int) -> ran.IndicationBatch:
    """One run's reports at a measured step, both directions of each link
    from every reporting endpoint, in one batch of view slots. At p_b level
    k an outage is a uniform with at most k grid values at or below it, so
    u < p_b, and the link's SNR becomes that of the outage pathloss
    `channel.OUTAGE_PATHLOSS_DB`."""
    i, j, snr = m.i, m.j, m.snr_db
    if m.outage is not None:
        snr = np.where(m.outage <= level,
                       channel.link_snr_db(cfg.channel, channel.OUTAGE_PATHLOSS_DB), snr)
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
    """`cfg`'s controller for `pairs`, solved a block of ticks at a time as it
    is read on its reports cut from `stream` at its read report steps, each
    ingested at the first control tick at or after its arrival."""
    level = cell_level(cfg, stream)
    reporting = cfg.cav_terminations | (ran.kinds(stream.codes) != ran.NodeKind.CAV)
    reads, control, delay = schedule(cfg)

    def ticks():
        view = ric.RicState(stream.codes, cfg.staleness_steps())
        measured = iter(stream.steps)
        in_flight: list[tuple[int, ran.IndicationBatch]] = []  # (arrival step, batch)
        for step in range(cfg.n_steps()):
            if step in reads:
                in_flight.append((step + delay,
                                  collect_reports(next(measured), cfg, reporting, level)))
            if step in control:
                while in_flight and in_flight[0][0] <= step:
                    ric.ingest(view, in_flight.pop(0)[1])
                yield step, ric.build_graph(view, step, gammas[0]), view.reported_at >= 0

    return SolveStream(cfg, stream.codes, pairs, gammas,
                       ric.solve(ticks(), pairs, cfg.xapp.max_hops, gammas))


def hold_solves(solves: SolveStream) -> SolveStream:
    """The solves held whole, hops and paths narrowed as `need` counts them."""
    small = _small(len(solves.codes))
    return replace(solves, ticks=[replace(t, hops=t.hops.astype(small), paths=t.paths.astype(small))
                                  for t in solves.ticks])


def check_solves(cfg: SimConfig, solves: SolveStream) -> None:
    """Refuse solves made for another config than `cfg` at a grid threshold."""
    if cfg.xapp.snr_min_db not in solves.gammas or solves.cfg != replace(
            cfg, xapp=replace(cfg.xapp, snr_min_db=solves.cfg.xapp.snr_min_db)):
        raise ConfigurationError("the solve stream was solved for another run")
