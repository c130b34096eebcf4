"""World streams: one world measured once per report step for many runs.

Control never feeds back into motion and each outage draw is a stateless
hash of (seed, link, time), so a sweep's geometry, mobility and outage
uniforms depend on the replication seed alone. A world stream measures each
report step once, at the smallest threshold of the sweep's grid and with no
outage, and every cell of that replication cuts its own reports from it: the
links at or above its threshold, an outage where the uniform lies below its
p_b. Each cut is bit for bit the report batch of the cell's own floored
`link_table` call.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace

import numpy as np

from . import channel, ran
from .errors import ConfigurationError
from .scenario import MobilityState

# `SimConfig` in the annotations is `engine.SimConfig`, left unimported
# because the engine imports this module.

# Bytes of measurements one replication's held world stream may take; past
# them every cell of that replication measures its own world, as a run does.
_STREAM_BYTES = 2**26


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
    """The stream held whole, its endpoints as int32, or None once it
    passes `_STREAM_BYTES`."""
    held, size = [], 0
    for m in stream.steps:
        m = replace(m, i=m.i.astype(np.int32), j=m.j.astype(np.int32))
        size += sum(a.nbytes for a in (m.i, m.j, m.snr_db, m.floor, m.outage) if a is not None)
        if size > _STREAM_BYTES:
            return None
        held.append(m)
    return replace(stream, steps=held)


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
