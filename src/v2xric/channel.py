"""mmWave V2X link model: street-canyon pathloss, blockage geometry, seeded outages.

Units: meters, GHz, dB/dBm, seconds. Pathloss follows the 3GPP TR 38.901
UMi street-canyon forms (LOS below the breakpoint distance; NLOS as the
max of the LOS curve and the canyon NLOS curve). A link that the world
stream puts in outage by the stochastic (Bernoulli) draw `outage_uniform` is
a deep fade for that report instant: the sample keeps the exact dB identity
snr = eirp - pathloss - noise_floor by carrying the sentinel outage
pathloss, which sits far below any admissible SNR threshold, so an outage
can never become a graph edge: with the validated ranges (eirp at most 60
dBm, bandwidth at least 1 Hz, noise figure at least 0 dB) an outage's SNR is
at most 60 - 1000 + 174 = -766 dB, under the lowest threshold the controller
accepts, -300 dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MeasurementError, check_keys, config_key

THERMAL_NOISE_DBM_PER_HZ = -174.0
MIN_MODEL_DISTANCE_M = 1.0  # below this the curves are clamped to 1 m

# Pathloss assigned to a stochastically blocked sample. Finite (so SNR stays a
# number), yet deep enough that eirp - OUTAGE_PATHLOSS_DB - noise_floor lies
# below every admissible threshold for all valid parameter ranges: at most
# -766 dB, as the domain of `ChannelParams.bandwidth_hz` starts at 1 Hz.
OUTAGE_PATHLOSS_DB = 1000.0

BLOCKAGE_MODES = ("geometric", "stochastic", "combined")

_MASK64 = (1 << 64) - 1
_PHI64 = 0x9E3779B97F4A7C15
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB


@dataclass(slots=True)
class ChannelParams:
    """Link-budget and blockage knobs shared by every measurement."""

    carrier_ghz: float = config_key(28.0, "[0.5, 100]")
    eirp_dbm: float = config_key(23.0, "[-30, 60]")
    bandwidth_hz: float = config_key(100e6, "[1, inf)")
    noise_figure_db: float = config_key(9.0, "[0, 30]")
    p_b: float = config_key(0.0, "[0, 1]")
    blockage_mode: str = config_key("combined", BLOCKAGE_MODES)

    def validate(self) -> "ChannelParams":
        check_keys(self)
        return self


@dataclass(slots=True)
class LinkTable:
    """One instant's links, unordered pairs i < j: geometry only, no outage."""

    i: np.ndarray
    j: np.ndarray
    distance_m: np.ndarray
    los: np.ndarray
    pathloss_db: np.ndarray
    snr_db: np.ndarray


def noise_floor(params: ChannelParams) -> float:
    """Receiver noise power in dBm: thermal density over bandwidth plus noise figure."""
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(params.bandwidth_hz) + params.noise_figure_db


def link_snr_db(params: ChannelParams, pathloss_db):
    """The dB identity every sample keeps: eirp - pathloss - noise floor."""
    return params.eirp_dbm - pathloss_db - noise_floor(params)


def pathloss_los(distance_m, carrier_ghz):
    """LOS street-canyon pathloss in dB; distances below 1 m evaluate as 1 m."""
    d = np.maximum(np.asarray(distance_m, dtype=np.float64), MIN_MODEL_DISTANCE_M)
    out = 32.4 + 21.0 * np.log10(d) + 20.0 * np.log10(np.asarray(carrier_ghz, dtype=np.float64))
    return float(out) if np.ndim(out) == 0 else out


def pathloss_nlos(distance_m, carrier_ghz, h_ut_m=1.6):
    """NLOS street-canyon pathloss in dB, lower-bounded by the LOS curve.

    h_ut_m is the street-level terminal antenna height; link sampling passes
    the lower of the two endpoint heights so the value is reciprocal.
    """
    d = np.maximum(np.asarray(distance_m, dtype=np.float64), MIN_MODEL_DISTANCE_M)
    fc = np.asarray(carrier_ghz, dtype=np.float64)
    canyon = (
        22.4
        + 35.3 * np.log10(d)
        + 21.3 * np.log10(fc)
        - 0.3 * (np.asarray(h_ut_m, dtype=np.float64) - 1.5)
    )
    out = np.maximum(pathloss_los(d, fc), canyon)
    return float(out) if np.ndim(out) == 0 else out


# --- deterministic per-(seed, link, instant) outage draws ---------------------

def _mix64_u64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_C1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_C2)
    return z ^ (z >> np.uint64(31))


def _link_uniform_u64(seed: int, code_a: np.ndarray, code_b: np.ndarray, tick_ms: int) -> np.ndarray:
    """Uniform [0, 1) per link from a splitmix64-style avalanche of (seed,
    canonical node codes code_a <= code_b, instant in ms). The draw is a pure
    function of that triple, so the outage set `u < p_b` is reproducible and
    grows monotonically with p_b."""
    h0 = _mix64_u64(np.array([(seed ^ _PHI64) & _MASK64], dtype=np.uint64))
    # injective while every code is below 2^22, as `ran.node_codes` keeps them
    h = _mix64_u64(h0 ^ ((code_a.astype(np.uint64) << np.uint64(22)) | code_b.astype(np.uint64)))
    h = _mix64_u64(h ^ np.uint64(tick_ms & _MASK64))
    return (h >> np.uint64(11)) * 2.0 ** -53


def _tick_ms(t: float) -> int:
    return int(round(t * 1000.0))


def outage_uniform(codes: np.ndarray, i: np.ndarray, j: np.ndarray, t: float,
                   seed: int) -> np.ndarray:
    """The outage uniform u of each link i-j at instant t, keyed on its node
    codes in canonical order: the link is in outage at p_b where u < p_b."""
    codes = np.asarray(codes, dtype=np.uint64)
    a, b = codes[i], codes[j]
    return _link_uniform_u64(int(seed), np.minimum(a, b), np.maximum(a, b), _tick_ms(t))


# --- blockage geometry --------------------------------------------------------

def _segments_blocked(p0, p1, lo, hi, exclude_a, exclude_b) -> np.ndarray:
    """True per segment when it crosses the open interior of any box.

    Strict slab test: contact with a face, edge, or corner does not block,
    so a ray grazing the roof line of an equal-height car stays LOS.
    exclude_a/exclude_b give, per segment, a box index to ignore (-1 = none):
    the endpoints' own vehicle bodies.

    Only (segment, box) pairs whose bounding boxes overlap in the open sense
    on every axis reach the slab test. The prefilter is exact: a segment
    whose extent stays on one side of a slab yields slab parameters that the
    test itself rejects, since rounding preserves the order of both the
    differences and their quotient against 1. Boxes with top at or below the
    lowest segment end, or base at or above the highest, go first: every
    segment's height range lies within those bounds, so none can overlap such
    a box (with equal antenna heights, every equal-height car). A surviving
    segment that does not move along an axis lies strictly inside that slab,
    so its quotients there are infinities (never 0/0) that bound nothing.

    The screen is box-major, (kept boxes, segments): numpy's inner loops run
    over the many segments, not the few kept boxes, and the candidates come
    out box by box, which is harmless as blocking is set per segment.
    `link_table` passes p0 and p1 as (L, 3) views of axis-major arrays, so
    every per-axis read `p0[:, a]` is contiguous.
    """
    blocked = np.zeros(len(p0), dtype=bool)
    if len(p0) == 0:
        return blocked
    seg_lo, seg_hi = np.minimum(p0, p1), np.maximum(p0, p1)
    keep = np.nonzero((hi[:, 2] > seg_lo[:, 2].min()) & (lo[:, 2] < seg_hi[:, 2].max()))[0]
    near = np.ones((len(keep), len(p0)), dtype=bool)
    scratch = np.empty_like(near)
    for a in range(3):
        near &= np.greater.outer(hi[keep, a], seg_lo[:, a], out=scratch)
        near &= np.less.outer(lo[keep, a], seg_hi[:, a], out=scratch)
    box, seg = np.divmod(np.flatnonzero(near), len(p0))
    box = keep[box]
    other = (box != exclude_a[seg]) & (box != exclude_b[seg])
    seg, box = seg[other], box[other]
    tmin, tmax = np.zeros(len(seg)), np.ones(len(seg))
    with np.errstate(divide="ignore", invalid="raise"):
        for a in range(3):
            start = p0[:, a][seg]
            d = p1[:, a][seg] - start
            t0 = (lo[:, a][box] - start) / d
            t1 = (hi[:, a][box] - start) / d
            np.maximum(tmin, np.minimum(t0, t1), out=tmin)
            np.minimum(tmax, np.maximum(t0, t1), out=tmax)
    blocked[seg[tmax > tmin]] = True
    return blocked


# --- link sampling ------------------------------------------------------------

def link_table(params: ChannelParams, xyz: np.ndarray, body: np.ndarray,
               boxes: tuple[np.ndarray, np.ndarray], max_range: float | None = None, pairs=None,
               min_snr_db: float | None = None) -> LinkTable:
    """Measure endpoint pairs: all unordered pairs by default, or an explicit
    (i_indices, j_indices) selection via `pairs`.

    Endpoints come as columns: `xyz`, the (n, 3) antenna points, and `body`,
    the row in `boxes` of each endpoint's own vehicle body, or -1. `boxes` is
    the blockers' (lo, hi) corners, (m, 3) each. This is the single
    measurement path: per-node reports, single links and neighbour ranges
    (`max_range`, boundary inclusive) all come from it. Every quantity is
    orientation-free, so explicit pairs may come in either order. Outages
    are the world stream's (`streams.sense`); `params.p_b` is not read.

    `min_snr_db` is a report floor: after the range cut it drops every pair
    whose LOS SNR lies below it, before the blockage test and the NLOS
    curve. It is exact for any filter on the final SNR at or above the
    floor. A kept pair's SNR is the one the unfloored table gives, and a
    dropped pair's could only have been lower: the LOS SNR is the final
    SNR's own float expression, and NLOS pathloss is at least LOS pathloss.
    """
    pos = np.asarray(xyz, dtype=np.float64)
    ends = pos.T.copy()  # axis-major: one contiguous row per axis, gathered per axis
    x, y, z = ends
    if pairs is None:
        iu, ju = np.triu_indices(len(pos), k=1)
    else:
        iu = np.asarray(pairs[0], dtype=np.int64)
        ju = np.asarray(pairs[1], dtype=np.int64)
    dx, dy, dz = x[iu] - x[ju], y[iu] - y[ju], z[iu] - z[ju]
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    if bool((dist == 0.0).any()):
        raise MeasurementError("coincident antenna positions")
    if max_range is not None:
        m = dist <= max_range
        iu, ju, dist = iu[m], ju[m], dist[m]
    pl_los = pathloss_los(dist, params.carrier_ghz)
    if min_snr_db is not None:
        m = link_snr_db(params, pl_los) >= min_snr_db
        iu, ju, dist, pl_los = iu[m], ju[m], dist[m], pl_los[m]

    if params.blockage_mode in ("geometric", "combined"):
        body = np.asarray(body, dtype=np.int64)
        los = ~_segments_blocked(ends.take(iu, axis=1).T, ends.take(ju, axis=1).T, *boxes,
                                 body[iu], body[ju])
    else:
        los = np.ones(len(iu), dtype=bool)

    h_ut = np.minimum(z[iu], z[ju])
    pl = np.where(los, pl_los, pathloss_nlos(dist, params.carrier_ghz, h_ut))
    return LinkTable(i=iu, j=ju, distance_m=dist, los=los, pathloss_db=pl,
                     snr_db=link_snr_db(params, pl))
