"""mmWave V2X link model: street-canyon pathloss, blockage geometry, seeded outages.

Units: meters, GHz, dB/dBm, seconds. Pathloss follows the 3GPP TR 38.901
UMi street-canyon forms (LOS below the breakpoint distance; NLOS as the
max of the LOS curve and the canyon NLOS curve). A link that is blocked by
the stochastic (Bernoulli) mechanism is a deep-fade outage for that report
instant: the sample keeps the exact dB identity snr = eirp - pathloss -
noise_floor by carrying the sentinel outage pathloss, which sits far below
any admissible SNR threshold, so an outage can never become a graph edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, MeasurementError

THERMAL_NOISE_DBM_PER_HZ = -174.0
MIN_MODEL_DISTANCE_M = 1.0  # below this the curves are clamped to 1 m

# Pathloss assigned to a stochastically blocked sample. Finite (so SNR stays a
# number), yet deep enough that eirp - OUTAGE_PATHLOSS_DB - noise_floor lies
# below every admissible threshold for all valid parameter ranges.
OUTAGE_PATHLOSS_DB = 1000.0

BLOCKAGE_MODES = ("geometric", "stochastic", "combined")

_MASK64 = (1 << 64) - 1
_PHI64 = 0x9E3779B97F4A7C15
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB


@dataclass(slots=True)
class ChannelParams:
    """Link-budget and blockage knobs shared by every measurement."""

    carrier_ghz: float = 28.0
    eirp_dbm: float = 23.0
    bandwidth_hz: float = 100e6
    noise_figure_db: float = 9.0
    p_b: float = 0.0
    blockage_mode: str = "combined"

    def validate(self) -> "ChannelParams":
        if not (0.5 <= self.carrier_ghz <= 100.0):
            raise ConfigurationError(f"carrier_ghz out of range [0.5, 100]: {self.carrier_ghz}")
        if not (-30.0 <= self.eirp_dbm <= 60.0):
            raise ConfigurationError(f"eirp_dbm out of range [-30, 60]: {self.eirp_dbm}")
        if not (self.bandwidth_hz > 0 and math.isfinite(self.bandwidth_hz)):
            raise ConfigurationError(f"bandwidth_hz must be positive: {self.bandwidth_hz}")
        if not (0.0 <= self.noise_figure_db <= 30.0):
            raise ConfigurationError(f"noise_figure_db out of range [0, 30]: {self.noise_figure_db}")
        if not (0.0 <= self.p_b <= 1.0):
            raise ConfigurationError(f"p_b out of range [0, 1]: {self.p_b}")
        if self.blockage_mode not in BLOCKAGE_MODES:
            raise ConfigurationError(f"blockage_mode must be one of {BLOCKAGE_MODES}: {self.blockage_mode}")
        return self


@dataclass(slots=True)
class Antenna:
    """One radio endpoint: its node id, 3D antenna point, and (for vehicles)
    the index of the vehicle whose body box belongs to it."""

    node: object
    xyz: tuple[float, float, float]
    vehicle_index: int | None = None


@dataclass(slots=True)
class LinkSample:
    """One directed link measurement at a report instant."""

    tx: object
    rx: object
    distance_m: float
    los: bool
    pathloss_db: float
    snr_db: float
    t: float


@dataclass(slots=True)
class LinkTable:
    """Columnar link measurements for one instant, unordered pairs i < j."""

    i: np.ndarray
    j: np.ndarray
    distance_m: np.ndarray
    los: np.ndarray
    pathloss_db: np.ndarray
    snr_db: np.ndarray
    t: float


def noise_floor(params: ChannelParams) -> float:
    """Receiver noise power in dBm: thermal density over bandwidth plus noise figure."""
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(params.bandwidth_hz) + params.noise_figure_db


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
    out = np.maximum(32.4 + 21.0 * np.log10(d) + 20.0 * np.log10(fc), canyon)
    return float(out) if np.ndim(out) == 0 else out


# --- deterministic per-(seed, link, instant) outage draws ---------------------

def _mix64_int(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX_C1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_C2) & _MASK64
    return z ^ (z >> 31)


def _mix64_u64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_C1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_C2)
    return z ^ (z >> np.uint64(31))


def _link_uniform_u64(seed: int, code_a: np.ndarray, code_b: np.ndarray, tick_ms: int) -> np.ndarray:
    """Uniform [0, 1) per link from a splitmix64-style avalanche of (seed,
    canonical node codes code_a <= code_b, instant in ms). The draw is a pure
    function of that triple, so the outage set `u < p_b` is reproducible and
    grows monotonically with p_b."""
    h0 = np.uint64(_mix64_int((seed ^ _PHI64) & _MASK64))
    h = _mix64_u64(h0 ^ ((code_a.astype(np.uint64) << np.uint64(22)) | code_b.astype(np.uint64)))
    h = _mix64_u64(h ^ np.uint64(tick_ms & _MASK64))
    return (h >> np.uint64(11)) * 2.0 ** -53


def _tick_ms(t: float) -> int:
    return int(round(t * 1000.0))


# --- blockage geometry --------------------------------------------------------

def _blocker_boxes(layout, vehicles) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned boxes: one per vehicle body, then one per building."""
    n = len(vehicles)
    m = len(layout.buildings)
    lo = np.empty((n + m, 3), dtype=np.float64)
    hi = np.empty((n + m, 3), dtype=np.float64)
    for k, v in enumerate(vehicles):
        hx, hy = v.heading
        length, width, height = v.extent
        half_x = 0.5 * (length if abs(hx) >= abs(hy) else width)
        half_y = 0.5 * (width if abs(hx) >= abs(hy) else length)
        x, y = v.position
        lo[k] = (x - half_x, y - half_y, 0.0)
        hi[k] = (x + half_x, y + half_y, height)
    for k, b in enumerate(layout.buildings):
        lo[n + k] = (b.x0, b.y0, 0.0)
        hi[n + k] = (b.x1, b.y1, b.height)
    return lo, hi


def _segments_blocked(p0, p1, lo, hi, exclude_a=None, exclude_b=None) -> np.ndarray:
    """True per segment when it crosses the open interior of any box.

    Strict slab test: contact with a face, edge, or corner does not block,
    so a ray grazing the roof line of an equal-height car stays LOS.
    exclude_a/exclude_b give, per segment, a box index to ignore (-1 = none):
    the endpoints' own vehicle bodies.

    Only (segment, box) pairs whose bounding boxes overlap in the open sense
    on every axis reach the slab test. The prefilter is exact: a segment
    whose extent stays on one side of a slab yields slab parameters that the
    test itself rejects, since rounding preserves the order of both the
    differences and their quotient against 1.
    """
    blocked = np.zeros(len(p0), dtype=bool)
    if len(lo) == 0:
        return blocked
    seg_lo = np.minimum(p0, p1)
    seg_hi = np.maximum(p0, p1)
    near = ((seg_lo[:, None, :] < hi[None, :, :]) & (seg_hi[:, None, :] > lo[None, :, :])).all(axis=2)
    if exclude_a is not None:
        rows = np.arange(len(p0))
        mask = exclude_a >= 0
        near[rows[mask], exclude_a[mask]] = False
        mask = exclude_b >= 0
        near[rows[mask], exclude_b[mask]] = False
    seg, box = np.nonzero(near)
    seg0 = p0[seg]
    d = p1[seg] - seg0
    blo = lo[box]
    bhi = hi[box]
    zero = d == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (blo - seg0) / d
        t1 = (bhi - seg0) / d
    tlo = np.minimum(t0, t1)
    thi = np.maximum(t0, t1)
    inside = (seg0 > blo) & (seg0 < bhi)
    tlo = np.where(zero, np.where(inside, -np.inf, np.inf), tlo)
    thi = np.where(zero, np.where(inside, np.inf, -np.inf), thi)
    tmin = np.maximum(tlo.max(axis=1), 0.0)
    tmax = np.minimum(thi.min(axis=1), 1.0)
    blocked[seg[tmax > tmin]] = True
    return blocked


# --- link sampling ------------------------------------------------------------

def link_table(params: ChannelParams, layout, vehicles, antennas, t: float, seed: int,
               max_range: float | None = None, pairs=None) -> LinkTable:
    """Measure antenna pairs at instant t: all unordered pairs by default, or an
    explicit (i_indices, j_indices) selection via `pairs`.

    This is the single measurement path: per-node reports, single links and
    neighbour ranges (`max_range`, boundary inclusive) all come from it. Every
    quantity is orientation-free, so explicit pairs may come in either order.
    """
    n = len(antennas)
    pos = np.asarray([a.xyz for a in antennas], dtype=np.float64)
    if pairs is None:
        iu, ju = np.triu_indices(n, k=1)
    else:
        iu = np.asarray(pairs[0], dtype=np.int64)
        ju = np.asarray(pairs[1], dtype=np.int64)
    diff = pos[iu] - pos[ju]
    dist = np.sqrt((diff * diff).sum(axis=1))
    if bool((dist == 0.0).any()):
        raise MeasurementError("coincident antenna positions")
    if max_range is not None:
        m = dist <= max_range
        iu, ju, dist = iu[m], ju[m], dist[m]

    mode = params.blockage_mode
    if mode in ("geometric", "combined"):
        lo, hi = _blocker_boxes(layout, vehicles)
        vidx = np.asarray(
            [-1 if a.vehicle_index is None else a.vehicle_index for a in antennas],
            dtype=np.int64,
        )
        clear = ~_segments_blocked(pos[iu], pos[ju], lo, hi, vidx[iu], vidx[ju])
    else:
        clear = np.ones(len(iu), dtype=bool)

    if mode in ("stochastic", "combined") and params.p_b > 0.0:
        codes = np.asarray([a.node.code for a in antennas], dtype=np.uint64)
        ca = np.minimum(codes[iu], codes[ju])
        cb = np.maximum(codes[iu], codes[ju])
        outage = _link_uniform_u64(int(seed), ca, cb, _tick_ms(t)) < params.p_b
    else:
        outage = np.zeros(len(iu), dtype=bool)

    h_ut = np.minimum(pos[iu, 2], pos[ju, 2])
    pl = np.where(
        clear,
        pathloss_los(dist, params.carrier_ghz),
        pathloss_nlos(dist, params.carrier_ghz, h_ut),
    )
    los = clear & ~outage
    pl = np.where(outage, OUTAGE_PATHLOSS_DB, pl)
    snr = params.eirp_dbm - pl - noise_floor(params)
    return LinkTable(i=iu, j=ju, distance_m=dist, los=los, pathloss_db=pl, snr_db=snr, t=t)
