"""Row-major reference of the link measurement with its outage inside.

Used by the channel and engine tests as a bit-for-bit oracle. At p_b = 0 it
is `channel.link_table`. At any p_b it is `link_table` followed by the
world stream's outage rule: `streams.sense` draws each link's
`channel.outage_uniform`, and `streams.collect_reports` gives a link whose
uniform lies below p_b the outage pathloss' SNR. Here the outage is drawn
and applied inside the one measurement, as the measurement did before the
world stream took it over. Endpoints stay (n, 3) rows: every distance and
segment argument is a row gather `pos[iu]`, and the blockage overlap screen
runs on a segment-major `(segments, kept boxes)` grid. The pathloss curves,
the outage hash and the noise floor are the channel module's own, so only
the data layout and the place of the outage differ from the code under
test.
"""

from __future__ import annotations

import numpy as np

from v2xric.channel import (OUTAGE_PATHLOSS_DB, LinkTable, _link_uniform_u64, _tick_ms,
                            noise_floor, pathloss_los, pathloss_nlos)
from v2xric.errors import MeasurementError


def segments_blocked(p0, p1, lo, hi, exclude_a, exclude_b) -> np.ndarray:
    """True per segment when it crosses the open interior of any box, with
    the (segment, box) screen laid out segment-major."""
    blocked = np.zeros(len(p0), dtype=bool)
    if len(p0) == 0:
        return blocked
    seg_lo, seg_hi = np.minimum(p0, p1), np.maximum(p0, p1)
    keep = np.nonzero((hi[:, 2] > seg_lo[:, 2].min()) & (lo[:, 2] < seg_hi[:, 2].max()))[0]
    near = np.ones((len(p0), len(keep)), dtype=bool)
    scratch = np.empty_like(near)
    for a in range(3):
        near &= np.less.outer(seg_lo[:, a], hi[keep, a], out=scratch)
        near &= np.greater.outer(seg_hi[:, a], lo[keep, a], out=scratch)
    seg, box = np.nonzero(near)
    box = keep[box]
    other = (box != exclude_a[seg]) & (box != exclude_b[seg])
    seg, box = seg[other], box[other]
    tmin, tmax = np.zeros(len(seg)), np.ones(len(seg))
    with np.errstate(divide="ignore", invalid="raise"):
        for a in range(3):
            start = p0[seg, a]
            d = p1[seg, a] - start
            t0 = (lo[box, a] - start) / d
            t1 = (hi[box, a] - start) / d
            np.maximum(tmin, np.minimum(t0, t1), out=tmin)
            np.minimum(tmax, np.maximum(t0, t1), out=tmax)
    blocked[seg[tmax > tmin]] = True
    return blocked


def reference_link_table(params, xyz, codes, body, boxes, t, seed, max_range=None, pairs=None,
                         min_snr_db=None) -> LinkTable:
    """`channel.link_table` over (n, 3) endpoint rows, with the outage of
    instant t and `seed` at `params.p_b` applied: the same rows in the same
    order, and the same floats as the stream's cut."""
    pos = np.asarray(xyz, dtype=np.float64)
    if pairs is None:
        iu, ju = np.triu_indices(len(pos), k=1)
    else:
        iu = np.asarray(pairs[0], dtype=np.int64)
        ju = np.asarray(pairs[1], dtype=np.int64)
    dx, dy, dz = (pos[iu] - pos[ju]).T
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    if bool((dist == 0.0).any()):
        raise MeasurementError("coincident antenna positions")
    if max_range is not None:
        m = dist <= max_range
        iu, ju, dist = iu[m], ju[m], dist[m]
    pl_los = pathloss_los(dist, params.carrier_ghz)
    if min_snr_db is not None:
        m = params.eirp_dbm - pl_los - noise_floor(params) >= min_snr_db
        iu, ju, dist, pl_los = iu[m], ju[m], dist[m], pl_los[m]

    mode = params.blockage_mode
    if mode in ("geometric", "combined"):
        body = np.asarray(body, dtype=np.int64)
        clear = ~segments_blocked(pos[iu], pos[ju], *boxes, body[iu], body[ju])
    else:
        clear = np.ones(len(iu), dtype=bool)

    if mode in ("stochastic", "combined") and params.p_b > 0.0:
        codes = np.asarray(codes, dtype=np.uint64)
        ca = np.minimum(codes[iu], codes[ju])
        cb = np.maximum(codes[iu], codes[ju])
        outage = _link_uniform_u64(int(seed), ca, cb, _tick_ms(t)) < params.p_b
    else:
        outage = np.zeros(len(iu), dtype=bool)

    h_ut = np.minimum(pos[iu, 2], pos[ju, 2])
    pl = np.where(clear, pl_los, pathloss_nlos(dist, params.carrier_ghz, h_ut))
    los = clear & ~outage
    pl = np.where(outage, OUTAGE_PATHLOSS_DB, pl)
    snr = params.eirp_dbm - pl - noise_floor(params)
    return LinkTable(i=iu, j=ju, distance_m=dist, los=los, pathloss_db=pl, snr_db=snr)
