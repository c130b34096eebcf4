"""Reference implementation of the geometric blockage test.

Used by the channel tests as an oracle for `channel._segments_blocked`: every
(segment, box) pair is screened at once through `(segments, boxes, 3)`
boolean temporaries, own bodies are masked out of that dense grid, and the
slab test runs on `(pairs, 3)` parameter arrays reduced across the axes.
"""

from __future__ import annotations

import numpy as np


def reference_segments_blocked(p0, p1, lo, hi, exclude_a=None, exclude_b=None) -> np.ndarray:
    """True per segment when it crosses the open interior of any box.

    Strict slab test: contact with a face, edge, or corner does not block.
    exclude_a/exclude_b give, per segment, a box index to ignore (-1 = none).
    Only (segment, box) pairs whose bounding boxes overlap in the open sense
    on every axis reach the slab test.
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
