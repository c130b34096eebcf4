"""Per-node reference for the report path: one report object per reporter.

Used by the controller and RAN tests as an oracle for the batched
`ran.emit_indication` and the slot-indexed `ric.RicState`/`ric.ingest`: each
node's report is its own object, capped on its own, and the controller keeps
the latest one per node in a dict, written with none of the production code's
columns or matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from reference_ids import NodeId


@dataclass(frozen=True, slots=True)
class IndicationReport:
    """One node's link measurements at instant t, as columns: the measured
    neighbours' NodeId codes (int64, ascending) and each link's SNR in dB."""

    source: NodeId
    t: float
    neighbors: np.ndarray
    snr_db: np.ndarray


@dataclass(slots=True)
class RicState:
    """Latest report per node plus the freshness rule used to trust them."""

    staleness_window_s: float = 0.25
    latest_report: dict[NodeId, IndicationReport] = field(default_factory=dict)
    rejected_out_of_order: int = 0


def emit_indication(node: NodeId, neighbors, snr_db, t: float,
                    cap: int | None) -> IndicationReport:
    """Build one node's report from neighbour codes in ascending order and
    their link SNRs. Reports larger than the cap keep the strongest links
    (ties broken by the smaller neighbour), still in neighbour order; a cap
    of None keeps them all."""
    neighbors = np.asarray(neighbors, dtype=np.int64)
    snr_db = np.asarray(snr_db, dtype=np.float64)
    if cap is not None and len(neighbors) > cap:
        kept = np.sort(np.lexsort((neighbors, -snr_db))[:cap])
        neighbors, snr_db = neighbors[kept], snr_db[kept]
    return IndicationReport(source=node, t=t, neighbors=neighbors, snr_db=snr_db)


def ingest(state: RicState, report: IndicationReport) -> RicState:
    """Store the report unless a newer one is already held; an equally new
    report replaces the held one."""
    held = state.latest_report.get(report.source)
    if held is not None and report.t < held.t:
        state.rejected_out_of_order += 1
        return state
    state.latest_report[report.source] = report
    return state


def reports_of(batch, t: float) -> list[IndicationReport]:
    """The batch split into one report per reporter, neighbours ascending, as
    taken at instant t."""
    reports = []
    for code in batch.reporters.tolist():
        mine = np.nonzero(batch.source == code)[0]
        mine = mine[np.argsort(batch.neighbor[mine], kind="stable")]
        reports.append(IndicationReport(source=NodeId.from_code(code), t=t,
                                        neighbors=batch.neighbor[mine],
                                        snr_db=batch.snr_db[mine]))
    return reports
