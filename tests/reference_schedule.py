"""Float-time reference for the run loop's schedule.

The engine decides each step by whole `dt_s` step counts. This is the rule
it replaced, kept as an oracle: a cadence fires when the step's time is a
multiple of its period to within dt/2, and a report taken at t arrives at
round(t + control_delay_s, 9), to be ingested by the first control tick at
or after its arrival, with 1e-9 s of slack.
"""

from __future__ import annotations


def report_due(t: float, period_s: float, dt: float) -> bool:
    """True when t is a multiple of the period to within dt/2."""
    nearest = round(t / period_s) * period_s
    return abs(t - nearest) < 0.5 * dt


def schedule(duration_s: float, dt_s: float, control_period_s: float,
             reporting_period_s: float, control_delay_s: float) -> list[tuple[str, float]]:
    """A run's report, ingest and tick events in order: ("report", t) when a
    batch is taken at t, ("ingest", t of the batch) when the controller takes
    it in, ("tick", t) for each control tick."""
    events: list[tuple[str, float]] = []
    in_flight: list[tuple[float, float]] = []  # (arrival, t taken)
    for step in range(round(duration_s / dt_s)):
        t = round(step * dt_s, 9)
        if report_due(t, reporting_period_s, dt_s):
            in_flight.append((round(t + control_delay_s, 9), t))
            events.append(("report", t))
        if report_due(t, control_period_s, dt_s):
            while in_flight and in_flight[0][0] <= t + 1e-9:
                events.append(("ingest", in_flight.pop(0)[1]))
            events.append(("tick", t))
    return events
