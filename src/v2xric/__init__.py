"""Discrete-time simulator of controller-assisted vehicular relaying.

A four-arm urban intersection carries seeded traffic between street-canyon
buildings; every vehicle and roadside unit measures its mmWave links and
reports them to a central controller, whose relay-assignment application
computes hop-bounded maximum-bottleneck-SNR paths and pushes forwarding
state back to the nodes. The engine scores network connectivity under
minimum-SNR constraints and sweeps it against the SNR threshold and the
per-link blockage probability.
"""

__version__ = "0.1.0"

from .channel import (ChannelParams, LinkTable, link_table, noise_floor, pathloss_los,
                      pathloss_nlos)
from .engine import (AuditSummary, MetricsRecord, RunOutput, SimConfig, SummaryRow,
                     SweepResult, SweepSpec, WorldConfig, run, run_with_audit, sweep_blockage,
                     sweep_snr, time_average)
from .errors import ConfigurationError, MeasurementError
from .ran import (ControlBatch, IndicationBatch, NodeKind, World, apply_control,
                  emit_indication, forwarding_table)
from .ric import (RicState, XAppConfig, XAppDiagnostics, XAppState, build_graph, ingest,
                  xapp_tick)
from .scenario import (Fleet, MobilityState, RoadLayout, TrafficConfig, build_intersection,
                       default_rsus, spawn_vehicles, step_mobility)

__all__ = [
    "__version__",
    "ChannelParams", "LinkTable", "link_table", "noise_floor", "pathloss_los",
    "pathloss_nlos",
    "AuditSummary", "MetricsRecord", "RunOutput", "SimConfig", "SummaryRow",
    "SweepResult", "SweepSpec", "WorldConfig", "run", "run_with_audit", "sweep_blockage",
    "sweep_snr", "time_average",
    "ConfigurationError", "MeasurementError",
    "ControlBatch", "IndicationBatch", "NodeKind", "World", "apply_control",
    "emit_indication", "forwarding_table",
    "RicState", "XAppConfig", "XAppDiagnostics", "XAppState", "build_graph", "ingest",
    "xapp_tick",
    "Fleet", "MobilityState", "RoadLayout", "TrafficConfig", "build_intersection",
    "default_rsus", "spawn_vehicles", "step_mobility",
]
