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
from .ran import (ControlBatch, ForwardingTable, IndicationReport, NodeId, NodeKind,
                  SubscriptionRequest, World, apply_control, emit_indication, report_due)
from .ric import (ConnectivityGraph, RelayPath, RicState, XAppConfig, XAppDiagnostics,
                  build_graph, find_path, ingest, xapp_tick)
from .scenario import (Building, Fleet, Lane, MobilityState, RoadLayout, RsuNode, TrafficConfig,
                       build_intersection, default_rsus, spawn_vehicles, step_mobility)

__all__ = [
    "__version__",
    "ChannelParams", "LinkTable", "link_table", "noise_floor", "pathloss_los",
    "pathloss_nlos",
    "AuditSummary", "MetricsRecord", "RunOutput", "SimConfig", "SummaryRow",
    "SweepResult", "SweepSpec", "WorldConfig", "run", "run_with_audit", "sweep_blockage",
    "sweep_snr", "time_average",
    "ConfigurationError", "MeasurementError",
    "ControlBatch", "ForwardingTable", "IndicationReport", "NodeId", "NodeKind",
    "SubscriptionRequest", "World", "apply_control", "emit_indication", "report_due",
    "ConnectivityGraph", "RelayPath", "RicState", "XAppConfig", "XAppDiagnostics",
    "build_graph", "find_path", "ingest", "xapp_tick",
    "Building", "Fleet", "Lane", "MobilityState", "RoadLayout", "RsuNode", "TrafficConfig",
    "build_intersection", "default_rsus", "spawn_vehicles", "step_mobility",
]
