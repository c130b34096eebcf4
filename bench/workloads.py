"""The benchmark's workloads and the generated inputs each one hands the program.

Every workload is one `v2xric` subcommand driven by a generated config file.
The benchmark seed picks the scene: candidates `seed, seed + STRIDE, ...` are
screened through the public scenario functions until one spawns exactly the
workload's vehicle count, which is the count the seed-1 scene has. Every seed
therefore measures a problem of the same size (39 vehicles means 741 served
pairs on `all-pairs`), so run-to-run spread reflects the code and the
machine, not a Poisson draw of the traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

STRIDE = 1_000_003  # distance between candidate scene seeds of one benchmark seed
MAX_CANDIDATES = 100_000
CONTROL_PERIOD_S = 0.1  # the program's default; ticks = duration / period per cell


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # v2xric subcommand
    density_veh_km: float
    vehicles: int  # scene size every seed is screened to
    duration_s: float  # simulated seconds per run
    smoke_duration_s: float
    keys: tuple[tuple[str, str], ...]  # extra config keys on top of the defaults
    cells: int = 1  # runs per command: the sweep grid size
    hooks: tuple[str, ...] = ()  # spans that must fire on this workload

    def ticks(self, smoke: bool) -> int:
        duration = self.smoke_duration_s if smoke else self.duration_s
        return round(duration / CONTROL_PERIOD_S) * self.cells

    def config_text(self, scene_seed: int, smoke: bool) -> str:
        duration = self.smoke_duration_s if smoke else self.duration_s
        lines = [
            f"# v2xric benchmark input: workload {self.name}",
            f"seed = {scene_seed}",
            f"duration_s = {duration!r}",
            "warmup_s = 0.0",
            f"density_veh_km = {self.density_veh_km!r}",
        ]
        lines.extend(f"{key} = {value}" for key, value in self.keys)
        return "\n".join(lines) + "\n"


_COMMON_HOOKS = ("scenario.step_mobility", "channel.link_table", "ran.emit_indication",
                 "ric.ingest", "ric.build_graph", "ric.xapp_tick", "engine.run_with_audit",
                 "cli.main")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            # Default config, every vehicle pair served (741 pairs): controller-
            # bound by per-pair path extraction, control fan-out and the audit.
            name="all-pairs",
            command="run",
            density_veh_km=50.0,
            vehicles=39,
            duration_s=3.0,
            smoke_duration_s=0.3,
            keys=(("metric_mode", "pairwise"), ("pair_selection", "all")),
            hooks=_COMMON_HOOKS + ("ran.apply_control",),
        ),
        Workload(
            # 200 veh/km with matched pairs: channel-bound (all-pairs link_table
            # over 176 antennas), and the only graph above ric._DENSE_LIMIT.
            name="dense",
            command="run",
            density_veh_km=200.0,
            vehicles=172,
            duration_s=0.2,
            smoke_duration_s=0.2,
            keys=(("metric_mode", "per-vehicle"), ("pair_selection", "matched")),
            hooks=_COMMON_HOOKS,
        ),
        Workload(
            # The experiment sweep: outage draws active for p_b > 0, the same
            # geometry recomputed in all 10 cells, per-cell CSVs and manifests.
            name="blockage-grid",
            command="sweep-blockage",
            density_veh_km=50.0,
            vehicles=39,
            duration_s=1.5,
            smoke_duration_s=0.3,
            keys=(("metric_mode", "per-vehicle"), ("pair_selection", "matched"),
                  ("gamma_min_values", "5.0,15.0"),
                  ("p_b_values", "0.0,0.25,0.5,0.75,1.0"),
                  ("replications", "1"), ("workers", "1")),
            cells=10,
            hooks=_COMMON_HOOKS,
        ),
    )
}


def scene_seed(workload: Workload, bench_seed: int) -> int:
    """The first candidate seed whose spawned scene has the workload's size."""
    from v2xric.engine import WorldConfig
    from v2xric.scenario import TrafficConfig, build_intersection, spawn_vehicles

    world = WorldConfig()
    layout = build_intersection(world.arm_length_m, world.road_width_m,
                                world.building_setback_m, world.building_height_m)
    for k in range(MAX_CANDIDATES):
        candidate = (bench_seed + k * STRIDE) % 2**63
        traffic = TrafficConfig(density_veh_km=workload.density_veh_km, seed=candidate)
        if len(spawn_vehicles(layout, traffic)) == workload.vehicles:
            return candidate
    raise RuntimeError(f"no scene with {workload.vehicles} vehicles among "
                       f"{MAX_CANDIDATES} candidates of seed {bench_seed}")
