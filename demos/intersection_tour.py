"""Tour of the simulated intersection: geometry, roadside units, traffic.

Builds the default four-arm urban intersection, spawns a seeded traffic
snapshot, and walks one vehicle through the junction so the lane-following
and turning behaviour is visible tick by tick.
"""

import numpy as np

from v2xric.scenario import (MobilityState, TrafficConfig, build_intersection,
                             default_rsus, spawn_vehicles, step_mobility)


def main():
    layout = build_intersection(arm_length_m=200.0, road_width_m=14.0)
    print("intersection layout")
    print(f"  arm length      : {layout.arm_length_m:.0f} m")
    print(f"  road width      : {layout.road_width_m:.0f} m")
    print(f"  lane offset     : {layout.lane_offset_m:.1f} m from centerline")
    print(f"  total road      : {layout.total_road_length_m():.0f} m")
    print(f"  building corners: {layout.corner_points()}")
    print(f"  building height : {layout.buildings[0].height:.0f} m")
    print()

    print("roadside units (corner masts)")
    for rsu in default_rsus(layout):
        x, y = rsu.position
        print(f"  RSU-{rsu.rid}: x={x:+.1f} y={y:+.1f} mast={rsu.mast_height_m:.1f} m")
    print()

    cfg = TrafficConfig(density_veh_km=50.0, seed=7)
    fleet = spawn_vehicles(layout, cfg)
    tall = int(np.count_nonzero(fleet.extent[:, 2] > 2.0))
    print(f"seeded traffic snapshot (seed {cfg.seed})")
    print(f"  vehicles spawned: {len(fleet)} "
          f"(expected about {cfg.density_veh_km * layout.total_road_length_m() / 1000:.0f})")
    print(f"  tall vehicles   : {tall}")
    print()

    # Follow a vehicle that is about to reach the junction, with turning
    # forced on, so the lane change is visible in the trace.
    state = MobilityState.from_seed(cfg.seed, turn_probability=1.0)

    # the travel coordinate is the signed distance along the lane; negative = approaching
    approaching = np.nonzero((-60.0 < fleet.c) & (fleet.c < -15.0))[0]
    probe = int(approaching[np.argmax(fleet.c[approaching])])
    print(f"following CAV-{probe} (turn probability forced to 1)")
    dt = 0.5
    for k in range(12):
        t = k * dt
        x, y = fleet.xy()[probe]
        d = fleet.direction[probe]
        hx, hy = (d, 0.0) if fleet.axis[probe] == 0 else (0.0, d)
        print(f"  t={t:4.1f}s  pos=({x:+7.2f}, {y:+7.2f})  heading=({hx:+.0f}, {hy:+.0f})")
        step_mobility(fleet, layout, dt, state)


if __name__ == "__main__":
    main()
