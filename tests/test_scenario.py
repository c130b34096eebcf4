"""Scene tests: intersection geometry, seeded spawning, lane-following mobility."""

import numpy as np
import pytest

import reference_mobility
from reference_mobility import VehicleState, fleet_of, vehicles_of
from v2xric import (ConfigurationError, Fleet, MobilityState, TrafficConfig, World,
                    build_intersection, default_rsus, spawn_vehicles, step_mobility)
from v2xric.scenario import CAR_EXTENT, TALL_EXTENT


def default_layout():
    return build_intersection(200.0, 14.0, building_setback_m=2.0)


def vehicle_at(x, y, heading, speed=14.0):
    """A one-vehicle fleet."""
    return fleet_of([VehicleState(vid=0, position=(x, y), heading=heading,
                                  speed_mps=speed, extent=CAR_EXTENT)])


def stepped(fleet, layout, dt, state):
    """The fleet's vehicles after one step."""
    step_mobility(fleet, layout, dt, state)
    return vehicles_of(fleet)


def same_fleet(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("axis", "direction", "lateral", "c", "speed", "extent"))


# --- geometry --------------------------------------------------------------------


def test_corner_points():
    layout = default_layout()
    assert layout.corner_points() == ((9.0, 9.0), (-9.0, 9.0), (-9.0, -9.0), (9.0, -9.0))
    assert layout.lane_offset_m == 3.5
    assert layout.total_road_length_m() == 800.0


def test_four_directed_lanes_cover_both_roads():
    layout = default_layout()
    assert len(layout.lanes) == 4
    frames = {(lane.axis, lane.direction, lane.offset) for lane in layout.lanes}
    assert frames == {("x", 1, -3.5), ("x", -1, 3.5), ("y", 1, 3.5), ("y", -1, -3.5)}
    east, west = (
        Fleet(axis=np.array([lane.axis == "y"], np.int8), direction=np.array([lane.direction], float),
              lateral=np.array([lane.offset]), c=np.array([-200.0]), speed=np.ones(1),
              extent=np.array([CAR_EXTENT]))
        for lane in (next(l for l in layout.lanes if l.axis == "x" and l.direction == d)
                     for d in (1, -1)))
    assert tuple(east.xy()[0]) == (-200.0, -3.5)  # entry at the west end
    assert tuple(west.xy()[0]) == (200.0, 3.5)  # entry at the east end
    assert vehicles_of(east)[0].heading == (1.0, 0.0)


def test_buildings_fill_quadrants_outside_setback():
    layout = default_layout()
    assert len(layout.buildings) == 4
    for b in layout.buildings:
        assert min(abs(b.x0), abs(b.x1)) == 9.0
        assert min(abs(b.y0), abs(b.y1)) == 9.0
        assert max(abs(b.x0), abs(b.x1)) == 200.0
        assert b.height == 20.0


def test_on_road_predicate():
    layout = default_layout()
    assert layout.on_road(0.0, 0.0)
    assert layout.on_road(150.0, -7.0)  # road edge is inclusive
    assert not layout.on_road(150.0, -7.1)
    assert not layout.on_road(201.0, 0.0)
    assert layout.on_road(3.5, 180.0)


def test_default_rsus_on_corners():
    layout = default_layout()
    rsus = default_rsus(layout)
    assert [r.rid for r in rsus] == [0, 1, 2, 3]
    assert {r.position for r in rsus} == set(layout.corner_points())
    assert all(r.mast_height_m == 6.0 for r in rsus)


@pytest.mark.parametrize("kwargs", [
    dict(arm_length_m=-1.0, road_width_m=14.0),
    dict(arm_length_m=200.0, road_width_m=0.0),
    dict(arm_length_m=200.0, road_width_m=14.0, building_setback_m=-1.0),
    dict(arm_length_m=5.0, road_width_m=8.0),  # no room left for buildings
])
def test_build_intersection_rejects_bad_geometry(kwargs):
    with pytest.raises(ConfigurationError):
        build_intersection(**kwargs)


# --- spawning --------------------------------------------------------------------


def test_spawn_is_deterministic_in_seed():
    layout = default_layout()
    a = spawn_vehicles(layout, TrafficConfig(seed=5))
    b = spawn_vehicles(layout, TrafficConfig(seed=5))
    c = spawn_vehicles(layout, TrafficConfig(seed=6))
    assert same_fleet(a, b)
    assert not same_fleet(a, c)


def test_spawn_count_tracks_density():
    layout = default_layout()
    counts = [len(spawn_vehicles(layout, TrafficConfig(seed=s))) for s in range(300)]
    # 50 veh/km over 0.8 km of road: mean 40, SE of this mean ~0.37
    assert abs(np.mean(counts) - 40.0) < 1.5


def test_spawn_positions_on_road_with_minimum_spacing():
    layout = default_layout()
    for seed in range(10):
        vehicles = vehicles_of(spawn_vehicles(layout, TrafficConfig(seed=seed)))
        lanes: dict[tuple, list[float]] = {}
        for v in vehicles:
            assert layout.on_road(*v.position)
            hx, hy = v.heading
            if abs(hx) >= abs(hy):
                key, coord = (("x", hx, v.position[1]), v.position[0] * hx)
            else:
                key, coord = (("y", hy, v.position[0]), v.position[1] * hy)
            lanes.setdefault(key, []).append(coord)
        for coords in lanes.values():
            coords.sort()
            gaps = np.diff(coords)
            assert np.all(gaps >= CAR_EXTENT[0] - 1e-9)


def test_spawn_vids_are_dense_and_stable():
    layout = default_layout()
    fleet = spawn_vehicles(layout, TrafficConfig(seed=3))
    assert [v.vid for v in vehicles_of(fleet)] == list(range(len(fleet)))
    # rows run lane by lane in layout order, in travel order within a lane
    frames = [(int(a), float(d), float(o)) for a, d, o in
              zip(fleet.axis, fleet.direction, fleet.lateral)]
    lane_order = [(int(l.axis == "y"), float(l.direction), l.offset) for l in layout.lanes]
    assert frames == sorted(frames, key=lane_order.index)
    for frame in set(frames):
        rows = [k for k, f in enumerate(frames) if f == frame]
        assert np.all(np.diff(fleet.c[rows]) > 0)


def test_tall_fraction_extremes():
    layout = default_layout()
    all_cars = spawn_vehicles(layout, TrafficConfig(seed=2, tall_fraction=0.0))
    all_tall = spawn_vehicles(layout, TrafficConfig(seed=2, tall_fraction=1.0))
    assert all(v.extent == CAR_EXTENT for v in vehicles_of(all_cars))
    assert all(v.extent == TALL_EXTENT for v in vehicles_of(all_tall))


def test_spawn_rejects_infeasible_density():
    layout = default_layout()
    with pytest.raises(ConfigurationError):
        spawn_vehicles(layout, TrafficConfig(seed=1, density_veh_km=500.0))


@pytest.mark.parametrize("kwargs", [
    dict(density_veh_km=0.5),
    dict(density_veh_km=1000.0),
    dict(speed_mps=0.0),
    dict(speed_mps=50.0),
    dict(tall_fraction=-0.1),
    dict(turn_probability=1.5),
    dict(seed=-1),
])
def test_traffic_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        TrafficConfig(**kwargs).validate()


# --- mobility --------------------------------------------------------------------


def test_straight_segment_advances_exactly():
    layout = default_layout()
    v = vehicle_at(3.5, -50.0, (0.0, 1.0), speed=1.0)
    state = MobilityState.from_seed(1)
    out = stepped(v, layout, 10.0, state)
    assert out[0].position == (3.5, -40.0)
    assert out[0].heading == (0.0, 1.0)
    assert out[0].vid == 0


def test_step_size_does_not_change_event_free_motion():
    layout = default_layout()
    coarse = stepped(vehicle_at(-3.5, -120.0, (1.0, 0.0), speed=1.0), layout, 10.0,
                     MobilityState.from_seed(1))[0]
    fine = vehicle_at(-3.5, -120.0, (1.0, 0.0), speed=1.0)
    state = MobilityState.from_seed(1)
    for _ in range(10):
        step_mobility(fine, layout, 1.0, state)
    fine = vehicles_of(fine)
    assert fine[0].position == coarse.position
    assert fine[0].heading == coarse.heading


def test_no_turns_when_probability_zero():
    layout = default_layout()
    v = vehicle_at(-5.0, -3.5, (1.0, 0.0), speed=1.0)
    state = MobilityState.from_seed(1, turn_probability=0.0)
    out = stepped(v, layout, 10.0, state)
    assert out[0].position == (5.0, -3.5)
    assert out[0].heading == (1.0, 0.0)


def test_always_turn_when_probability_one():
    layout = default_layout()
    for seed in range(8):
        v = vehicle_at(-5.0, -3.5, (1.0, 0.0), speed=1.0)
        state = MobilityState.from_seed(seed, turn_probability=1.0)
        out = stepped(v, layout, 10.0, state)
        hx, hy = out[0].heading
        assert hx == 0.0 and abs(hy) == 1.0  # rotated onto the crossing road
        assert layout.on_road(*out[0].position)


def test_exit_respawns_at_a_lane_entry_with_leftover_distance():
    layout = default_layout()
    v = vehicle_at(199.0, -3.5, (1.0, 0.0), speed=14.0)
    out = stepped(v, layout, 1.0, MobilityState.from_seed(7))[0]
    assert out.vid == 0
    assert layout.on_road(*out.position)
    spans = sorted(abs(c) for c in out.position)
    assert spans == [3.5, 187.0]  # 1 m to the edge, 13 m carried past the entry


def test_vehicle_count_and_identity_conserved():
    layout = default_layout()
    fleet = spawn_vehicles(layout, TrafficConfig(seed=4, turn_probability=0.5))
    vids = sorted(v.vid for v in vehicles_of(fleet))
    state = MobilityState.from_seed(4, turn_probability=0.5)
    for _ in range(100):
        vehicles = stepped(fleet, layout, 0.1, state)
        assert sorted(v.vid for v in vehicles) == vids
        assert all(layout.on_road(*v.position) for v in vehicles)


def test_mobility_is_deterministic_in_seed():
    layout = default_layout()
    a = spawn_vehicles(layout, TrafficConfig(seed=9))
    b = spawn_vehicles(layout, TrafficConfig(seed=9))
    sa = MobilityState.from_seed(9)
    sb = MobilityState.from_seed(9)
    for _ in range(50):
        step_mobility(a, layout, 0.1, sa)
        step_mobility(b, layout, 0.1, sb)
    assert same_fleet(a, b)


def test_nonpositive_dt_rejected():
    layout = default_layout()
    v = vehicle_at(0.0, -3.5, (1.0, 0.0))
    with pytest.raises(ConfigurationError):
        step_mobility(v, layout, 0.0, MobilityState.from_seed(1))


@pytest.mark.parametrize("density", [20.0, 50.0, 120.0, 200.0])
@pytest.mark.parametrize("turn_probability", [0.0, 0.25, 1.0])
def test_fleet_mobility_matches_reference(density, turn_probability):
    """The columnar step equals the per-vehicle oracle bit for bit: positions,
    body boxes, the stream's state and the pending turns after every step,
    over 700 steps. Every 50th step is long enough to cross several lines,
    and exits there respawn with tens of metres of leftover distance."""
    layout = default_layout()
    seed = int(density) + int(100 * turn_probability)
    fleet = spawn_vehicles(layout, TrafficConfig(density_veh_km=density, seed=seed,
                                                 tall_fraction=0.3))
    world = World(layout=layout, fleet=fleet, rsus=default_rsus(layout))
    vehicles = vehicles_of(fleet)
    state = MobilityState.from_seed(seed, turn_probability)
    ref_state = MobilityState.from_seed(seed, turn_probability)
    long_respawns = 0
    for step in range(700):
        dt = 2.9 if step % 50 == 7 else 0.1
        c_before = fleet.c.copy()
        step_mobility(fleet, layout, dt, state)
        vehicles = reference_mobility.step_mobility(vehicles, layout, dt, ref_state)
        if dt > 1.0:  # an exit is the only event that moves a vehicle back from c > o
            long_respawns += int(np.count_nonzero((c_before > 3.5) & (fleet.c < c_before)))
        want_xy = np.array([v.position for v in vehicles]).reshape(-1, 2)
        assert fleet.xy().tobytes() == want_xy.tobytes(), step
        got_lo, got_hi = world.boxes()
        want_lo, want_hi = reference_mobility.blocker_boxes(layout, vehicles)
        assert got_lo.tobytes() == want_lo.tobytes(), step
        assert got_hi.tobytes() == want_hi.tobytes(), step
        assert state.rng.bit_generator.state == ref_state.rng.bit_generator.state, step
        assert state.pending == ref_state.pending, step
    assert [v.heading for v in vehicles_of(fleet)] == [v.heading for v in vehicles]
    assert long_respawns >= 3
