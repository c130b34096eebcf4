"""Scene tests: intersection geometry, seeded spawning, lane-following mobility."""

from dataclasses import replace

import numpy as np
import pytest

import reference_layout
import reference_mobility
from reference_mobility import VehicleState, fleet_of, vehicles_of
from slot_adapter import on_road
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
    lo, hi = layout.building_lo[:, :2], layout.building_hi[:, :2]
    inner = np.where(np.abs(lo) < np.abs(hi), lo, hi)  # each building's corner nearest the junction
    assert inner.tolist() == [[9.0, 9.0], [-9.0, 9.0], [-9.0, -9.0], [9.0, -9.0]]
    assert layout.lane_offset_m == 3.5


def test_four_directed_lanes_cover_both_roads():
    layout = default_layout()
    assert len(layout.lane_axis) == 4 and layout.lane_axis.dtype == np.int8
    frames = set(zip(layout.lane_axis.tolist(), layout.lane_direction.tolist(),
                     layout.lane_offset.tolist()))
    assert frames == {(0, 1, -3.5), (0, -1, 3.5), (1, 1, 3.5), (1, -1, -3.5)}
    east, west = (
        Fleet(axis=layout.lane_axis[[k]], direction=layout.lane_direction[[k]],
              lateral=layout.lane_offset[[k]], c=np.array([-200.0]), speed=np.ones(1),
              extent=np.array([CAR_EXTENT]))
        for k in (int(np.flatnonzero((layout.lane_axis == 0) & (layout.lane_direction == d))[0])
                  for d in (1, -1)))
    assert tuple(east.xy()[0]) == (-200.0, -3.5)  # entry at the west end
    assert tuple(west.xy()[0]) == (200.0, 3.5)  # entry at the east end
    assert vehicles_of(east)[0].heading == (1.0, 0.0)


def test_buildings_fill_quadrants_outside_setback():
    layout = default_layout()
    assert layout.building_lo.shape == layout.building_hi.shape == (4, 3)
    for (x0, y0, z0), (x1, y1, height) in zip(layout.building_lo, layout.building_hi):
        assert min(abs(x0), abs(x1)) == 9.0
        assert min(abs(y0), abs(y1)) == 9.0
        assert max(abs(x0), abs(x1)) == 200.0
        assert z0 == 0.0 and height == 20.0


def test_on_road_predicate():
    layout = default_layout()
    assert on_road(layout, 0.0, 0.0)
    assert on_road(layout, 150.0, -7.0)  # road edge is inclusive
    assert not on_road(layout, 150.0, -7.1)
    assert not on_road(layout, 201.0, 0.0)
    assert on_road(layout, 3.5, 180.0)


def test_default_rsus_on_corners():
    layout = default_layout()
    rsus = default_rsus(layout)
    assert rsus.dtype == np.float64
    # RSU k in row k, on the inner corner of building k, mast top at 6 m
    assert rsus.tolist() == [[9.0, 9.0, 6.0], [-9.0, 9.0, 6.0], [-9.0, -9.0, 6.0],
                             [9.0, -9.0, 6.0]]


def test_layout_and_rsus_equal_the_object_oracle():
    """Over random valid dimensions, fractional and whole, the layout's
    building and lane columns and the RSU mast tops equal the per-object
    construction bit for bit, dtype and shape included."""
    rng = np.random.default_rng(13)
    for trial in range(200):
        width = float(rng.uniform(0.5, 40.0))
        setback = float(rng.choice((0.0, rng.uniform(0.0, 10.0))))
        arm = width / 2.0 + setback + float(rng.uniform(0.01, 500.0))
        height, mast = float(rng.uniform(0.5, 100.0)), float(rng.uniform(0.5, 30.0))
        if trial % 4 == 0:  # whole numbers, as a caller may pass them
            width, arm, height, mast = 14, int(arm) + 20, int(height) + 1, int(mast) + 1
        layout = build_intersection(arm, width, setback, height)
        want = reference_layout.layout_columns(
            reference_layout.buildings(arm, width, setback, height), reference_layout.lanes(width))
        for name, column in want.items():
            got = getattr(layout, name)
            assert (got.dtype, got.shape) == (column.dtype, column.shape), name
            assert got.tobytes() == column.tobytes(), (name, arm, width, setback, height)
        got = default_rsus(layout, mast_height_m=mast)
        want = reference_layout.rsu_columns(reference_layout.rsus(width, setback, mast))
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes(), (width, setback, mast)


@pytest.mark.parametrize("kwargs", [
    dict(arm_length_m=-1.0, road_width_m=14.0),
    dict(arm_length_m=200.0, road_width_m=0.0),
    dict(arm_length_m=200.0, road_width_m=14.0, building_setback_m=-1.0),
    dict(arm_length_m=5.0, road_width_m=8.0),  # no room left for buildings
    dict(arm_length_m=200.0, road_width_m=14.0, building_height_m=0.0),
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
            assert on_road(layout, *v.position)
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
    lane_order = list(zip(layout.lane_axis.tolist(), layout.lane_direction.tolist(),
                          layout.lane_offset.tolist()))
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


@pytest.mark.parametrize("arm_length_m", [1e308, 1e9], ids=["1e308", "1e9"])
def test_spawn_refuses_a_fleet_past_the_node_index_bound(arm_length_m):
    """The expected fleet, 4 * arm_length_m / 1000 * density_veh_km, must fit
    the 2^20 vehicles a run can code. Past it the Poisson draw failed with
    numpy's "lam value too large" (1e308) or drew 10^8 lane picks (1e9)."""
    layout = build_intersection(arm_length_m, 14.0)
    with pytest.raises(ConfigurationError, match="arm_length_m"):
        spawn_vehicles(layout, TrafficConfig(seed=1))


@pytest.mark.parametrize("kwargs", [
    dict(density_veh_km=0.5),
    dict(density_veh_km=1000.0),
    dict(speed_mps=0.0),
    dict(speed_mps=50.0),
    dict(tall_fraction=-0.1),
    dict(turn_probability=1.5),
    dict(seed=-1),
    dict(seed=1.5),
    dict(seed=True),
    # a bool was taken as 1.0, and a str died with a TypeError
    dict(density_veh_km=True),
    dict(speed_mps="1"),
])
def test_traffic_config_validation(kwargs):
    with pytest.raises(ConfigurationError) as err:
        TrafficConfig(**kwargs).validate()
    assert any(key in str(err.value) for key in kwargs), err.value


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
        assert on_road(layout, *out[0].position)


def test_exit_respawns_at_a_lane_entry_with_leftover_distance():
    layout = default_layout()
    v = vehicle_at(199.0, -3.5, (1.0, 0.0), speed=14.0)
    out = stepped(v, layout, 1.0, MobilityState.from_seed(7))[0]
    assert out.vid == 0
    assert on_road(layout, *out.position)
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
        assert all(on_road(layout, *v.position) for v in vehicles)


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


def test_layout_without_y_lanes_spawns_the_x_road_alone():
    """A layout with lanes on one axis only spawns that road, drawn exactly
    as the full layout draws it (the x road comes first)."""
    full = default_layout()
    on_x = full.lane_axis == 0
    x_only = replace(full, lane_axis=full.lane_axis[on_x], lane_direction=full.lane_direction[on_x],
                     lane_offset=full.lane_offset[on_x])
    alone = spawn_vehicles(x_only, TrafficConfig(seed=1))
    both = spawn_vehicles(full, TrafficConfig(seed=1))
    n = len(alone)
    assert n > 0 and (alone.axis == 0).all()
    assert np.count_nonzero(both.axis == 0) == n
    for column in ("axis", "direction", "lateral", "c", "speed", "extent"):
        assert np.array_equal(getattr(alone, column), getattr(both, column)[:n])


def test_lanes_that_draw_no_vehicle_stay_empty():
    """At 1 veh/km most lanes draw nobody: seed 1 puts one vehicle on one
    lane, and seed 5 spawns an empty fleet with well-formed columns."""
    one = spawn_vehicles(default_layout(), TrafficConfig(density_veh_km=1.0, seed=1))
    assert len(one) == 1 and (one.axis.tolist(), one.direction.tolist()) == ([0], [-1.0])
    empty = spawn_vehicles(default_layout(), TrafficConfig(density_veh_km=1.0, seed=5))
    assert len(empty) == 0 and empty.xy().shape == (0, 2) and empty.extent.shape == (0, 3)


def test_spawn_rejects_a_lane_draw_beyond_capacity():
    """At 390 veh/km a lane expects 78 of the 81 vehicles it holds at 5 m
    spacing: the Poisson draw of seed 1 overflows a lane, seed 3 fits."""
    with pytest.raises(ConfigurationError, match="exceed lane capacity"):
        spawn_vehicles(default_layout(), TrafficConfig(density_veh_km=390.0, seed=1))
    fleet = spawn_vehicles(default_layout(), TrafficConfig(density_veh_km=390.0, seed=3))
    assert len(fleet) == 300
