"""Link-model tests: pathloss curves, blockage geometry, seeded outage draws.

The reference constants below were frozen from independent hand arithmetic
(log10(28) = 1.4471580313422192), not read back from the implementation:

  LOS, 100 m, 28 GHz:    32.4 + 21*2 + 20*log10(28)            = 103.34316062684438
  LOS, 1 m, 28 GHz:      32.4 +  0   + 20*log10(28)            =  61.34316062684438
  canyon, 100 m, 28 GHz, h_ut 1.6:
      22.4 + 35.3*2 + 21.3*log10(28) - 0.3*(1.6-1.5)           = 123.79446606758927
  noise floor, 100 MHz, NF 9:  -174 + 10*log10(1e8) + 9        = -85.0
  SNR at 100 m LOS, 23 dBm EIRP: 23 - 103.34316062684438 + 85  =   4.65683937315562
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from reference_blockage import reference_segments_blocked
from reference_mobility import VehicleState, fleet_of
from reference_outage import stochastic_blockage
from v2xric import (ChannelParams, ConfigurationError, MeasurementError, NodeId, NodeKind,
                    TrafficConfig, World, build_intersection, channel, default_rsus,
                    link_table, noise_floor, pathloss_los, pathloss_nlos, spawn_vehicles)
from v2xric.channel import OUTAGE_PATHLOSS_DB
from v2xric.scenario import CAR_EXTENT, TALL_EXTENT

LOS_100M_28GHZ = 103.34316062684438
LOS_1M_28GHZ = 61.34316062684438
NLOS_100M_28GHZ_H16 = 123.79446606758927
NOISE_100MHZ_NF9 = -85.0
SNR_100M_LOS = 4.65683937315562


def make_vehicle(vid, x, y, heading=(1.0, 0.0), extent=CAR_EXTENT):
    return VehicleState(vid=vid, position=(x, y), heading=heading,
                        speed_mps=14.0, extent=extent)


def cav_antenna(index, x, y, z=1.6, vehicle_index=None):
    """One endpoint, (NodeId code, xyz, own-body row): CAV `index` at (x, y, z)
    whose own body is vehicle `vehicle_index` of the scene, if any."""
    return NodeId(NodeKind.CAV, index).code, (x, y, z), -1 if vehicle_index is None else vehicle_index


def scene_table(params, layout, vehicles, antennas, t, seed, **selection):
    """link_table over hand-placed endpoints, with the bodies of `vehicles`
    (fleet rows in list order) and the layout's buildings as blockers."""
    codes, xyz, body = (np.array(column) for column in zip(*antennas))
    boxes = World(layout=layout, fleet=fleet_of(vehicles), rsus=[]).boxes()
    return link_table(params, xyz, codes, body, boxes, t, seed, **selection)


def measure(params, layout, vehicles, tx, rx, t, seed):
    """The one row link_table gives for the single link tx-rx."""
    tab = scene_table(params, layout, vehicles, [tx, rx], t, seed)
    return tab.distance_m[0], bool(tab.los[0]), tab.pathloss_db[0], tab.snr_db[0]


def geometric_los(layout, vehicles, tx, rx):
    return measure(ChannelParams(blockage_mode="geometric"), layout, vehicles, tx, rx, 0.0, 1)[1]


def antenna_row(n, p_b):
    """n roof antennas 1 m apart on one lane, and random-only blockage at p_b."""
    row = [cav_antenna(k, -250.0 + float(k), -3.5) for k in range(n)]
    return row, ChannelParams(p_b=p_b, blockage_mode="stochastic")


# --- pathloss curves -------------------------------------------------------------


def test_los_reference_values():
    assert pathloss_los(100.0, 28.0) == pytest.approx(LOS_100M_28GHZ, abs=1e-9)
    assert pathloss_los(1.0, 28.0) == pytest.approx(LOS_1M_28GHZ, abs=1e-9)


def test_nlos_reference_value():
    assert pathloss_nlos(100.0, 28.0, 1.6) == pytest.approx(NLOS_100M_28GHZ_H16, abs=1e-9)


def test_noise_floor_reference_value():
    assert noise_floor(ChannelParams()) == NOISE_100MHZ_NF9


def test_decade_slopes_exact():
    assert pathloss_los(1000.0, 28.0) - pathloss_los(100.0, 28.0) == pytest.approx(21.0, abs=1e-9)
    # at 100 m and beyond the canyon term dominates, so the NLOS decade is 35.3
    assert pathloss_nlos(1000.0, 28.0, 1.6) - pathloss_nlos(100.0, 28.0, 1.6) == pytest.approx(
        35.3, abs=1e-9)


def test_carrier_scaling():
    d = 80.0
    assert pathloss_los(d, 56.0) - pathloss_los(d, 28.0) == pytest.approx(
        20.0 * math.log10(2.0), abs=1e-9)
    assert pathloss_nlos(d, 56.0, 1.6) - pathloss_nlos(d, 28.0, 1.6) == pytest.approx(
        21.3 * math.log10(2.0), abs=1e-9)


def test_short_distance_clamps_to_one_meter():
    assert pathloss_los(0.2, 28.0) == pathloss_los(1.0, 28.0)
    assert pathloss_nlos(0.5, 28.0, 1.6) == pathloss_nlos(1.0, 28.0, 1.6)


def test_nlos_lower_bounded_by_los():
    rng = np.random.default_rng(7)
    for _ in range(300):
        d = float(rng.uniform(1.0, 2000.0))
        fc = float(rng.uniform(0.5, 100.0))
        h = float(rng.uniform(1.0, 10.0))
        assert pathloss_nlos(d, fc, h) >= pathloss_los(d, fc)
    # below the crossover the bound is active: the two curves coincide
    assert pathloss_nlos(2.0, 28.0, 1.6) == pathloss_los(2.0, 28.0)


def test_pathloss_monotone_in_distance():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d1 = float(rng.uniform(1.0, 1000.0))
        d2 = d1 + float(rng.uniform(0.1, 500.0))
        assert pathloss_los(d2, 28.0) > pathloss_los(d1, 28.0)
        assert pathloss_nlos(d2, 28.0, 1.6) >= pathloss_nlos(d1, 28.0, 1.6)


def test_pathloss_vectorized_matches_scalar():
    d = np.array([1.0, 3.0, 47.4, 100.0, 815.0])
    los_vec = pathloss_los(d, 28.0)
    nlos_vec = pathloss_nlos(d, 28.0, 1.6)
    for k, dk in enumerate(d):
        assert los_vec[k] == pathloss_los(float(dk), 28.0)
        assert nlos_vec[k] == pathloss_nlos(float(dk), 28.0, 1.6)


# --- link sampling ---------------------------------------------------------------


def test_snr_identity_and_reference():
    layout = build_intersection(200.0, 14.0)
    params = ChannelParams()
    tx = cav_antenna(0, -50.0, -3.5)
    rx = cav_antenna(1, 50.0, -3.5)
    distance, los, pathloss, snr = measure(params, layout, [], tx, rx, 0.0, seed=1)
    assert distance == pytest.approx(100.0, abs=1e-12)
    assert los
    assert pathloss == pytest.approx(LOS_100M_28GHZ, abs=1e-9)
    assert snr == pytest.approx(SNR_100M_LOS, abs=1e-9)
    # the dB identity is exact, not approximate
    assert snr == params.eirp_dbm - pathloss - noise_floor(params)


def test_eirp_shifts_snr_only():
    layout = build_intersection(200.0, 14.0)
    tx = cav_antenna(0, -40.0, -3.5)
    rx = cav_antenna(1, 30.0, -3.5)
    _, _, lo_pathloss, lo_snr = measure(ChannelParams(eirp_dbm=23.0), layout, [], tx, rx, 0.0, 1)
    _, _, hi_pathloss, hi_snr = measure(ChannelParams(eirp_dbm=30.0), layout, [], tx, rx, 0.0, 1)
    assert hi_pathloss == lo_pathloss
    assert hi_snr - lo_snr == pytest.approx(7.0, abs=1e-12)


def test_reciprocity():
    layout = build_intersection(200.0, 14.0)
    params = ChannelParams(p_b=0.4)
    rng = np.random.default_rng(5)
    for trial in range(25):
        xs = rng.uniform(-150.0, 150.0, size=2)
        a = cav_antenna(0, float(xs[0]), -3.5)
        b = cav_antenna(1, float(xs[1]), 3.5)
        if abs(xs[0] - xs[1]) < 1e-6:
            continue
        t = round(0.1 * trial, 9)
        # distance, LOS state, pathloss and SNR all survive swapping tx and rx
        assert measure(params, layout, [], a, b, t, seed=42) == \
            measure(params, layout, [], b, a, t, seed=42)


def test_truck_blocks_but_equal_height_car_does_not():
    layout = build_intersection(200.0, 14.0)
    ends = [make_vehicle(0, -20.0, -3.5), make_vehicle(2, 20.0, -3.5)]
    # the endpoints' own bodies (vehicle indices 0 and 1) never block
    tx = cav_antenna(0, -20.0, -3.5, vehicle_index=0)
    rx = cav_antenna(2, 20.0, -3.5, vehicle_index=1)

    truck_between = ends + [make_vehicle(1, 0.0, -3.5, extent=TALL_EXTENT)]
    assert not geometric_los(layout, truck_between, tx, rx)

    car_between = ends + [make_vehicle(1, 0.0, -3.5, extent=CAR_EXTENT)]
    assert geometric_los(layout, car_between, tx, rx)


def test_building_blocks_cross_quadrant_link():
    layout = build_intersection(200.0, 14.0)
    # east arm to north arm: the straight line cuts through the NE building
    assert not geometric_los(layout, [], cav_antenna(0, 30.0, -3.5), cav_antenna(1, -3.5, 30.0))
    # along one arm: no building in the way
    assert geometric_los(layout, [], cav_antenna(0, 30.0, -3.5), cav_antenna(1, -30.0, -3.5))


def test_face_contact_does_not_block():
    layout = build_intersection(200.0, 14.0)
    # corner-mast to corner-mast rays run exactly along building faces
    mast = cav_antenna(0, 9.0, 9.0, z=6.0)
    assert geometric_los(layout, [], mast, cav_antenna(1, -9.0, 9.0, z=6.0))
    assert geometric_los(layout, [], mast, cav_antenna(1, 9.0, -9.0, z=6.0))
    assert geometric_los(layout, [], mast, cav_antenna(1, -9.0, -9.0, z=6.0))


def test_blocked_sample_uses_nlos_curve():
    layout = build_intersection(200.0, 14.0)
    tx = cav_antenna(0, 30.0, -3.5)
    rx = cav_antenna(1, -3.5, 30.0)
    distance, los, pathloss, _snr = measure(ChannelParams(), layout, [], tx, rx, 0.0, 1)
    assert not los
    assert pathloss == pathloss_nlos(distance, 28.0, 1.6)


def test_own_body_never_blocks():
    layout = build_intersection(200.0, 14.0)
    vehicles = [make_vehicle(0, -10.0, -3.5), make_vehicle(1, 10.0, -3.5)]
    antennas = [cav_antenna(0, -10.0, -3.5, vehicle_index=0),
                cav_antenna(1, 10.0, -3.5, vehicle_index=1)]
    tab = scene_table(ChannelParams(blockage_mode="geometric"), layout, vehicles,
                     antennas, 0.0, 1)
    assert bool(tab.los[0])


def random_segments(rng, lo, hi, n, grid):
    """n segments among the boxes lo/hi. Each endpoint coordinate is, with
    equal odds, a face of a random box, the other endpoint's coordinate (a
    zero direction component) or a free value: an integer in [0, 7] on a grid
    layout, uniform otherwise."""
    free = rng.integers(0, 8, (2, n, 3)).astype(float) if grid else rng.uniform(-1, 8, (2, n, 3))
    faces = np.stack((lo, hi))[rng.integers(0, 2, (2, n, 3)),
                               rng.integers(0, len(lo), (2, n, 3)), np.arange(3)]
    pick = rng.integers(0, 3, (2, n, 3))
    ends = np.where(pick == 0, faces, free)
    ends[1] = np.where(pick[1] == 1, ends[0], ends[1])
    return ends[0], ends[1]


def test_segments_blocked_matches_dense_reference():
    rng = np.random.default_rng(5)
    seen = dict(blocked=0, clear=0, flat_axes=0, excluded=0)
    for trial in range(300):
        grid = trial % 2 == 0
        n_boxes = int(rng.integers(1, 12))
        if grid:
            lo = rng.integers(0, 6, (n_boxes, 3)).astype(float)
            hi = lo + rng.integers(1, 3, (n_boxes, 3))
        else:
            lo = rng.uniform(0, 6, (n_boxes, 3))
            hi = lo + rng.uniform(0.2, 3, (n_boxes, 3))
        p0, p1 = random_segments(rng, lo, hi, int(rng.integers(1, 60)), grid)
        ex_a = rng.integers(-1, n_boxes, len(p0))
        ex_b = rng.integers(-1, n_boxes, len(p0))
        got = channel._segments_blocked(p0, p1, lo, hi, ex_a, ex_b)
        want = reference_segments_blocked(p0, p1, lo, hi, ex_a, ex_b)
        assert np.array_equal(got, want), trial
        everything = reference_segments_blocked(p0, p1, lo, hi)
        seen["blocked"] += int(want.sum())
        seen["clear"] += int((~want).sum())
        seen["flat_axes"] += int((p0 == p1).sum())
        seen["excluded"] += int((everything & ~want).sum())
    # every branch of the slab test was reached, own-body exclusion included
    assert min(seen.values()) > 100, seen


@pytest.mark.parametrize("density, height", [(150.0, 1.0), (175.0, 1.6), (200.0, 1.6),
                                             (200.0, 4.5)])
def test_link_table_matches_dense_reference_in_dense_scenes(monkeypatch, density, height):
    """A 1.0 m antenna sits below the 1.6 m car roofs, so cars stay blockers;
    at 1.6 m only trucks and buildings can block."""
    layout = build_intersection(200.0, 14.0)
    fleet = spawn_vehicles(layout, TrafficConfig(density_veh_km=density, seed=int(density),
                                                 tall_fraction=0.3))
    world = World(layout=layout, fleet=fleet, rsus=default_rsus(layout),
                  cav_antenna_height_m=height)
    params = ChannelParams(p_b=0.3)
    pos = world.xyz()
    ends = (pos, world.codes, world.body, world.boxes())
    got = link_table(params, *ends, 0.4, seed=3, max_range=300.0)
    monkeypatch.setattr(channel, "_segments_blocked", reference_segments_blocked)
    want = link_table(params, *ends, 0.4, seed=3, max_range=300.0)
    diff = pos[want.i] - pos[want.j]
    assert np.array_equal(got.distance_m, np.sqrt((diff * diff).sum(axis=1)))
    for column in ("i", "j", "distance_m", "los", "pathloss_db", "snr_db"):
        assert np.array_equal(getattr(got, column), getattr(want, column)), column
    geometric_nlos = (~want.los) & (want.pathloss_db < OUTAGE_PATHLOSS_DB)
    assert 0 < int(geometric_nlos.sum()) < len(want.i)


def test_empty_selections_give_empty_columns():
    layout = build_intersection(200.0, 14.0)
    vehicles = [make_vehicle(0, 0.0, -3.5, extent=TALL_EXTENT)]
    antennas = [cav_antenna(k, -30.0 + 20.0 * k, -3.5) for k in range(4)]
    for selection in (dict(pairs=([], [])), dict(max_range=10.0)):
        tab = scene_table(ChannelParams(p_b=0.5), layout, vehicles, antennas, 0.0, seed=1,
                         **selection)
        for column in (tab.i, tab.j, tab.distance_m, tab.los, tab.pathloss_db, tab.snr_db):
            assert len(column) == 0


def test_layout_without_blockers_is_all_los():
    layout = dataclasses.replace(build_intersection(200.0, 14.0), buildings=())
    antennas = [cav_antenna(0, 30.0, -3.5), cav_antenna(1, -3.5, 30.0),
                cav_antenna(2, -30.0, 3.5, z=6.0)]
    tab = scene_table(ChannelParams(blockage_mode="geometric"), layout, [], antennas, 0.0, 1)
    assert tab.los.all()
    assert np.array_equal(tab.pathloss_db, pathloss_los(tab.distance_m, 28.0))


def test_dense_link_table_allocates_no_segment_box_grid():
    """One all-pairs measurement over 176 antennas at 200 veh/km stays below
    10 MB of traced allocations. Screening every (segment, box) pair through
    (segments, boxes, 3) temporaries, as the reference does, peaks near 18 MB."""
    layout = build_intersection(200.0, 14.0)
    fleet = spawn_vehicles(layout, TrafficConfig(density_veh_km=200.0, seed=1))
    world = World(layout=layout, fleet=fleet, rsus=default_rsus(layout))
    assert len(world.codes) == 176
    ends = (world.xyz(), world.codes, world.body, world.boxes())
    tracemalloc.start()
    try:
        link_table(ChannelParams(), *ends, 0.1, seed=1, max_range=300.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak


# --- stochastic outages ----------------------------------------------------------


def test_outage_draw_is_deterministic_and_orientation_free():
    layout = build_intersection(200.0, 14.0)
    row, params = antenna_row(30, 0.4)
    a = scene_table(params, layout, [], row, 1.7, seed=12)
    b = scene_table(params, layout, [], row, 1.7, seed=12)
    swapped = scene_table(params, layout, [], row, 1.7, seed=12, pairs=(a.j, a.i))
    assert np.array_equal(a.los, b.los)
    assert np.array_equal(a.los, swapped.los)
    assert 0 < int((~a.los).sum()) < len(a.los)


def test_outage_rate_matches_probability():
    layout = build_intersection(200.0, 14.0)
    row, params = antenna_row(448, 0.3)
    outages = ~scene_table(params, layout, [], row, 0.0, seed=99).los
    assert outages.size >= 100_000
    assert abs(outages.mean() - 0.3) < 0.01


def test_outage_monotone_in_probability():
    layout = build_intersection(200.0, 14.0)
    row, params = antenna_row(64, 0.2)
    low = ~scene_table(params, layout, [], row, 0.5, seed=4).los
    params.p_b = 0.5
    high = ~scene_table(params, layout, [], row, 0.5, seed=4).los
    assert low.any()
    assert np.all(high[low])
    # p=0 never blocks, p=1 always blocks
    params.p_b = 0.0
    assert not (~scene_table(params, layout, [], row, 0.0, seed=4).los).any()
    params.p_b = 1.0
    assert (~scene_table(params, layout, [], row, 0.0, seed=4).los).all()


def test_outage_varies_with_seed_and_instant():
    layout = build_intersection(200.0, 14.0)
    pair, params = antenna_row(2, 0.5)
    draws_seed = {measure(params, layout, [], *pair, 0.0, seed=s)[1] for s in range(64)}
    draws_time = {measure(params, layout, [], *pair, round(0.1 * k, 9), seed=1)[1]
                  for k in range(64)}
    assert draws_seed == {False, True}
    assert draws_time == {False, True}


def test_batched_outage_matches_scalar_draws():
    layout = build_intersection(200.0, 14.0)
    antennas = [cav_antenna(k, -60.0 + 10.0 * k, -3.5) for k in range(12)]
    params = ChannelParams(p_b=0.37, blockage_mode="stochastic")
    tab = scene_table(params, layout, [], antennas, 0.7, seed=5)
    assert len(tab.i) == 12 * 11 // 2
    for row in range(len(tab.i)):
        a = NodeId.from_code(antennas[int(tab.i[row])][0])
        b = NodeId.from_code(antennas[int(tab.j[row])][0])
        expected = stochastic_blockage(0.37, (a, b), 0.7, seed=5)
        assert bool(tab.los[row]) == (not expected)
        assert (tab.pathloss_db[row] == OUTAGE_PATHLOSS_DB) == expected


def test_full_outage_uses_finite_sentinel():
    layout = build_intersection(200.0, 14.0)
    antennas = [cav_antenna(k, -40.0 + 10.0 * k, -3.5) for k in range(6)]
    params = ChannelParams(p_b=1.0, blockage_mode="stochastic")
    tab = scene_table(params, layout, [], antennas, 0.0, seed=1)
    assert np.all(tab.pathloss_db == OUTAGE_PATHLOSS_DB)
    assert np.all(~tab.los)
    assert np.all(np.isfinite(tab.snr_db))
    # identity: eirp - sentinel - noise floor
    assert np.all(tab.snr_db == 23.0 - OUTAGE_PATHLOSS_DB + 85.0)


def test_single_pair_selection_matches_link_table_bitwise():
    layout = build_intersection(200.0, 14.0)
    vehicles = [make_vehicle(k, -50.0 + 12.0 * k, -3.5) for k in range(9)]
    vehicles[4] = make_vehicle(4, -2.0, -3.5, extent=TALL_EXTENT)
    antennas = [cav_antenna(k, v.position[0], v.position[1], vehicle_index=k)
                for k, v in enumerate(vehicles)]
    params = ChannelParams(p_b=0.5)
    tab = scene_table(params, layout, vehicles, antennas, 0.3, seed=8)
    for row in range(len(tab.i)):
        one = scene_table(params, layout, vehicles, antennas, 0.3, seed=8,
                         pairs=(tab.i[row : row + 1], tab.j[row : row + 1]))
        assert one.distance_m[0] == tab.distance_m[row]
        assert one.los[0] == tab.los[row]
        assert one.pathloss_db[0] == tab.pathloss_db[row]
        assert one.snr_db[0] == tab.snr_db[row]


def test_link_table_pair_selection_matches_full_table():
    layout = build_intersection(200.0, 14.0)
    antennas = [cav_antenna(k, -30.0 + 15.0 * k, -3.5) for k in range(5)]
    params = ChannelParams(p_b=0.4)
    full = scene_table(params, layout, [], antennas, 0.0, seed=2)
    sel = scene_table(params, layout, [], antennas, 0.0, seed=2,
                     pairs=(np.array([0, 1]), np.array([3, 4])))
    by_pair = {(int(full.i[r]), int(full.j[r])): r for r in range(len(full.i))}
    for r, pair in enumerate([(0, 3), (1, 4)]):
        fr = by_pair[pair]
        assert sel.distance_m[r] == full.distance_m[fr]
        assert sel.pathloss_db[r] == full.pathloss_db[fr]
        assert sel.snr_db[r] == full.snr_db[fr]


# --- validation ------------------------------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(carrier_ghz=0.1),
    dict(carrier_ghz=150.0),
    dict(eirp_dbm=90.0),
    dict(eirp_dbm=-100.0),
    dict(bandwidth_hz=0.0),
    dict(bandwidth_hz=math.inf),
    dict(noise_figure_db=-1.0),
    dict(noise_figure_db=40.0),
    dict(p_b=-0.1),
    dict(p_b=1.5),
    dict(blockage_mode="sometimes"),
])
def test_channel_params_validation(bad):
    with pytest.raises(ConfigurationError):
        ChannelParams(**bad).validate()


def test_coincident_antennas_rejected():
    layout = build_intersection(200.0, 14.0)
    antennas = [cav_antenna(0, 5.0, -3.5), cav_antenna(1, 5.0, -3.5)]
    with pytest.raises(MeasurementError):
        scene_table(ChannelParams(), layout, [], antennas, 0.0, seed=1)
