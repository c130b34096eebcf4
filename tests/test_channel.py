"""Link-model tests: pathloss curves, blockage geometry, seeded outage draws
and the world stream's outage cut.

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
from reference_channel import reference_link_table
from reference_ids import NodeId
from reference_mobility import VehicleState, fleet_of
from reference_outage import stochastic_blockage
from v2xric import (ChannelParams, ConfigurationError, MeasurementError, NodeKind, SimConfig,
                    TrafficConfig, World, XAppConfig, build_intersection, channel,
                    default_rsus, link_table, noise_floor, pathloss_los, pathloss_nlos,
                    spawn_vehicles, streams)
from v2xric.channel import OUTAGE_PATHLOSS_DB, link_snr_db
from v2xric.scenario import CAR_EXTENT, TALL_EXTENT

LOS_100M_28GHZ = 103.34316062684438
LOS_1M_28GHZ = 61.34316062684438
NLOS_100M_28GHZ_H16 = 123.79446606758927
NOISE_100MHZ_NF9 = -85.0
SNR_100M_LOS = 4.65683937315562


def make_vehicle(vid, x, y, heading=(1.0, 0.0), extent=CAR_EXTENT):
    return VehicleState(vid=vid, position=(x, y), heading=heading,
                        speed_mps=14.0, extent=extent)


def antenna(x, y, z=1.6, vehicle_index=None):
    """One endpoint, (xyz, own-body row): an antenna at (x, y, z) whose own
    body is vehicle `vehicle_index` of the scene, if any."""
    return (x, y, z), -1 if vehicle_index is None else vehicle_index


def scene_table(params, layout, vehicles, antennas, **selection):
    """link_table over hand-placed endpoints, with the bodies of `vehicles`
    (fleet rows in list order) and the layout's buildings as blockers."""
    xyz, body = (np.array(column) for column in zip(*antennas))
    boxes = World(layout=layout, fleet=fleet_of(vehicles), rsus=np.empty((0, 3))).boxes()
    return link_table(params, xyz, body, boxes, **selection)


def measure(params, layout, vehicles, tx, rx):
    """The one row link_table gives for the single link tx-rx."""
    tab = scene_table(params, layout, vehicles, [tx, rx])
    return tab.distance_m[0], bool(tab.los[0]), tab.pathloss_db[0], tab.snr_db[0]


def geometric_los(layout, vehicles, tx, rx):
    return measure(ChannelParams(blockage_mode="geometric"), layout, vehicles, tx, rx)[1]


def row_uniforms(n, t, seed, swap=False):
    """The outage uniform of every link i < j among CAVs 0 .. n-1 at instant
    t, each link keyed as (j, i) when `swap`."""
    codes = np.array([NodeId(NodeKind.CAV, k).code for k in range(n)])
    i, j = np.triu_indices(n, k=1)
    return channel.outage_uniform(codes, *((j, i) if swap else (i, j)), t, seed)


def stream_cut(n, p_bs, seed, **radio):
    """A world stream's step 0 over n cars 5 m apart on one lane, with
    random-only blockage: `streams.sense` measures it and draws each link's
    outage uniform, and `streams.collect_reports` cuts each p_b of the
    sorted grid `p_bs` from it. The measured step, and per p_b the SNR each
    link is reported with (both directions report it alike)."""
    layout = build_intersection(200.0, 14.0)
    world = World(layout=layout, rsus=np.empty((0, 3)), fleet=fleet_of(
        [make_vehicle(k, -150.0 + 5.0 * k, -3.5) for k in range(n)]))
    cfg = SimConfig(seed=seed, channel=ChannelParams(blockage_mode="stochastic", **radio),
                    sensing_range_m=1000.0, xapp=XAppConfig(snr_min_db=-300.0))
    measured = streams.sense(world, cfg, 0, p_bs)
    every = np.ones(n, dtype=bool)
    return measured, [streams.collect_reports(measured, cfg, every, level).snr_db[:len(measured.i)]
                      for level in range(len(p_bs))]


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
    tx = antenna(-50.0, -3.5)
    rx = antenna(50.0, -3.5)
    distance, los, pathloss, snr = measure(params, layout, [], tx, rx)
    assert distance == pytest.approx(100.0, abs=1e-12)
    assert los
    assert pathloss == pytest.approx(LOS_100M_28GHZ, abs=1e-9)
    assert snr == pytest.approx(SNR_100M_LOS, abs=1e-9)
    # the dB identity is exact, not approximate
    assert snr == params.eirp_dbm - pathloss - noise_floor(params)


def test_eirp_shifts_snr_only():
    layout = build_intersection(200.0, 14.0)
    tx = antenna(-40.0, -3.5)
    rx = antenna(30.0, -3.5)
    _, _, lo_pathloss, lo_snr = measure(ChannelParams(eirp_dbm=23.0), layout, [], tx, rx)
    _, _, hi_pathloss, hi_snr = measure(ChannelParams(eirp_dbm=30.0), layout, [], tx, rx)
    assert hi_pathloss == lo_pathloss
    assert hi_snr - lo_snr == pytest.approx(7.0, abs=1e-12)


def test_reciprocity():
    layout = build_intersection(200.0, 14.0)
    params = ChannelParams()
    rng = np.random.default_rng(5)
    for _ in range(25):
        xs = rng.uniform(-150.0, 150.0, size=2)
        a = antenna(float(xs[0]), -3.5)
        b = antenna(float(xs[1]), 3.5)
        if abs(xs[0] - xs[1]) < 1e-6:
            continue
        # distance, LOS state, pathloss and SNR all survive swapping tx and rx
        assert measure(params, layout, [], a, b) == measure(params, layout, [], b, a)


def test_truck_blocks_but_equal_height_car_does_not():
    layout = build_intersection(200.0, 14.0)
    ends = [make_vehicle(0, -20.0, -3.5), make_vehicle(2, 20.0, -3.5)]
    # the endpoints' own bodies (vehicle indices 0 and 1) never block
    tx = antenna(-20.0, -3.5, vehicle_index=0)
    rx = antenna(20.0, -3.5, vehicle_index=1)

    truck_between = ends + [make_vehicle(1, 0.0, -3.5, extent=TALL_EXTENT)]
    assert not geometric_los(layout, truck_between, tx, rx)

    car_between = ends + [make_vehicle(1, 0.0, -3.5, extent=CAR_EXTENT)]
    assert geometric_los(layout, car_between, tx, rx)


def test_building_blocks_cross_quadrant_link():
    layout = build_intersection(200.0, 14.0)
    # east arm to north arm: the straight line cuts through the NE building
    assert not geometric_los(layout, [], antenna(30.0, -3.5), antenna(-3.5, 30.0))
    # along one arm: no building in the way
    assert geometric_los(layout, [], antenna(30.0, -3.5), antenna(-30.0, -3.5))


def test_face_contact_does_not_block():
    layout = build_intersection(200.0, 14.0)
    # corner-mast to corner-mast rays run exactly along building faces
    mast = antenna(9.0, 9.0, z=6.0)
    assert geometric_los(layout, [], mast, antenna(-9.0, 9.0, z=6.0))
    assert geometric_los(layout, [], mast, antenna(9.0, -9.0, z=6.0))
    assert geometric_los(layout, [], mast, antenna(-9.0, -9.0, z=6.0))


def test_blocked_sample_uses_nlos_curve():
    layout = build_intersection(200.0, 14.0)
    tx = antenna(30.0, -3.5)
    rx = antenna(-3.5, 30.0)
    distance, los, pathloss, _snr = measure(ChannelParams(), layout, [], tx, rx)
    assert not los
    assert pathloss == pathloss_nlos(distance, 28.0, 1.6)


def test_own_body_never_blocks():
    layout = build_intersection(200.0, 14.0)
    vehicles = [make_vehicle(0, -10.0, -3.5), make_vehicle(1, 10.0, -3.5)]
    antennas = [antenna(-10.0, -3.5, vehicle_index=0),
                antenna(10.0, -3.5, vehicle_index=1)]
    tab = scene_table(ChannelParams(blockage_mode="geometric"), layout, vehicles, antennas)
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
    params = ChannelParams()
    pos = world.xyz()
    ends = (pos, world.body, world.boxes())
    got = link_table(params, *ends, max_range=300.0)
    monkeypatch.setattr(channel, "_segments_blocked", reference_segments_blocked)
    want = link_table(params, *ends, max_range=300.0)
    diff = pos[want.i] - pos[want.j]
    assert np.array_equal(got.distance_m, np.sqrt((diff * diff).sum(axis=1)))
    for column in ("i", "j", "distance_m", "los", "pathloss_db", "snr_db"):
        assert np.array_equal(getattr(got, column), getattr(want, column)), column
    assert 0 < int((~want.los).sum()) < len(want.i)


def face_endpoints(rng, world, n):
    """n extra endpoints on the vehicle bodies' side faces: x and y are each,
    with equal odds, a random body's lo or hi face on that axis or the
    coordinate of a random antenna of `world`; z is always an antenna's, so
    the height cut still drops the bodies below every antenna. Bodies on one lane
    share their side faces, so many of the segments between these points lie
    flat on a face. Each gets a random own body (or none), like a roof
    antenna."""
    lo, hi = world.fleet.boxes()
    xyz = world.xyz()
    faces = np.stack((lo, hi))[rng.integers(0, 2, (n, 3)), rng.integers(0, len(lo), (n, 3)),
                               np.arange(3)]
    free = xyz[rng.integers(0, len(xyz), (n, 3)), np.arange(3)]
    snap = rng.integers(0, 2, (n, 3)) == 0
    snap[:, 2] = False
    points = np.unique(np.where(snap, faces, free), axis=0)
    points = points[~(points[:, None, :] == xyz[None, :, :]).all(axis=2).any(axis=1)]
    codes = np.array([NodeId(NodeKind.CAV, 1000 + k).code for k in range(len(points))])
    return points, codes, rng.integers(-1, len(lo), len(points))


def selections(rng, n):
    """link_table selections over n endpoints: all pairs and a random subset
    with random orientation, each under every combination of range cut and
    report floor, then three empty ones."""
    a = rng.integers(0, n, 3 * n)
    b = (a + rng.integers(1, n, 3 * n)) % n
    for pairs in (None, (a, b)):
        for max_range in (None, 120.0):
            for min_snr_db in (None, 5.0):
                yield dict(pairs=pairs, max_range=max_range, min_snr_db=min_snr_db)
    yield dict(pairs=(np.array([], dtype=np.int64), np.array([], dtype=np.int64)))
    yield dict(max_range=1e-3)
    yield dict(min_snr_db=200.0)


@pytest.mark.parametrize("mode", channel.BLOCKAGE_MODES)
@pytest.mark.parametrize("p_b", [0.0, 0.3, 1.0])
def test_link_table_matches_row_major_reference(mode, p_b):
    """Every column of the column-major table, row order included, is bit
    for bit the row-major reference's at p_b = 0, whatever `params.p_b`
    says, over random scenes (antenna heights 1.0, 1.6 and 4.5 m among 30%
    trucks, endpoints on body faces, and the same endpoints with no blockers
    at all) and every kind of selection. With the world stream's outage
    rule applied after it (an outage where the link's `outage_uniform` lies
    below p_b, in a stochastic mode), it is the reference at p_b, which
    applies the outage inside the measurement."""
    params = ChannelParams(p_b=p_b, blockage_mode=mode)
    layout = build_intersection(200.0, 14.0)
    rng = np.random.default_rng(int(p_b * 10) + 100 * channel.BLOCKAGE_MODES.index(mode))
    seen = dict(rows=0, empty=0, nlos=0, outage=0, flat_on_face=0)
    for height in (1.0, 1.6, 4.5):
        fleet = spawn_vehicles(layout, TrafficConfig(density_veh_km=float(rng.uniform(30, 80)),
                                                     seed=int(rng.integers(1 << 30)),
                                                     tall_fraction=0.3))
        world = World(layout=layout, fleet=fleet, rsus=default_rsus(layout),
                      cav_antenna_height_m=height)
        points, codes, body = face_endpoints(rng, world, 40)
        xyz = np.vstack((world.xyz(), points))
        codes = np.concatenate((world.codes, codes))
        body = np.concatenate((world.body, body))
        face_values = np.unique(np.concatenate(fleet.boxes()))
        nothing = (np.empty((0, 3)), np.empty((0, 3)))
        for boxes, own in ((world.boxes(), body), (nothing, np.full(len(body), -1))):
            for selection in selections(rng, len(xyz)):
                got = link_table(params, xyz, own, boxes, **selection)
                clear = reference_link_table(dataclasses.replace(params, p_b=0.0), xyz, codes,
                                             own, boxes, 0.3, 7, **selection)
                want = reference_link_table(params, xyz, codes, own, boxes, 0.3, 7, **selection)
                outage = channel.outage_uniform(codes, got.i, got.j, 0.3, 7) < p_b
                outage &= mode != "geometric"
                cut = dataclasses.replace(
                    got, los=got.los & ~outage,
                    pathloss_db=np.where(outage, OUTAGE_PATHLOSS_DB, got.pathloss_db),
                    snr_db=np.where(outage, link_snr_db(params, OUTAGE_PATHLOSS_DB), got.snr_db))
                for column in ("i", "j", "distance_m", "los", "pathloss_db", "snr_db"):
                    for g, w in ((got, clear), (cut, want)):
                        g, w = getattr(g, column), getattr(w, column)
                        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (height, column)
                assert np.array_equal(outage, want.pathloss_db == OUTAGE_PATHLOSS_DB)
                same = xyz[want.i] == xyz[want.j]
                seen["rows"] += len(want.i)
                seen["empty"] += len(want.i) == 0
                seen["nlos"] += int((~want.los & ~outage).sum())
                seen["outage"] += int(outage.sum())
                seen["flat_on_face"] += int((same & np.isin(xyz[want.i], face_values)).sum())
    assert seen["empty"] >= 3 * 2 * 3
    assert seen["rows"] > 10_000 and seen["flat_on_face"] > 100, seen
    assert (seen["nlos"] > 100) == (mode == "geometric" or (mode == "combined" and p_b < 1.0)), seen
    assert (seen["outage"] > 100) == (mode != "geometric" and p_b > 0.0), seen


def test_empty_selections_give_empty_columns():
    layout = build_intersection(200.0, 14.0)
    vehicles = [make_vehicle(0, 0.0, -3.5, extent=TALL_EXTENT)]
    antennas = [antenna(-30.0 + 20.0 * k, -3.5) for k in range(4)]
    for selection in (dict(pairs=([], [])), dict(max_range=10.0)):
        tab = scene_table(ChannelParams(), layout, vehicles, antennas, **selection)
        for column in (tab.i, tab.j, tab.distance_m, tab.los, tab.pathloss_db, tab.snr_db):
            assert len(column) == 0


def test_layout_without_blockers_is_all_los():
    layout = dataclasses.replace(build_intersection(200.0, 14.0), building_lo=np.empty((0, 3)),
                                 building_hi=np.empty((0, 3)))
    antennas = [antenna(30.0, -3.5), antenna(-3.5, 30.0),
                antenna(-30.0, 3.5, z=6.0)]
    tab = scene_table(ChannelParams(blockage_mode="geometric"), layout, [], antennas)
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
    ends = (world.xyz(), world.body, world.boxes())
    tracemalloc.start()
    try:
        link_table(ChannelParams(), *ends, max_range=300.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak


def test_report_floor_keeps_exactly_the_pairs_whose_los_snr_clears_it():
    """On the dense scene (seed 1, 200 veh/km, 176 antennas) at a 5 dB floor,
    the floored table holds exactly the in-range pairs whose LOS SNR is at or
    above the floor, each row bit for bit the unfloored one, and no pair of
    the unfloored table at or above the floor is missing."""
    layout = build_intersection(200.0, 14.0)
    fleet = spawn_vehicles(layout, TrafficConfig(density_veh_km=200.0, seed=1))
    world = World(layout=layout, fleet=fleet, rsus=default_rsus(layout))
    assert len(world.codes) == 176
    params = ChannelParams()
    ends = (world.xyz(), world.body, world.boxes())
    full = link_table(params, *ends, max_range=300.0)
    floored = link_table(params, *ends, max_range=300.0, min_snr_db=5.0)
    los_snr = params.eirp_dbm - pathloss_los(full.distance_m, params.carrier_ghz) - noise_floor(params)
    keep = los_snr >= 5.0
    assert 0 < len(floored.i) == int(keep.sum()) < len(full.i)
    for column in ("i", "j", "distance_m", "los", "pathloss_db", "snr_db"):
        assert np.array_equal(getattr(floored, column), getattr(full, column)[keep]), column
    assert np.all(keep[full.snr_db >= 5.0])
    # LOS and NLOS rows and links below the floor after blockage all remain
    assert floored.los.any() and (~floored.los).any()
    assert (floored.snr_db < 5.0).any()


# --- stochastic outages ----------------------------------------------------------
# `channel.outage_uniform` is the one draw, which `streams.sense` makes, and
# `streams.collect_reports` the one cut.


def test_outage_draw_is_deterministic_and_orientation_free():
    a = row_uniforms(30, 1.7, seed=12) < 0.4
    b = row_uniforms(30, 1.7, seed=12) < 0.4
    swapped = row_uniforms(30, 1.7, seed=12, swap=True) < 0.4
    assert np.array_equal(a, b)
    assert np.array_equal(a, swapped)
    assert 0 < int(a.sum()) < len(a)


def test_outage_rate_matches_probability():
    outages = row_uniforms(448, 0.0, seed=99) < 0.3
    assert outages.size >= 100_000
    assert abs(outages.mean() - 0.3) < 0.01


def test_outage_monotone_in_probability():
    """The stream's cut at each p_b of a grid: the outages grow with p_b,
    p_b = 0 never blocks, p_b = 1 always does, and a link not in outage
    keeps its measured SNR."""
    measured, cuts = stream_cut(64, (0.0, 0.2, 0.5, 1.0), seed=4)
    outage = [snr == link_snr_db(ChannelParams(), OUTAGE_PATHLOSS_DB) for snr in cuts]
    assert outage[1].any()
    for low, high in zip(outage, outage[1:]):
        assert np.all(high[low])
    assert not outage[0].any() and outage[-1].all()
    for snr, out in zip(cuts, outage):
        assert np.array_equal(snr[~out], measured.snr_db[~out])


def test_outage_varies_with_seed_and_instant():
    draws_seed = {bool(row_uniforms(2, 0.0, seed=s)[0] < 0.5) for s in range(64)}
    draws_time = {bool(row_uniforms(2, round(0.1 * k, 9), seed=1)[0] < 0.5) for k in range(64)}
    assert draws_seed == {False, True}
    assert draws_time == {False, True}


def test_batched_outage_matches_scalar_draws():
    outage = row_uniforms(12, 0.7, seed=5) < 0.37
    i, j = np.triu_indices(12, k=1)
    assert len(outage) == 12 * 11 // 2
    for row in range(len(outage)):
        a, b = NodeId(NodeKind.CAV, int(i[row])), NodeId(NodeKind.CAV, int(j[row]))
        assert bool(outage[row]) == stochastic_blockage(0.37, (a, b), 0.7, seed=5)


def test_full_outage_uses_finite_sentinel():
    _, (snr,) = stream_cut(6, (1.0,), seed=1)
    assert len(snr) == 6 * 5 // 2
    assert np.all(np.isfinite(snr))
    # identity: eirp - sentinel - noise floor
    assert np.all(snr == 23.0 - OUTAGE_PATHLOSS_DB + 85.0)


def test_single_pair_selection_matches_link_table_bitwise():
    layout = build_intersection(200.0, 14.0)
    vehicles = [make_vehicle(k, -50.0 + 12.0 * k, -3.5) for k in range(9)]
    vehicles[4] = make_vehicle(4, -2.0, -3.5, extent=TALL_EXTENT)
    antennas = [antenna(v.position[0], v.position[1], vehicle_index=k)
                for k, v in enumerate(vehicles)]
    params = ChannelParams()
    tab = scene_table(params, layout, vehicles, antennas)
    for row in range(len(tab.i)):
        one = scene_table(params, layout, vehicles, antennas,
                          pairs=(tab.i[row : row + 1], tab.j[row : row + 1]))
        assert one.distance_m[0] == tab.distance_m[row]
        assert one.los[0] == tab.los[row]
        assert one.pathloss_db[0] == tab.pathloss_db[row]
        assert one.snr_db[0] == tab.snr_db[row]


def test_link_table_pair_selection_matches_full_table():
    layout = build_intersection(200.0, 14.0)
    antennas = [antenna(-30.0 + 15.0 * k, -3.5) for k in range(5)]
    params = ChannelParams()
    full = scene_table(params, layout, [], antennas)
    sel = scene_table(params, layout, [], antennas, pairs=(np.array([0, 1]), np.array([3, 4])))
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
    dict(bandwidth_hz=1e-100),
    # a bool was taken as 1.0, and a str died with a TypeError
    dict(eirp_dbm=True),
    dict(p_b=True),
    dict(carrier_ghz="28"),
])
def test_channel_params_validation(bad):
    with pytest.raises(ConfigurationError) as err:
        ChannelParams(**bad).validate()
    assert any(key in str(err.value) for key in bad), err.value


def test_coincident_antennas_rejected():
    layout = build_intersection(200.0, 14.0)
    antennas = [antenna(5.0, -3.5), antenna(5.0, -3.5)]
    with pytest.raises(MeasurementError):
        scene_table(ChannelParams(), layout, [], antennas)


def test_outage_snr_lies_below_every_threshold_at_the_validated_corner():
    """At the corner of the validated ranges that raises an outage's SNR most
    (highest EIRP, narrowest bandwidth, no noise figure) it stays below the
    lowest admissible threshold, -300 dB, so an outage is never an edge."""
    params = ChannelParams(eirp_dbm=60.0, bandwidth_hz=1.0, noise_figure_db=0.0,
                           p_b=1.0).validate()
    assert params.eirp_dbm - OUTAGE_PATHLOSS_DB - noise_floor(params) < -300.0
    _, (snr,) = stream_cut(6, (1.0,), seed=1, eirp_dbm=60.0, bandwidth_hz=1.0,
                           noise_figure_db=0.0)
    assert len(snr) and np.all(snr < -300.0)
