"""Millimetre-wave link budget at a glance.

Prints the urban street-canyon pathloss curves (line-of-sight and blocked),
the resulting SNR over distance for the default radio, and a concrete
geometric-blockage example: a truck parked between two cars kills the link,
an equally low car does not. Every link is measured through `link_table`,
and random blockage is the seeded per-link draw `outage_uniform` that a run
applies to its measured links.
"""

import numpy as np

from v2xric.channel import (ChannelParams, link_table, noise_floor, outage_uniform, pathloss_los,
                            pathloss_nlos)
from v2xric.ran import NodeKind, World, node_codes
from v2xric.scenario import CAR_EXTENT, TALL_EXTENT, Fleet, build_intersection, default_rsus


def main():
    params = ChannelParams()
    nf = noise_floor(params)
    print(f"radio defaults: {params.carrier_ghz:.0f} GHz carrier, "
          f"{params.eirp_dbm:.0f} dBm EIRP, {params.bandwidth_hz / 1e6:.0f} MHz, "
          f"NF {params.noise_figure_db:.0f} dB")
    print(f"noise floor: {nf:.1f} dBm")
    print()

    print(" dist |  LOS loss | blocked loss |  LOS SNR | blocked SNR")
    print("------+-----------+--------------+----------+------------")
    for d in (10, 20, 40, 80, 100, 160, 320):
        los = pathloss_los(float(d), params.carrier_ghz)
        nlos = pathloss_nlos(float(d), params.carrier_ghz)
        print(f" {d:4d} | {los:7.2f} dB | {nlos:9.2f} dB | "
              f"{params.eirp_dbm - los - nf:+7.2f} | {params.eirp_dbm - nlos - nf:+8.2f}")
    print()

    # Geometric blockage: both antennas are car roofs 1.6 m up, so whatever
    # sits between them must rise above that height to matter.
    layout = build_intersection(arm_length_m=200.0, road_width_m=14.0)
    for label, extent in (("another car", CAR_EXTENT), ("a truck", TALL_EXTENT)):
        # three parked vehicles on the northbound lane: the two ends, then the middle one
        fleet = Fleet(axis=np.ones(3, dtype=np.int8), direction=np.ones(3),
                      lateral=np.full(3, 3.5), c=np.array([-60.0, -20.0, -40.0]),
                      speed=np.zeros(3), extent=np.array([CAR_EXTENT, CAR_EXTENT, extent]))
        world = World(layout=layout, fleet=fleet, rsus=default_rsus(layout))
        link = link_table(params, world.xyz(), world.body, world.boxes(),
                          pairs=(np.flatnonzero(world.body == 0), np.flatnonzero(world.body == 1)))
        state = "line of sight" if link.los[0] else "blocked"
        print(f"with {label:11s} in between: {state}, snr {link.snr_db[0]:+.2f} dB")
    print()

    # Random (non-geometric) blockage is a seeded Bernoulli draw per link and
    # instant; measure a row of 200 roof antennas, every pair once, and draw
    # each link's outage uniform, keyed on its node codes: an outage at p_b
    # where it lies below p_b.
    row = np.array([(-100.0 + float(k), -3.5, 1.6) for k in range(200)])
    codes = node_codes(NodeKind.CAV, np.arange(200))
    no_blockers = (np.empty((0, 3)), np.empty((0, 3)))
    links = link_table(ChannelParams(blockage_mode="stochastic"), row, np.full(200, -1),
                       no_blockers)
    outages = outage_uniform(codes, links.i, links.j, t=0.0, seed=5) < 0.3
    print(f"random blockage at p_b=0.3: empirical rate {outages.mean():.4f} "
          f"over {outages.size} links")


if __name__ == "__main__":
    main()
