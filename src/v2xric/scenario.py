"""Urban intersection scene: two crossing roads, corner buildings, moving vehicles.

Geometry is axis-aligned: the two roads run along x and y through the origin,
each with one lane per direction (right-hand traffic, lane centerlines at
+/- road_width/4). Buildings fill the four quadrants from the road edge plus a
setback out to the scene extent. All randomness is drawn from explicitly
seeded generators, so equal (config, seed) gives bitwise-equal trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, check_keys, config_key

_INDEX_BITS = 20  # a run holds at most 2^20 vehicles and RSUs, each coded below 2^22
_SPAWN_TAG = 17
_MOBILITY_TAG = 23

CAR_EXTENT = (5.0, 2.0, 1.6)
TALL_EXTENT = (5.0, 2.5, 4.0)  # trucks: same order of footprint, 4 m body


@dataclass(frozen=True, slots=True, eq=False)
class RoadLayout:
    """The static scene as columns. Building b is the box from
    `building_lo[b]` to `building_hi[b]`, ground to roof. Lane k runs along
    `lane_axis[k]` (0 = x, 1 = y) in `lane_direction[k]` (+1.0 or -1.0) at
    perpendicular offset `lane_offset[k]`; its travel coordinate c runs from
    -arm_length_m (entry) to +arm_length_m (exit) along the driving direction."""

    arm_length_m: float
    road_width_m: float
    building_setback_m: float
    building_lo: np.ndarray  # (B, 3) float64
    building_hi: np.ndarray  # (B, 3) float64
    lane_axis: np.ndarray  # (L,) int8
    lane_direction: np.ndarray  # (L,) float64
    lane_offset: np.ndarray  # (L,) float64

    @property
    def lane_offset_m(self) -> float:
        return self.road_width_m / 4.0


@dataclass(eq=False, slots=True)
class Fleet:
    """Every vehicle as columns; row k is the vehicle with vid k, which the RAN
    layer codes as `node_codes(CAV, k)`. A vehicle drives the lane along
    `axis` (0 = x, 1 = y) in `direction` (+1.0 or -1.0) at perpendicular
    offset `lateral`, at travel coordinate `c` (its position along the axis
    is c * direction)."""

    axis: np.ndarray  # (n,) int8
    direction: np.ndarray  # (n,) float64
    lateral: np.ndarray  # (n,) float64
    c: np.ndarray  # (n,) float64
    speed: np.ndarray  # (n,) float64, m/s
    extent: np.ndarray  # (n, 3) float64: length, width, height

    def __len__(self) -> int:
        return len(self.c)

    def xy(self) -> np.ndarray:
        """(n, 2) vehicle centre positions."""
        along = self.c * self.direction
        on_x = self.axis == 0
        return np.stack((np.where(on_x, along, self.lateral),
                         np.where(on_x, self.lateral, along)), axis=1)

    def boxes(self, xy: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) corners of each vehicle's axis-aligned body box, (n, 3) each,
        about the centres `xy` (by default the fleet's own)."""
        # half the length along the lane axis, half the width across it
        half = 0.5 * np.where((self.axis == 0)[:, None], self.extent[:, :2], self.extent[:, [1, 0]])
        xy = self.xy() if xy is None else xy
        return (np.hstack((xy - half, np.zeros((len(self), 1)))),
                np.hstack((xy + half, self.extent[:, 2:])))


@dataclass(slots=True)
class TrafficConfig:
    density_veh_km: float = config_key(50.0, "[1, 500]")
    speed_mps: float = config_key(14.0, "(0, 40]")
    seed: int = config_key(1, "[0, 2^63)")
    tall_fraction: float = config_key(0.10, "[0, 1]")
    turn_probability: float = config_key(0.25, "[0, 1]")

    def validate(self) -> "TrafficConfig":
        check_keys(self)
        return self


def build_intersection(arm_length_m: float, road_width_m: float,
                       building_setback_m: float = 2.0,
                       building_height_m: float = 20.0) -> RoadLayout:
    """Two crossing roads of the given arm length with four corner buildings."""
    if not (arm_length_m > 0 and math.isfinite(arm_length_m)):
        raise ConfigurationError(f"arm_length_m must be positive: {arm_length_m}")
    if not (road_width_m > 0 and math.isfinite(road_width_m)):
        raise ConfigurationError(f"road_width_m must be positive: {road_width_m}")
    if building_setback_m < 0 or not math.isfinite(building_setback_m):
        raise ConfigurationError(f"building_setback_m must be >= 0: {building_setback_m}")
    if not (building_height_m > 0 and math.isfinite(building_height_m)):
        raise ConfigurationError(f"building_height_m must be positive: {building_height_m}")
    s = road_width_m / 2.0 + building_setback_m
    a = arm_length_m
    if s >= a:
        raise ConfigurationError(f"road_width_m / 2 + building_setback_m ({s}) leaves no room "
                                 f"for buildings inside arm_length_m ({a})")
    h = building_height_m
    o = road_width_m / 4.0
    return RoadLayout(
        arm_length_m=a,
        road_width_m=road_width_m,
        building_setback_m=building_setback_m,
        # one building per quadrant, counter-clockwise from +x +y
        building_lo=np.array([(s, s, 0.0), (-a, s, 0.0), (-a, -a, 0.0), (s, -a, 0.0)]),
        building_hi=np.array([(a, a, h), (-s, a, h), (-s, -s, h), (a, -s, h)]),
        # eastbound south side, westbound north side, northbound east side, southbound west side
        lane_axis=np.array([0, 0, 1, 1], dtype=np.int8),
        lane_direction=np.array([1.0, -1.0, 1.0, -1.0]),
        lane_offset=np.array([-o, o, o, -o]),
    )


def default_rsus(layout: RoadLayout, mast_height_m: float = 6.0) -> np.ndarray:
    """(4, 3) mast tops of the RSUs, RSU k in row k: one per inner building
    corner, counter-clockwise from +x +y, each with LOS down both arms of
    its quadrant."""
    s = layout.road_width_m / 2.0 + layout.building_setback_m
    return np.array([(s, s, mast_height_m), (-s, s, mast_height_m),
                     (-s, -s, mast_height_m), (s, -s, mast_height_m)])


def spawn_vehicles(layout: RoadLayout, cfg: TrafficConfig) -> Fleet:
    """Seeded initial traffic: per road, count ~ Poisson(density * road length),
    split uniformly over its lanes, positions uniform with a one-car-length
    minimum spacing on each lane. Rows (vids) run lane by lane in layout
    order, x road first, in travel order within a lane."""
    cfg.validate()
    expected = cfg.density_veh_km * 4.0 * layout.arm_length_m / 1000.0  # two roads of two arms
    if not expected <= 1 << _INDEX_BITS:
        raise ConfigurationError(f"arm_length_m={layout.arm_length_m} at {cfg.density_veh_km} "
                                 f"veh/km expects {expected:.3g} vehicles, over 2^{_INDEX_BITS}")
    rng = np.random.default_rng([int(cfg.seed), _SPAWN_TAG])
    min_gap = CAR_EXTENT[0]
    lane_len = 2.0 * layout.arm_length_m

    placed: list[tuple[int, np.ndarray, np.ndarray]] = []  # lane row, coordinates, tall
    for axis in (0, 1):
        lanes = np.flatnonzero(layout.lane_axis == axis).tolist()
        if not lanes:
            continue
        expected_road = cfg.density_veh_km * (lane_len / 1000.0)
        expected_lane = expected_road / len(lanes)
        if expected_lane * min_gap > lane_len:
            raise ConfigurationError(
                f"density_veh_km={cfg.density_veh_km} infeasible: expected "
                f"{expected_lane:.1f} vehicles on a {lane_len:.0f} m lane with "
                f"{min_gap:.0f} m minimum spacing"
            )
        n_road = int(rng.poisson(expected_road))
        lane_pick = rng.integers(0, len(lanes), size=n_road)
        for li, lane in enumerate(lanes):
            n = int((lane_pick == li).sum())
            if n == 0:
                continue
            slack = lane_len - (n - 1) * min_gap
            if slack < 0:
                raise ConfigurationError(
                    f"drawn {n} vehicles exceed lane capacity at {min_gap:.0f} m spacing"
                )
            u = np.sort(rng.uniform(0.0, slack, size=n))
            coords = u + min_gap * np.arange(n) - layout.arm_length_m
            placed.append((lane, coords, rng.random(n) < cfg.tall_fraction))

    row = np.repeat(np.array([lane for lane, _, _ in placed], dtype=np.intp),
                    [len(coords) for _, coords, _ in placed])
    c = np.concatenate([np.empty(0), *(coords for _, coords, _ in placed)])
    tall = np.concatenate([np.empty(0, dtype=bool), *(t for _, _, t in placed)])
    return Fleet(axis=layout.lane_axis[row],
                 direction=layout.lane_direction[row],
                 lateral=layout.lane_offset[row],
                 c=c,
                 speed=np.full(len(c), cfg.speed_mps),
                 extent=np.where(tall[:, None], TALL_EXTENT, CAR_EXTENT))


@dataclass(slots=True)
class MobilityState:
    """Carried across ticks: the seeded stream and pending turn decisions."""

    rng: np.random.Generator
    turn_probability: float = 0.25
    pending: dict[int, str] = field(default_factory=dict)

    @classmethod
    def from_seed(cls, seed: int, turn_probability: float = 0.25) -> "MobilityState":
        return cls(rng=np.random.default_rng([int(seed), _MOBILITY_TAG]),
                   turn_probability=turn_probability)


def _turn(axis: int, direction: float, c: float, lateral: float,
          clockwise: bool) -> tuple[int, float, float, float]:
    """Rotate onto the crossing road's lane through the current point: the
    position along the old axis becomes the new lateral offset."""
    along = c * direction
    if clockwise == (axis == 0):
        direction = -direction
    return 1 - axis, direction, lateral * direction, along


def step_mobility(fleet: Fleet, layout: RoadLayout, dt: float, state: MobilityState) -> None:
    """Advance every vehicle by dt at constant speed along its lane, in place.

    At the intersection a seeded Bernoulli decides turn vs straight (left and
    right split evenly); a vehicle whose center reaches the scene edge respawns
    at the entry of a uniformly chosen lane carrying over leftover distance.
    Vehicle count and identities are conserved. Vehicles that reach no turn
    line or exit this step advance together; the rest follow the scalar rules
    in row order, which keeps the order of the stream's draws.
    """
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive: {dt}")
    a = layout.arm_length_m
    o = layout.lane_offset_m
    c = fleet.c
    remaining = fleet.speed * dt
    # next event line strictly ahead on each lane: the turn lines, then the exit
    ahead = np.where(c < -o, -o, np.where(c < o, o, a))
    free = ahead - c >= remaining
    np.add(c, remaining, out=c, where=free)
    p_turn = state.turn_probability
    for k in np.nonzero(~free)[0].tolist():
        axis, direction = int(fleet.axis[k]), float(fleet.direction[k])
        c_k, lateral, left = float(c[k]), float(fleet.lateral[k]), float(remaining[k])
        while True:
            next_c = a
            kind = "exit"
            if c_k < -o:
                next_c, kind = -o, "decision"
            elif c_k < o:
                next_c, kind = o, "exec"
            if next_c - c_k >= left:
                c_k += left
                break
            left -= next_c - c_k
            c_k = next_c
            if kind == "decision":
                if k not in state.pending:
                    r = float(state.rng.random())
                    if r < 0.5 * p_turn:
                        # right turn happens at this line (its target lane runs here)
                        axis, direction, c_k, lateral = _turn(axis, direction, c_k, lateral, True)
                    elif r < p_turn:
                        state.pending[k] = "left"
                    else:
                        state.pending[k] = "straight"
            elif kind == "exec":
                if state.pending.pop(k, "straight") == "left":
                    axis, direction, c_k, lateral = _turn(axis, direction, c_k, lateral, False)
            else:  # exit: respawn at the entry of a uniformly chosen lane
                lane = int(state.rng.integers(0, len(layout.lane_axis)))
                state.pending.pop(k, None)
                axis, direction = int(layout.lane_axis[lane]), float(layout.lane_direction[lane])
                lateral = float(layout.lane_offset[lane])
                c_k = -a
        fleet.axis[k], fleet.direction[k], c[k], fleet.lateral[k] = axis, direction, c_k, lateral
