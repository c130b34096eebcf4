"""Reference implementation of vehicle mobility and body boxes.

Used by the scenario and channel tests as an oracle for the columnar
`scenario.Fleet`: one frozen `VehicleState` per vehicle, a list rebuilt with
`dataclasses.replace` on every step, each vehicle walked through its lane
events in Python, and the blocker boxes read off the vehicles one by one.
`fleet_of` and `vehicles_of` convert between the two forms. Respawns pick
from the scalar lanes of `reference_layout`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

import reference_layout
from v2xric import ConfigurationError, Fleet, MobilityState, RoadLayout


@dataclass(frozen=True, slots=True)
class VehicleState:
    vid: int  # stable identity; the RAN layer maps it to NodeId(CAV, vid)
    position: tuple[float, float]
    heading: tuple[float, float]  # unit, axis-aligned
    speed_mps: float
    extent: tuple[float, float, float]  # length, width, height


def fleet_of(vehicles: list[VehicleState]) -> Fleet:
    """The fleet whose row k is vehicles[k] (its vid is not read)."""
    frames = [_travel_frame(v) for v in vehicles]
    return Fleet(axis=np.array([axis == "y" for axis, _, _, _ in frames], dtype=np.int8),
                 direction=np.array([d for _, d, _, _ in frames], dtype=np.float64),
                 lateral=np.array([lateral for _, _, _, lateral in frames], dtype=np.float64),
                 c=np.array([c for _, _, c, _ in frames], dtype=np.float64),
                 speed=np.array([v.speed_mps for v in vehicles], dtype=np.float64),
                 extent=np.array([v.extent for v in vehicles], dtype=np.float64).reshape(-1, 3))


def vehicles_of(fleet: Fleet) -> list[VehicleState]:
    """One VehicleState per fleet row, at the fleet's positions."""
    xy = fleet.xy()
    return [
        VehicleState(vid=k, position=(float(xy[k, 0]), float(xy[k, 1])),
                     heading=_heading(int(fleet.axis[k]), int(fleet.direction[k])),
                     speed_mps=float(fleet.speed[k]),
                     extent=tuple(float(e) for e in fleet.extent[k]))
        for k in range(len(fleet))
    ]


def _heading(axis: int, direction: int) -> tuple[float, float]:
    d = float(direction)
    return (d, 0.0) if axis == 0 else (0.0, d)


def blocker_boxes(layout: RoadLayout, vehicles: list[VehicleState]) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned boxes: one per vehicle body, then one per building."""
    n = len(vehicles)
    m = len(layout.building_lo)
    lo = np.empty((n + m, 3), dtype=np.float64)
    hi = np.empty((n + m, 3), dtype=np.float64)
    for k, v in enumerate(vehicles):
        hx, hy = v.heading
        length, width, height = v.extent
        half_x = 0.5 * (length if abs(hx) >= abs(hy) else width)
        half_y = 0.5 * (width if abs(hx) >= abs(hy) else length)
        x, y = v.position
        lo[k] = (x - half_x, y - half_y, 0.0)
        hi[k] = (x + half_x, y + half_y, height)
    for k in range(m):
        lo[n + k] = layout.building_lo[k]
        hi[n + k] = layout.building_hi[k]
    return lo, hi


def _travel_frame(v: VehicleState) -> tuple[str, int, float, float]:
    """(axis, direction, travel coordinate, lateral offset) of the lane being driven."""
    hx, hy = v.heading
    if abs(hx) >= abs(hy):
        direction = 1 if hx > 0 else -1
        return "x", direction, v.position[0] * direction, v.position[1]
    direction = 1 if hy > 0 else -1
    return "y", direction, v.position[1] * direction, v.position[0]


def _point_of(axis: str, direction: int, c: float, lateral: float) -> tuple[float, float]:
    along = c * direction
    return (along, lateral) if axis == "x" else (lateral, along)


def _turn(axis: str, direction: int, c: float, lateral: float,
          heading: tuple[float, float], clockwise: bool):
    """Rotate onto the crossing road's lane passing through the current point."""
    px, py = _point_of(axis, direction, c, lateral)
    hx, hy = heading
    heading = (hy, -hx) if clockwise else (-hy, hx)
    axis = "y" if axis == "x" else "x"
    direction = 1 if (heading[0] + heading[1]) > 0 else -1
    lateral = px if axis == "y" else py
    c = (py if axis == "y" else px) * direction
    return axis, direction, c, lateral, heading


def step_mobility(vehicles: list[VehicleState], layout: RoadLayout, dt: float,
                  state: MobilityState) -> list[VehicleState]:
    """Advance every vehicle by dt at constant speed along its lane.

    At the intersection a seeded Bernoulli decides turn vs straight (left and
    right split evenly); a vehicle whose center reaches the scene edge respawns
    at the entry of a uniformly chosen lane carrying over leftover distance.
    Vehicle count and identities are conserved.
    """
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive: {dt}")
    a = layout.arm_length_m
    o = layout.lane_offset_m
    p_turn = state.turn_probability
    lanes = reference_layout.lanes(layout.road_width_m)
    out: list[VehicleState] = []
    for v in vehicles:
        axis, direction, c, lateral = _travel_frame(v)
        heading = v.heading
        remaining = v.speed_mps * dt
        while True:
            # next event strictly ahead on this lane: turn lines, then the exit
            next_c = a
            kind = "exit"
            if c < -o:
                next_c, kind = -o, "decision"
            elif c < o:
                next_c, kind = o, "exec"
            if next_c - c >= remaining:
                c += remaining
                break
            remaining -= next_c - c
            c = next_c
            if kind == "decision":
                if v.vid not in state.pending:
                    r = float(state.rng.random())
                    if r < 0.5 * p_turn:
                        # right turn happens at this line (its target lane runs here)
                        axis, direction, c, lateral, heading = _turn(
                            axis, direction, c, lateral, heading, clockwise=True)
                    elif r < p_turn:
                        state.pending[v.vid] = "left"
                    else:
                        state.pending[v.vid] = "straight"
            elif kind == "exec":
                if state.pending.pop(v.vid, "straight") == "left":
                    axis, direction, c, lateral, heading = _turn(
                        axis, direction, c, lateral, heading, clockwise=False)
            else:  # exit: respawn at the entry of a uniformly chosen lane
                lane = lanes[int(state.rng.integers(0, len(lanes)))]
                state.pending.pop(v.vid, None)
                axis, direction = lane.axis, lane.direction
                lateral, heading = lane.offset, _heading(int(lane.axis == "y"), lane.direction)
                c = -a
        out.append(replace(v, position=_point_of(axis, direction, c, lateral), heading=heading))
    return out
