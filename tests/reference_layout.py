"""Reference construction of the intersection scene, one object per element.

Used by the scenario and mobility tests as an oracle for the columnar
`scenario.RoadLayout` and `scenario.default_rsus`: one `Building` per corner
block, one `Lane` per directed lane with its axis named "x" or "y", and one
`RsuNode` per corner mast. `layout_columns` and `rsu_columns` read them off
into the arrays the simulator carries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class Building:
    x0: float
    y0: float
    x1: float
    y1: float
    height: float


@dataclass(frozen=True, slots=True)
class Lane:
    """One directed lane. Travel coordinate c runs from -arm_length_m (entry)
    to +arm_length_m (exit) along the driving direction."""

    axis: str  # "x" or "y"
    direction: int  # +1 or -1 along that axis
    offset: float  # perpendicular centerline offset


@dataclass(frozen=True, slots=True)
class RsuNode:
    """Roadside unit on a corner mast."""

    rid: int
    position: tuple[float, float]
    mast_height_m: float = 6.0


def corner_points(road_width_m: float, building_setback_m: float):
    """Inner building corners nearest the junction, one per quadrant."""
    s = road_width_m / 2.0 + building_setback_m
    return ((s, s), (-s, s), (-s, -s), (s, -s))


def buildings(arm_length_m: float, road_width_m: float, building_setback_m: float,
              building_height_m: float) -> tuple[Building, ...]:
    s = road_width_m / 2.0 + building_setback_m
    a, h = arm_length_m, building_height_m
    return (
        Building(s, s, a, a, h),
        Building(-a, s, -s, a, h),
        Building(-a, -a, -s, -s, h),
        Building(s, -a, a, -s, h),
    )


def lanes(road_width_m: float) -> tuple[Lane, ...]:
    o = road_width_m / 4.0
    return (
        Lane("x", +1, -o),  # eastbound, south side
        Lane("x", -1, +o),  # westbound, north side
        Lane("y", +1, +o),  # northbound, east side
        Lane("y", -1, -o),  # southbound, west side
    )


def rsus(road_width_m: float, building_setback_m: float,
         mast_height_m: float = 6.0) -> list[RsuNode]:
    """One RSU per inner building corner, LOS down both arms of its quadrant."""
    return [RsuNode(rid=k, position=p, mast_height_m=mast_height_m)
            for k, p in enumerate(corner_points(road_width_m, building_setback_m))]


def layout_columns(blocks: tuple[Building, ...], lane_list: tuple[Lane, ...]) -> dict:
    """The RoadLayout columns of these buildings and lanes."""
    return dict(
        building_lo=np.array([(b.x0, b.y0, 0.0) for b in blocks],
                             dtype=np.float64).reshape(-1, 3),
        building_hi=np.array([(b.x1, b.y1, b.height) for b in blocks],
                             dtype=np.float64).reshape(-1, 3),
        lane_axis=np.array([lane.axis == "y" for lane in lane_list], dtype=np.int8),
        lane_direction=np.array([lane.direction for lane in lane_list], dtype=np.float64),
        lane_offset=np.array([lane.offset for lane in lane_list], dtype=np.float64),
    )


def rsu_columns(nodes: list[RsuNode]) -> np.ndarray:
    """(R, 3) mast tops in `rid` order."""
    return np.array([(*r.position, r.mast_height_m) for r in sorted(nodes, key=lambda r: r.rid)],
                    dtype=np.float64).reshape(-1, 3)
