"""Buildings, floors, rooms and walls.

The building model answers the three questions the middleware asks of it:

* *which room is this position in?* -- the Resolver component (Fig. 1)
  producing "Positions (RoomID)";
* *does this movement cross a wall?* -- the particle filter's motion
  constraint (§3.2, Fig. 6);
* *how many walls lie between two points?* -- attenuation input for the
  WiFi radio model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geo.grid import GridPosition, LocalGrid
from repro.geo.wgs84 import Wgs84Position
from repro.model.geometry import (
    Point,
    bounding_box,
    containment_box,
    count_crossings,
    point_in_polygon,
    polygon_centroid,
    segment_table,
)


@dataclass(frozen=True)
class Wall:
    """A wall segment in grid coordinates on one floor."""

    x1: float
    y1: float
    x2: float
    y2: float
    floor: int = 0

    @property
    def start(self) -> Point:
        return (self.x1, self.y1)

    @property
    def end(self) -> Point:
        return (self.x2, self.y2)


@dataclass(frozen=True)
class Room:
    """A named room bounded by a polygon in grid coordinates."""

    room_id: str
    name: str
    floor: int
    polygon: Tuple[Point, ...]

    def contains(self, position: GridPosition) -> bool:
        if position.floor != self.floor:
            return False
        return point_in_polygon(position.x_m, position.y_m, self.polygon)

    @property
    def centroid(self) -> GridPosition:
        cx, cy = polygon_centroid(self.polygon)
        return GridPosition(cx, cy, self.floor)


@dataclass(frozen=True)
class SymbolicLocation:
    """A room-level position: the output of the Resolver component."""

    building_id: str
    room_id: Optional[str]
    floor: int
    timestamp: Optional[float] = None

    @property
    def is_inside(self) -> bool:
        return self.room_id is not None


class Floor:
    """One building storey: rooms plus interior/exterior walls.

    Immutable after construction, so the lookup tables built here stay
    current: each room's :func:`containment_box` (``None`` where the
    room has no such box) and the walls as one segment table for the
    wall-crossing kernel.
    """

    def __init__(
        self, level: int, rooms: Sequence[Room], walls: Sequence[Wall]
    ) -> None:
        self.level = level
        self.rooms = tuple(rooms)
        self.walls = tuple(w for w in walls if w.floor == level)
        for room in self.rooms:
            if room.floor != level:
                raise ValueError(
                    f"room {room.room_id} declared for floor {room.floor},"
                    f" placed on floor {level}"
                )
        self._room_boxes = tuple(
            (room, containment_box(room.polygon)) for room in self.rooms
        )
        self._wall_table = segment_table((w.start, w.end) for w in self.walls)

    def room_at(self, position: GridPosition) -> Optional[Room]:
        x = position.x_m
        y = position.y_m
        for room, box in self._room_boxes:
            if box is not None and (
                x < box[0] or y < box[1] or x > box[2] or y > box[3]
            ):
                continue
            if room.contains(position):
                return room
        return None


class Building:
    """A building anchored in the world by a :class:`LocalGrid`.

    The grid makes the building usable from both sides of the middleware:
    geodetic positions from GPS resolve into rooms, and grid positions
    from the WiFi engine lift back to WGS84.
    """

    def __init__(
        self, building_id: str, grid: LocalGrid, floors: Sequence[Floor]
    ) -> None:
        if not floors:
            raise ValueError("a building needs at least one floor")
        self.building_id = building_id
        self.grid = grid
        self._floors: Dict[int, Floor] = {f.level: f for f in floors}
        if len(self._floors) != len(floors):
            raise ValueError("duplicate floor levels")

    @property
    def floors(self) -> List[Floor]:
        return [self._floors[k] for k in sorted(self._floors)]

    def floor(self, level: int) -> Floor:
        try:
            return self._floors[level]
        except KeyError:
            raise KeyError(
                f"building {self.building_id} has no floor {level}"
            ) from None

    def rooms(self) -> List[Room]:
        return [room for floor in self.floors for room in floor.rooms]

    def room_by_id(self, room_id: str) -> Room:
        for room in self.rooms():
            if room.room_id == room_id:
                return room
        raise KeyError(f"no room {room_id!r} in {self.building_id}")

    # -- spatial queries ---------------------------------------------------

    def room_at(self, position: GridPosition) -> Optional[Room]:
        floor = self._floors.get(position.floor)
        return floor.room_at(position) if floor else None

    def room_at_wgs84(self, position: Wgs84Position) -> Optional[Room]:
        return self.room_at(self.grid.to_grid(position))

    def resolve(self, position: Wgs84Position) -> SymbolicLocation:
        """Resolver semantics: position to room id (None when outside)."""
        grid_pos = self.grid.to_grid(position)
        room = self.room_at(grid_pos)
        return SymbolicLocation(
            building_id=self.building_id,
            room_id=room.room_id if room else None,
            floor=grid_pos.floor,
            timestamp=position.timestamp,
        )

    def contains(self, position: GridPosition) -> bool:
        return self.room_at(position) is not None

    def crosses_wall(self, a: GridPosition, b: GridPosition) -> bool:
        """Whether the straight move from ``a`` to ``b`` crosses any wall.

        Moves between floors are always considered blocked: the model has
        no stairwells, and the particle filter treats floor changes as
        impossible within one step.
        """
        if a.floor != b.floor:
            return True
        floor = self._floors.get(a.floor)
        if floor is None:
            return False
        return (
            count_crossings(
                floor._wall_table, (a.x_m, a.y_m), (b.x_m, b.y_m), stop_at=1
            )
            > 0
        )

    def walls_between(self, a: GridPosition, b: GridPosition) -> int:
        """Number of wall segments crossed by the straight line a->b."""
        if a.floor != b.floor:
            # One slab per floor of separation approximates inter-floor
            # attenuation for the radio model.
            return 2 * abs(a.floor - b.floor)
        floor = self._floors.get(a.floor)
        if floor is None:
            return 0
        return count_crossings(floor._wall_table, (a.x_m, a.y_m), (b.x_m, b.y_m))

    def footprint(self, level: int = 0) -> Tuple[float, float, float, float]:
        """Bounding box ``(min_x, min_y, max_x, max_y)`` of a floor."""
        floor = self.floor(level)
        points: List[Point] = []
        for room in floor.rooms:
            points.extend(room.polygon)
        for wall in floor.walls:
            points.extend([wall.start, wall.end])
        if not points:
            return (0.0, 0.0, 0.0, 0.0)
        return bounding_box(points)
