"""Plane geometry for the building model.

Pure functions over ``(x, y)`` tuples: containment, intersection,
centroids.  Kept dependency-free so both the building model and the
particle filter's wall tests can use them in inner loops.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple

Point = Tuple[float, float]

#: One row of a segment table, as :func:`count_crossings` reads it: the
#: endpoints ``x1, y1, x2, y2`` and the direction ``x2 - x1, y2 - y1``.
SegmentRow = Tuple[float, float, float, float, float, float]

#: ``_orientation``'s collinearity tolerance on the cross product.
_COLLINEAR_EPS = 1e-12

#: ``_on_segment``'s default tolerance.
_ON_SEGMENT_EPS = 1e-9


def point_in_polygon(x: float, y: float, polygon: Sequence[Point]) -> bool:
    """Ray-casting containment test; points on edges count as inside.

    ``polygon`` is an ordered sequence of vertices (closing edge implied).
    """
    if len(polygon) < 3:
        return False
    inside = False
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        if _on_segment(x, y, x1, y1, x2, y2):
            return True
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    return inside


def _on_segment(
    px: float, py: float, x1: float, y1: float, x2: float, y2: float,
    eps: float = _ON_SEGMENT_EPS,
) -> bool:
    cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
    if abs(cross) > eps * max(1.0, abs(x2 - x1) + abs(y2 - y1)):
        return False
    dot = (px - x1) * (x2 - x1) + (py - y1) * (y2 - y1)
    length_sq = (x2 - x1) ** 2 + (y2 - y1) ** 2
    return -eps <= dot <= length_sq + eps


def _orientation(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> int:
    """Sign of the cross product (b-a) x (c-a): 1 ccw, -1 cw, 0 collinear."""
    value = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if value > _COLLINEAR_EPS:
        return 1
    if value < -_COLLINEAR_EPS:
        return -1
    return 0


def segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Whether closed segments ``p1p2`` and ``q1q2`` intersect."""
    o1 = _orientation(*p1, *p2, *q1)
    o2 = _orientation(*p1, *p2, *q2)
    o3 = _orientation(*q1, *q2, *p1)
    o4 = _orientation(*q1, *q2, *p2)
    if o1 != o2 and o3 != o4:
        return True
    # Collinear overlap cases.
    if o1 == 0 and _on_segment(q1[0], q1[1], p1[0], p1[1], p2[0], p2[1]):
        return True
    if o2 == 0 and _on_segment(q2[0], q2[1], p1[0], p1[1], p2[0], p2[1]):
        return True
    if o3 == 0 and _on_segment(p1[0], p1[1], q1[0], q1[1], q2[0], q2[1]):
        return True
    if o4 == 0 and _on_segment(p2[0], p2[1], q1[0], q1[1], q2[0], q2[1]):
        return True
    return False


def segment_table(segments: Iterable[Tuple[Point, Point]]) -> Tuple[SegmentRow, ...]:
    """The rows :func:`count_crossings` reads, one per ``(start, end)``."""
    return tuple(
        (x1, y1, x2, y2, x2 - x1, y2 - y1) for (x1, y1), (x2, y2) in segments
    )


def count_crossings(
    table: Sequence[SegmentRow], p1: Point, p2: Point, stop_at: int = 0
) -> int:
    """How many segments of ``table`` intersect the closed segment ``p1p2``.

    Equal to counting :func:`segments_intersect` over the rows.  The
    four cross products are computed inline, in
    :func:`segments_intersect`'s operand order, so they are the same
    floats.  When all four are clear of the collinearity tolerance the
    pair is decided here; every other pair (collinear, touching, or
    with a zero-length side) goes to :func:`segments_intersect`, which
    stays the one definition of the semantics.  There is no
    bounding-box reject: by that definition a near-collinear pair can
    intersect while its boxes are disjoint.  With ``stop_at`` > 0 the
    count stops once it reaches ``stop_at``.
    """
    ax, ay = p1
    bx, by = p2
    dx = bx - ax
    dy = by - ay
    eps = _COLLINEAR_EPS
    count = 0
    for qx1, qy1, qx2, qy2, ex, ey in table:
        v1 = dx * (qy1 - ay) - dy * (qx1 - ax)
        v2 = dx * (qy2 - ay) - dy * (qx2 - ax)
        v3 = ex * (ay - qy1) - ey * (ax - qx1)
        v4 = ex * (by - qy1) - ey * (bx - qx1)
        if abs(v1) > eps and abs(v2) > eps and abs(v3) > eps and abs(v4) > eps:
            if (v1 > 0.0) == (v2 > 0.0) or (v3 > 0.0) == (v4 > 0.0):
                continue
        elif not segments_intersect(p1, p2, (qx1, qy1), (qx2, qy2)):
            continue
        count += 1
        if count == stop_at:
            break
    return count


def polygon_area(polygon: Sequence[Point]) -> float:
    """Signed shoelace area (positive for counter-clockwise winding)."""
    if len(polygon) < 3:
        return 0.0
    total = 0.0
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total / 2.0


def polygon_centroid(polygon: Sequence[Point]) -> Point:
    """Area-weighted centroid; falls back to vertex mean for slivers."""
    area = polygon_area(polygon)
    if abs(area) < 1e-12:
        xs = [p[0] for p in polygon]
        ys = [p[1] for p in polygon]
        return sum(xs) / len(xs), sum(ys) / len(ys)
    cx = cy = 0.0
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        factor = x1 * y2 - x2 * y1
        cx += (x1 + x2) * factor
        cy += (y1 + y2) * factor
    return cx / (6.0 * area), cy / (6.0 * area)


def bounding_box(polygon: Sequence[Point]) -> Tuple[float, float, float, float]:
    """``(min_x, min_y, max_x, max_y)`` of the vertex set."""
    xs = [p[0] for p in polygon]
    ys = [p[1] for p in polygon]
    return min(xs), min(ys), max(xs), max(ys)


def containment_box(
    polygon: Sequence[Point],
) -> Optional[Tuple[float, float, float, float]]:
    """A box outside which :func:`point_in_polygon` is always ``False``.

    The vertices' bounding box, grown by a margin that covers the edge
    tolerance of ``_on_segment`` -- which reaches up to
    ``eps * (1 + max(1, |dx| + |dy|)) / length`` past an edge, far
    past a short one -- plus slack for rounding.  ``None`` when there
    is no such box (an edge of zero length counts every point as on
    it, and a non-finite vertex defeats the bound) and for fewer than
    three vertices, which contain no point anyway.
    """
    if len(polygon) < 3:
        return None
    eps = _ON_SEGMENT_EPS
    margin = 0.0
    largest = 0.0
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        if not (math.isfinite(x1) and math.isfinite(y1)):
            return None
        l1 = abs(x2 - x1) + abs(y2 - y1)
        if l1 == 0.0:
            return None
        # length >= l1 / sqrt(2); the factor 2 leaves room for rounding.
        margin = max(margin, 2.0 * eps * (1.0 + max(1.0, l1)) / l1)
        largest = max(largest, abs(x1), abs(y1))
    margin += eps * (1.0 + largest)
    min_x, min_y, max_x, max_y = bounding_box(polygon)
    return min_x - margin, min_y - margin, max_x + margin, max_y + margin
