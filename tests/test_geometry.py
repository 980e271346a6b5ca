"""Tests for the plane-geometry helpers."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.model.geometry import (
    bounding_box,
    containment_box,
    count_crossings,
    point_in_polygon,
    polygon_area,
    polygon_centroid,
    segment_table,
    segments_intersect,
)

SQUARE = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]
L_SHAPE = [(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)]


class TestPointInPolygon:
    def test_interior_point(self):
        assert point_in_polygon(5.0, 5.0, SQUARE)

    def test_exterior_point(self):
        assert not point_in_polygon(15.0, 5.0, SQUARE)
        assert not point_in_polygon(-1.0, 5.0, SQUARE)

    def test_boundary_counts_as_inside(self):
        assert point_in_polygon(0.0, 5.0, SQUARE)
        assert point_in_polygon(10.0, 10.0, SQUARE)

    def test_concave_polygon(self):
        assert point_in_polygon(1.0, 3.0, L_SHAPE)
        assert not point_in_polygon(3.0, 3.0, L_SHAPE)

    def test_degenerate_polygon(self):
        assert not point_in_polygon(0.0, 0.0, [(0, 0), (1, 1)])

    @given(
        st.floats(min_value=0.1, max_value=9.9),
        st.floats(min_value=0.1, max_value=9.9),
    )
    def test_square_interior_property(self, x, y):
        assert point_in_polygon(x, y, SQUARE)

    @given(st.floats(min_value=10.01, max_value=100.0),
           st.floats(min_value=-100.0, max_value=100.0))
    def test_square_exterior_property(self, x, y):
        assert not point_in_polygon(x, y, SQUARE)


class TestSegmentsIntersect:
    def test_crossing_segments(self):
        assert segments_intersect((0, 0), (10, 10), (0, 10), (10, 0))

    def test_parallel_segments(self):
        assert not segments_intersect((0, 0), (10, 0), (0, 1), (10, 1))

    def test_touching_at_endpoint(self):
        assert segments_intersect((0, 0), (5, 5), (5, 5), (10, 0))

    def test_collinear_overlap(self):
        assert segments_intersect((0, 0), (10, 0), (5, 0), (15, 0))

    def test_collinear_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))

    def test_t_junction(self):
        assert segments_intersect((0, 0), (10, 0), (5, -5), (5, 0))

    def test_near_miss(self):
        assert not segments_intersect((0, 0), (10, 0), (5, 0.01), (5, 5))

    def test_near_collinear_pair_intersects_with_disjoint_boxes(self):
        # 0.5 m apart, yet every orientation falls inside the collinearity
        # tolerance and the collinear branch accepts (1.5, 0): the reason
        # the crossing kernel has no bounding-box reject.
        assert segments_intersect((0, 0), (1, 0), (1.5, 0), (11.5, 1.5e-12))


#: Coordinates that make the kernel's hard cases common: free floats,
#: grid-snapped values (touching, collinear and zero-length segments)
#: and values a collinearity tolerance apart.
coordinates = st.one_of(
    st.floats(min_value=-50.0, max_value=50.0),
    st.integers(min_value=-3, max_value=3).map(float),
    st.sampled_from([0.0, 1.0, 1e-13, 1e-12, 1.5e-12, -1e-12, 0.5 + 1e-12]),
)
points = st.tuples(coordinates, coordinates)


@st.composite
def near_collinear_segments(draw):
    """A segment on the line y = slope * x, each end nudged off it by at
    most a few collinearity tolerances."""
    slope = draw(st.sampled_from([0.0, 1.0, -0.5, 3.0]))
    nudge = st.sampled_from([0.0, 1e-13, -1e-13, 1e-12, -2e-12, 1e-9])
    x1 = draw(coordinates)
    x2 = draw(coordinates)
    return (
        (x1, slope * x1 + draw(nudge)),
        (x2, slope * x2 + draw(nudge)),
    )


segments = st.one_of(st.tuples(points, points), near_collinear_segments())


class TestCrossingKernel:
    """count_crossings is segments_intersect counted over a table."""

    @settings(max_examples=400, deadline=None)
    @given(query=segments, walls=st.lists(segments, max_size=8))
    @example(query=((0.0, 0.0), (1.0, 0.0)), walls=[((1.5, 0.0), (11.5, 1.5e-12))])
    @example(query=((2.0, 2.0), (2.0, 2.0)), walls=[((0.0, 0.0), (5.0, 0.0))])
    @example(query=((0.0, 0.0), (4.0, 0.0)), walls=[((1.0, 1.0), (1.0, 1.0))])
    def test_equals_segments_intersect(self, query, walls):
        p1, p2 = query
        expected = sum(segments_intersect(p1, p2, q1, q2) for q1, q2 in walls)
        table = segment_table(walls)
        assert count_crossings(table, p1, p2) == expected
        assert count_crossings(table, p1, p2, stop_at=1) == min(expected, 1)


polygons = st.lists(points, min_size=3, max_size=6)


class TestContainmentBox:
    @settings(max_examples=300, deadline=None)
    @given(polygon=polygons, point=points)
    @example(polygon=[(0.0, 0.0), (1e-12, 0.0), (0.0, 1.0)], point=(-0.5, 0.0))
    def test_no_point_outside_the_box_is_contained(self, polygon, point):
        box = containment_box(polygon)
        x, y = point
        if box is not None and not (box[0] <= x <= box[2] and box[1] <= y <= box[3]):
            assert not point_in_polygon(x, y, polygon)

    def test_zero_length_edge_has_no_box(self):
        assert containment_box(SQUARE + [SQUARE[0]]) is None


class TestAreaAndCentroid:
    def test_square_area(self):
        assert polygon_area(SQUARE) == pytest.approx(100.0)

    def test_winding_sign(self):
        assert polygon_area(list(reversed(SQUARE))) == pytest.approx(-100.0)

    def test_l_shape_area(self):
        assert abs(polygon_area(L_SHAPE)) == pytest.approx(12.0)

    def test_square_centroid(self):
        assert polygon_centroid(SQUARE) == pytest.approx((5.0, 5.0))

    def test_centroid_inside_convex_polygon(self):
        cx, cy = polygon_centroid(SQUARE)
        assert point_in_polygon(cx, cy, SQUARE)

    def test_degenerate_centroid_falls_back_to_mean(self):
        cx, cy = polygon_centroid([(0, 0), (2, 0), (4, 0)])
        assert (cx, cy) == pytest.approx((2.0, 0.0))

    def test_bounding_box(self):
        assert bounding_box(L_SHAPE) == (0, 0, 4, 4)
