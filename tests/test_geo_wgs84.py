"""Tests for WGS84 positions and spherical geometry."""

import pytest
from hypothesis import given, strategies as st

from repro.geo.wgs84 import (
    Wgs84Position,
    destination_point,
    haversine_m,
    initial_bearing_deg,
)

AARHUS = Wgs84Position(56.1629, 10.2039)
COPENHAGEN = Wgs84Position(55.6761, 12.5683)

latitudes = st.floats(min_value=-85.0, max_value=85.0)
longitudes = st.floats(min_value=-179.0, max_value=179.0)


def test_latitude_out_of_range_rejected():
    with pytest.raises(ValueError):
        Wgs84Position(91.0, 0.0)
    with pytest.raises(ValueError):
        Wgs84Position(-90.5, 0.0)


def test_longitude_normalised_into_half_open_interval():
    assert Wgs84Position(0.0, 190.0).longitude_deg == pytest.approx(-170.0)
    assert Wgs84Position(0.0, -190.0).longitude_deg == pytest.approx(170.0)
    assert Wgs84Position(0.0, 540.0).longitude_deg == pytest.approx(180.0)


def test_negative_accuracy_rejected():
    with pytest.raises(ValueError):
        Wgs84Position(0.0, 0.0, accuracy_m=-1.0)


def test_known_distance_aarhus_copenhagen():
    # Roughly 157 km between the two city centres.
    distance = AARHUS.distance_to(COPENHAGEN)
    assert 150_000 < distance < 165_000


def test_distance_is_symmetric():
    assert AARHUS.distance_to(COPENHAGEN) == pytest.approx(
        COPENHAGEN.distance_to(AARHUS)
    )


def test_zero_distance_to_self():
    assert AARHUS.distance_to(AARHUS) == 0.0


def test_bearing_due_north_and_east():
    origin = Wgs84Position(0.0, 0.0)
    north = Wgs84Position(1.0, 0.0)
    east = Wgs84Position(0.0, 1.0)
    assert origin.bearing_to(north) == pytest.approx(0.0, abs=1e-9)
    assert origin.bearing_to(east) == pytest.approx(90.0, abs=1e-9)


def test_moved_preserves_altitude():
    start = Wgs84Position(56.0, 10.0, altitude_m=25.0)
    moved = start.moved(bearing_deg=45.0, distance_m=100.0)
    assert moved.altitude_m == 25.0


@given(latitudes, longitudes, st.floats(min_value=0, max_value=359.99),
       st.floats(min_value=0.1, max_value=5000.0))
def test_destination_distance_roundtrip(lat, lon, bearing, distance):
    """Travelling d metres lands d metres away (spherical consistency)."""
    lat2, lon2 = destination_point(lat, lon, bearing, distance)
    measured = haversine_m(lat, lon, lat2, lon2)
    assert measured == pytest.approx(distance, rel=1e-6, abs=1e-6)


@given(latitudes, longitudes, st.floats(min_value=10.0, max_value=5000.0),
       st.floats(min_value=0, max_value=359.99))
def test_bearing_matches_direction_of_travel(lat, lon, distance, bearing):
    lat2, lon2 = destination_point(lat, lon, bearing, distance)
    measured = initial_bearing_deg(lat, lon, lat2, lon2)
    delta = (measured - bearing + 180.0) % 360.0 - 180.0
    assert abs(delta) < 0.1


@given(latitudes, longitudes, latitudes, longitudes)
def test_haversine_triangle_inequality_via_midpoint(lat1, lon1, lat2, lon2):
    mid_lat = (lat1 + lat2) / 2.0
    mid_lon = (lon1 + lon2) / 2.0
    direct = haversine_m(lat1, lon1, lat2, lon2)
    via = haversine_m(lat1, lon1, mid_lat, mid_lon) + haversine_m(
        mid_lat, mid_lon, lat2, lon2
    )
    assert direct <= via + 1e-6
