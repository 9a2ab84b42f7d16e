import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from v2vbeam.errors import DegenerateRangeError, OutOfRangeError
from v2vbeam.geodata import (
    GeoPosition,
    NormalizationParams,
    fit_normalization,
    normalize,
    validate_position,
)


class TestValidatePosition:
    def test_in_range(self):
        p = GeoPosition(33.42, -111.93)
        assert validate_position(p) is p

    def test_lat_out_of_range(self):
        with pytest.raises(OutOfRangeError) as exc:
            validate_position(GeoPosition(91.0, 0.0))
        assert exc.value.field == "lat"

    def test_lon_out_of_range(self):
        with pytest.raises(OutOfRangeError) as exc:
            validate_position(GeoPosition(0.0, -180.5))
        assert exc.value.field == "lon"

    def test_inclusive_boundary(self):
        p = GeoPosition(-90.0, -180.0)
        assert validate_position(p) is p


class TestFitNormalization:
    def test_min_max_of_two_points(self):
        params = fit_normalization(np.array([[33.0, -112.0], [33.5, -111.5]]))
        assert params == NormalizationParams(33.0, 33.5, -112.0, -111.5)

    def test_degenerate_latitude(self):
        with pytest.raises(DegenerateRangeError) as exc:
            fit_normalization(np.array([[33.0, -112.0], [33.0, -111.5]]))
        assert exc.value.field == "lat"

    def test_degenerate_longitude(self):
        with pytest.raises(DegenerateRangeError) as exc:
            fit_normalization(np.array([[33.0, -112.0], [33.5, -112.0]]))
        assert exc.value.field == "lon"

    def test_collinear_points(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        assert fit_normalization(pts) == NormalizationParams(0.0, 1.0, 0.0, 1.0)

    def test_single_sample_rejected(self):
        with pytest.raises(DegenerateRangeError):
            fit_normalization(np.array([[1.0, 2.0]]))


class TestNormalize:
    PARAMS = NormalizationParams(33.0, 33.5, -112.0, -111.5)

    def test_lower_corner(self):
        n = normalize(GeoPosition(33.0, -112.0), self.PARAMS)
        assert (n.u, n.v) == (0.0, 0.0)

    def test_midpoint(self):
        n = normalize(GeoPosition(33.25, -111.75), self.PARAMS)
        assert n.u == pytest.approx(0.5, abs=1e-15)
        assert n.v == pytest.approx(0.5, abs=1e-15)

    def test_extrapolation_unclamped(self):
        # lat above lat_max by half the range
        n = normalize(GeoPosition(33.75, -111.75), self.PARAMS)
        assert n.u == pytest.approx(1.5, abs=1e-12)

    def test_degenerate_params_rejected(self):
        with pytest.raises(DegenerateRangeError):
            NormalizationParams(33.0, 33.0, -112.0, -111.5)

    @pytest.mark.parametrize(
        "values, field, message",
        [
            ((33.0, 33.0, -112.0, -111.5), "lat", "lat_max must be greater than lat_min 33.0, got 33.0"),
            ((33.0, 33.5, -111.5, -112.0), "lon", "lon_max must be greater than lon_min -111.5, got -112.0"),
            ((math.nan, 33.5, -112.0, -111.5), "lat", "lat_min must be finite, got nan"),
            ((33.0, 33.5, -112.0, math.inf), "lon", "lon_max must be finite, got inf"),
        ],
        ids=["equal-lat", "reversed-lon", "nan-lat-min", "infinite-lon-max"],
    )
    def test_degenerate_params_name_the_field(self, values, field, message):
        # a NaN range used to read "min == max"
        with pytest.raises(DegenerateRangeError) as exc:
            NormalizationParams(*values)
        assert exc.value.field == field
        assert str(exc.value) == message


finite_lat = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
finite_lon = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)


@st.composite
def position_sets(draw, min_size=2, max_size=30):
    pts = draw(
        st.lists(
            st.tuples(finite_lat, finite_lon),
            min_size=min_size,
            max_size=max_size,
        )
    )
    lats = {lat for lat, _ in pts}
    lons = {lon for _, lon in pts}
    if len(lats) < 2 or len(lons) < 2:
        # force distinct extremes on both axes
        pts += [(-10.0, -20.0), (10.0, 20.0)]
    return [GeoPosition(lat, lon) for lat, lon in pts]


class TestProperties:
    @given(position_sets())
    def test_fitting_set_maps_into_unit_square(self, pts):
        params = fit_normalization(
            np.array([(p.lat_deg, p.lon_deg) for p in pts])
        )
        normed = [normalize(p, params) for p in pts]
        assert all(0.0 <= n.u <= 1.0 and 0.0 <= n.v <= 1.0 for n in normed)
        assert min(n.u for n in normed) == 0.0
        assert max(n.u for n in normed) == 1.0
        assert min(n.v for n in normed) == 0.0
        assert max(n.v for n in normed) == 1.0

    @given(finite_lat, finite_lat)
    def test_monotone_in_latitude(self, a, b):
        if a == b:
            return
        params = NormalizationParams(-91.0, 91.0, -181.0, 181.0)
        lo, hi = min(a, b), max(a, b)
        u_lo = normalize(GeoPosition(lo, 0.0), params).u
        u_hi = normalize(GeoPosition(hi, 0.0), params).u
        assert u_lo <= u_hi
        if hi - lo > 1e-9:  # gaps below an output ULP may collapse in floats
            assert u_lo < u_hi

    def test_normalize_is_affine(self):
        params = NormalizationParams(10.0, 20.0, 30.0, 50.0)
        u = lambda lat: normalize(GeoPosition(lat, 30.0), params).u
        # affine: midpoint maps to midpoint
        assert u(15.0) == pytest.approx((u(10.0) + u(20.0)) / 2, abs=1e-15)
        assert math.isclose(u(12.5), 0.25, abs_tol=1e-15)
