"""GPS position types and min-max normalization for model input.

Raw positions are decimal degrees. The model consumes dimensionless
coordinates scaled against the extremes of a fitting set (normally the
training split, so the test split never leaks into the scaling). Values
outside the fitting range map outside [0, 1] on purpose: clamping would
destroy monotonicity for unseen positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRangeError, OutOfRangeError


@dataclass(frozen=True)
class GeoPosition:
    """A raw GPS fix in decimal degrees."""

    lat_deg: float
    lon_deg: float


@dataclass(frozen=True)
class NormalizationParams:
    """Per-axis extremes of the fitting set, used for min-max scaling."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        # each message begins with a field's name, which config_section then names
        for axis in ("lat", "lon"):
            low, high = getattr(self, f"{axis}_min"), getattr(self, f"{axis}_max")
            for name, value in ((f"{axis}_min", low), (f"{axis}_max", high)):
                if not math.isfinite(value):
                    raise DegenerateRangeError(axis, f"{name} must be finite, got {value!r}")
            if not high > low:
                raise DegenerateRangeError(
                    axis, f"{axis}_max must be greater than {axis}_min {low!r}, got {high!r}"
                )


@dataclass(frozen=True)
class NormalizedPosition:
    """Dimensionless position; in [0, 1]^2 for positions from the fitting set."""

    u: float
    v: float


def validate_position(p: GeoPosition) -> GeoPosition:
    """Return ``p`` unchanged if it lies within decimal-degree bounds.

    Raises OutOfRangeError("lat") or OutOfRangeError("lon") otherwise.
    Bounds are inclusive: lat in [-90, 90], lon in [-180, 180].
    """
    if not (-90.0 <= p.lat_deg <= 90.0):
        raise OutOfRangeError("lat", p.lat_deg)
    if not (-180.0 <= p.lon_deg <= 180.0):
        raise OutOfRangeError("lon", p.lon_deg)
    return p


def fit_normalization(positions: np.ndarray) -> NormalizationParams:
    """Compute exact per-axis min/max over an (n, 2) array of [lat, lon] degrees.

    Needs at least two distinct latitudes and two distinct longitudes;
    a degenerate axis would make the scale factor undefined.
    """
    lats, lons = positions[:, 0], positions[:, 1]
    if len(lats) < 2 or lats.min() == lats.max():
        raise DegenerateRangeError("lat")
    if lons.min() == lons.max():
        raise DegenerateRangeError("lon")
    return NormalizationParams(
        float(lats.min()), float(lats.max()), float(lons.min()), float(lons.max())
    )


def normalize(p: GeoPosition, params: NormalizationParams) -> NormalizedPosition:
    """Min-max scale ``p`` against ``params``. No clamping."""
    u = (p.lat_deg - params.lat_min) / (params.lat_max - params.lat_min)
    v = (p.lon_deg - params.lon_min) / (params.lon_max - params.lon_min)
    return NormalizedPosition(u, v)


def normalize_points(points: np.ndarray, params: NormalizationParams) -> np.ndarray:
    """:func:`normalize` for an (n, 2) array of [lat, lon]; returns (n, 2) [u, v].

    Each element takes the same two float operations, so the values are
    bit-identical to the scalar form.
    """
    lo = np.array([params.lat_min, params.lon_min])
    span = np.array(
        [params.lat_max - params.lat_min, params.lon_max - params.lon_min]
    )
    return (points - lo) / span
