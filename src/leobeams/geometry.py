"""Orbit kinematics, flat-plane ground geometry, and the region of interest.

The satellite flies along +x at constant altitude over a locally flat ground
plane. The ground frame is pinned so that the sub-satellite point crosses the
origin at t = 0; the satellite frame keeps the sub-satellite point at the
origin for all t. The two frames differ by a translation of the ground-track
distance along x: ground point x sits at x - v_ground * t in the satellite
frame at time t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Physical constants of the model; no configuration key overrides them.
GRAV_CONST = 6.674e-11        # gravitational constant [m^3 kg^-1 s^-2]
EARTH_MASS = 5.972e24         # [kg]
EARTH_RADIUS = 6.371e6        # mean radius [m]
LIGHT_SPEED = 299792458.0     # exact [m/s]


def ground_track_speed(h_sat: float) -> float:
    """Speed of the sub-satellite point over the ground [m/s]: the circular
    orbit's angular rate sqrt(G M / r) / r at radius r = R + h_sat, times R."""
    r = EARTH_RADIUS + h_sat
    return float(np.sqrt(GRAV_CONST * EARTH_MASS / r)) / r * EARTH_RADIUS


def slant_range(x, y, h_sat: float):
    """Distance from the satellite to ground point(s) (x, y) in the satellite frame [m]."""
    return np.sqrt(np.square(x) + np.square(y) + h_sat * h_sat)


def direction_to(x, y, h_sat: float) -> np.ndarray:
    """Unit direction(s) from the satellite down to ground point(s) (x, y).

    Returns shape (..., 3); the z component is negative (pointing down).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = slant_range(x, y, h_sat)
    return np.stack([x / r, y / r, -h_sat / r], axis=-1)


@dataclass(frozen=True)
class Roi:
    """Elliptical region of interest, centered on the sub-satellite point.

    semi_x is the along-track semi-radius, semi_y the cross-track one [m].
    """

    semi_x: float
    semi_y: float

    def __post_init__(self):
        # `not > 0` also refuses NaN, which no point would be inside
        if not (self.semi_x > 0 and self.semi_y > 0):
            raise ValueError("Roi semi-radii must be positive")

    def contains(self, x, y):
        """Ellipse inequality, boundary points (to 1e-9 of the norm) included.
        A point far enough outside overflows the norm to inf, still outside."""
        with np.errstate(over="ignore"):
            return (np.square(np.asarray(x) / self.semi_x)
                    + np.square(np.asarray(y) / self.semi_y)) <= 1.0 + 1e-9

    def x_extent(self, y):
        """Half-width of the ellipse along x at height y (0 outside, where
        the norm may overflow to inf)."""
        with np.errstate(over="ignore"):
            s = 1.0 - np.square(np.asarray(y, dtype=float) / self.semi_y)
        return self.semi_x * np.sqrt(np.maximum(s, 0.0))
