import math

import numpy as np
import pytest

from leobeams import geometry as geo

H = 1.3e6


def test_orbital_speed_oracle():
    # independent evaluation of the orbital speed sqrt(G*M/(Re+h)) at the
    # reference height, carried to the ground track by Re/(Re+h)
    r = 6.371e6 + H
    v = math.sqrt(6.674e-11 * 5.972e24 / r)
    assert v == pytest.approx(7208.20, abs=0.01)
    assert geo.ground_track_speed(H) == pytest.approx(v * 6.371e6 / r,
                                                      rel=1e-12)


def test_angular_and_ground_speed_oracles():
    # the angular rate seen from the Earth's center is the ground speed / Re
    w = geo.ground_track_speed(H) / 6.371e6
    assert w == pytest.approx(7208.1967 / (6.371e6 + H), rel=1e-4)
    assert w == pytest.approx(9.3967e-4, rel=1e-4)
    assert geo.ground_track_speed(H) == pytest.approx(5986.63, abs=0.01)


def test_speeds_decrease_with_height():
    hs = np.linspace(3e5, 2e6, 9)
    v = [geo.ground_track_speed(h) for h in hs]
    assert all(a > b for a, b in zip(v, v[1:]))


def test_slant_range_floor_at_nadir():
    assert geo.slant_range(0.0, 0.0, H) == H
    assert geo.slant_range(1.0, -2.0, H) > H


def test_direction_unit_norm_and_symmetry():
    v = geo.direction_to(H, 0.0, H)
    assert v == pytest.approx([math.sqrt(0.5), 0.0, -math.sqrt(0.5)], abs=1e-12)
    v = geo.direction_to(0.0, H, H)
    assert v == pytest.approx([0.0, math.sqrt(0.5), -math.sqrt(0.5)], abs=1e-12)
    xs = np.array([0.0, 1e5, -3e5])
    ys = np.array([2e5, -1e4, 0.0])
    vs = geo.direction_to(xs, ys, H)
    assert np.linalg.norm(vs, axis=-1) == pytest.approx(1.0, abs=1e-12)


def test_range_times_direction_reconstructs_point():
    x, y = 123456.7, -98765.4
    r = geo.slant_range(x, y, H)
    v = geo.direction_to(x, y, H)
    assert r * v == pytest.approx([x, y, -H], rel=1e-12)


def test_roi_contains_boundary_and_extent():
    roi = geo.Roi(534.1e3, 170.5e3)
    assert roi.contains(534.1e3, 0.0)
    assert roi.contains(0.0, 170.5e3)
    assert not roi.contains(534.2e3, 0.0)
    assert roi.x_extent(0.0) == pytest.approx(534.1e3)
    assert roi.x_extent(170.5e3) == 0.0
    assert roi.x_extent(200e3) == 0.0
    y = 100e3
    expect = 534.1e3 * math.sqrt(1 - (y / 170.5e3) ** 2)
    assert roi.x_extent(y) == pytest.approx(expect, rel=1e-12)


def test_roi_rejects_bad_radii():
    with pytest.raises(ValueError):
        geo.Roi(-1.0, 1.0)
    with pytest.raises(ValueError):
        geo.Roi(1.0, 0.0)
    for semi in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            geo.Roi(*semi)
