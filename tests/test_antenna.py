import math

import numpy as np
import pytest

from leobeams import antenna as ant
from leobeams.codebook import beam_precoder
from leobeams.geometry import direction_to

H = 1.3e6


def test_upa_positions_two_by_one():
    pos = ant.upa_positions(2, 1, 0.5)
    assert pos == pytest.approx(np.array([[-0.25, 0.0, 0.0], [0.25, 0.0, 0.0]]))


def test_upa_positions_centered():
    pos = ant.upa_positions(12, 24, 0.5)
    assert pos.shape == (288, 3)
    assert pos.mean(axis=0) == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
    assert np.all(pos[:, 2] == 0.0)


def test_satellite_array_layout():
    geom = ant.satellite_array(13, (12, 24), 0.5)
    assert geom.n_elements == 13 * 288
    assert geom.n_sub == 288
    # one sub-array aperture is nx*spacing wide; blocks sit one aperture apart,
    # so neighboring block centroids are two apertures apart along x
    centroids = np.array([geom.positions[geom.rf_map == c].mean(axis=0)
                          for c in range(13)])
    pitch = np.diff(np.sort(centroids[:, 0]))
    assert pitch == pytest.approx(2 * 12 * 0.5, abs=1e-12)
    assert centroids[:, 1] == pytest.approx(0.0, abs=1e-12)
    assert np.bincount(geom.rf_map).tolist() == [288] * 13
    # whole array centered
    assert geom.positions.mean(axis=0) == pytest.approx([0, 0, 0], abs=1e-9)


@pytest.mark.parametrize("n_rf, dims", [(1, (1, 1)), (2, (4, 3)), (13, (12, 24)),
                                         (6, (5, 2))])
def test_satellite_array_matches_block_by_block_layout(n_rf, dims):
    # the panel is laid out at once; block s is the sub-array shifted along x
    # by (s - (n_rf - 1) / 2) pitches, bit for bit
    geom = ant.satellite_array(n_rf, dims, 0.5)
    base = ant.upa_positions(*dims, 0.5)
    for s in range(n_rf):
        block = base.copy()
        block[:, 0] += (s - (n_rf - 1) / 2.0) * (2.0 * dims[0] * 0.5)
        on = geom.rf_map == s
        assert np.flatnonzero(on).tolist() == list(range(s * len(base),
                                                         (s + 1) * len(base)))
        assert geom.positions[on].tobytes() == block.tobytes()
    assert geom.rf_map.dtype == np.int64


def test_steering_vector_unit_modulus():
    geom = ant.satellite_array(2, (4, 3), 0.5)
    v = direction_to(1e5, -2e5, H)
    sv = ant.steering_vector(geom.positions, v)
    assert np.abs(sv) == pytest.approx(1.0, abs=1e-12)


def test_steering_vector_rejects_non_unit_direction():
    geom = ant.satellite_array(1, (2, 2), 0.5)
    with pytest.raises(ValueError):
        ant.steering_vector(geom.positions, np.array([0.0, 0.0, -0.5]))


def test_precoder_own_target_gain():
    geom = ant.satellite_array(13, (12, 24), 0.5)
    target = np.array([2.2e5, -1.1e5])
    pre = beam_precoder(target, geom, 5, H)
    pre.validate(geom)
    g = ant.beam_gain(geom, pre, direction_to(target[0], target[1], H))
    assert g == pytest.approx(288.0, rel=1e-9)
    assert 10 * math.log10(g) == pytest.approx(24.59, abs=0.01)


def test_precoder_zero_off_subarray_and_constant_modulus():
    geom = ant.satellite_array(13, (12, 24), 0.5)
    pre = beam_precoder(np.array([0.0, 0.0]), geom, 7, H)
    on = geom.rf_map == 7
    assert np.all(pre.coeffs[~on] == 0.0)
    assert np.abs(pre.coeffs[on]) * math.sqrt(288) == pytest.approx(1.0, abs=1e-12)


def test_precoder_rejects_bad_chain():
    geom = ant.satellite_array(2, (2, 2), 0.5)
    with pytest.raises(ValueError):
        beam_precoder(np.array([0.0, 0.0]), geom, 2, H)


def test_broadside_ula_dft_null():
    # 4-element half-wavelength line array pointed straight down: the first
    # grating null sits at a direction-cosine offset of 1/(n*d) = 0.5
    geom = ant.satellite_array(1, (4, 1), 0.5)
    pre = beam_precoder(np.array([0.0, 0.0]), geom, 0, H)
    v_null = np.array([0.5, 0.0, -math.sqrt(0.75)])
    assert ant.beam_gain(geom, pre, v_null) <= 1e-9


def test_gain_bounded_by_subarray_size():
    geom = ant.satellite_array(3, (12, 24), 0.5)
    pre = beam_precoder(np.array([1e5, 2e5]), geom, 1, H)
    rng = np.random.default_rng(3)
    for _ in range(25):
        x, y = rng.uniform(-5e5, 5e5, size=2)
        g = ant.beam_gain(geom, pre, direction_to(x, y, H))
        assert 0.0 <= g <= 288.0 + 1e-9


def test_gain_invariant_to_global_phase():
    geom = ant.satellite_array(2, (6, 8), 0.5)
    pre = beam_precoder(np.array([3e5, -2e5]), geom, 0, H)
    rotated = ant.Precoder(coeffs=pre.coeffs * np.exp(1j * 0.7),
                           rf_chain=pre.rf_chain)
    v = direction_to(-1e5, 4e4, H)
    assert ant.beam_gain(geom, rotated, v) == pytest.approx(
        ant.beam_gain(geom, pre, v), rel=1e-12)
