import numpy as np
import pytest

from leobeams import antenna as ant
from leobeams import kernels
from leobeams.codebook import beam_precoder
from leobeams.geometry import direction_to

H = 1.3e6


def _random_case(rng, n_pts, n_beams):
    px = rng.uniform(-5.3e5, 5.3e5, n_pts)
    py = rng.uniform(-1.7e5, 1.7e5, n_pts)
    tx = rng.uniform(-5.3e5, 5.3e5, n_beams)
    ty = rng.uniform(-1.7e5, 1.7e5, n_beams)
    return px, py, tx, ty


def test_kernel_matches_generic_beam_gain():
    # dual route: the separable fast kernel against the direct
    # steering-vector inner product over the full array
    rng = np.random.default_rng(11)
    px, py, tx, ty = _random_case(rng, n_pts=12, n_beams=5)
    geom = ant.satellite_array(5, (12, 24), 0.5)
    fast = kernels.gain_matrix(px, py, tx, ty, H, 12, 24, 0.5)
    for j in range(tx.size):
        pre = beam_precoder(np.array([tx[j], ty[j]]), geom, j, H)
        for i in range(px.size):
            ref = ant.beam_gain(geom, pre, direction_to(px[i], py[i], H))
            assert fast[i, j] == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_kernel_own_target_equals_subarray_size():
    rng = np.random.default_rng(4)
    tx = rng.uniform(-5e5, 5e5, 8)
    ty = rng.uniform(-1.6e5, 1.6e5, 8)
    g = kernels.gain_matrix(tx, ty, tx, ty, H, 12, 24, 0.5)
    assert np.diag(g) == pytest.approx(288.0, rel=1e-12)


def test_kernel_handles_near_coincident_directions():
    g = kernels.gain_matrix(np.array([1e-7]), np.array([0.0]),
                            np.array([0.0]), np.array([0.0]),
                            H, 12, 24, 0.5)
    assert g[0, 0] == pytest.approx(288.0, rel=1e-9)

