import math

import numpy as np
import pytest

from leobeams import link
from leobeams.antenna import satellite_array
from leobeams.geometry import slant_range

H = 1.3e6


@pytest.fixture(scope="module")
def params():
    return link.LinkParams(f_carrier=11.45e9, bandwidth=250e6, p_tx_dbw=15.0,
                           lp_cable_db=0.0, lp_at_db=0.017, noise_temp_dbk=24.1,
                           k_rician=10.0, ut_dims=(24, 24))


def test_fspl_oracles():
    # 20*log10(4*pi*d*f/c) with the exact speed of light
    d, f = 1.3e6, 11.45e9
    expect = 20 * math.log10(4 * math.pi * d * f / 299792458.0)
    assert link.fspl(d, f) == pytest.approx(expect, rel=1e-12)
    assert link.fspl(d, f) == pytest.approx(175.91, abs=0.01)
    assert link.fspl(1.4055e6, f) == pytest.approx(176.59, abs=0.01)


def test_fspl_increases_with_distance():
    d = np.array([1.3e6, 1.35e6, 1.5e6])
    v = link.fspl(d, 11.45e9)
    assert np.all(np.diff(v) > 0)


def test_noise_power_oracle():
    got = link.noise_power(24.1, 250e6)
    assert got == pytest.approx(24.1 - 228.6 + 10 * math.log10(250e6), rel=1e-12)
    assert got == pytest.approx(-120.52, abs=0.01)
    with pytest.raises(ValueError):
        link.noise_power(24.1, 0.0)


def test_g_rx_oracles():
    assert link.g_rx((24, 24), 10.0) == pytest.approx(
        10 * math.log10(576 + 0.1), rel=1e-12)
    assert link.g_rx((24, 24), 10.0) == pytest.approx(27.6, abs=0.05)
    assert link.g_rx((12, 24), 10.0) == pytest.approx(24.60, abs=0.01)
    assert link.g_rx((24, 24), math.inf) == pytest.approx(10 * math.log10(576))
    with pytest.raises(ValueError):
        link.g_rx((0, 24), 10.0)
    with pytest.raises(ValueError):
        link.g_rx((24, 24), 0.0)


def test_snr_nadir_oracle(params):
    # full budget with the maximum sub-array gain at the sub-satellite point
    got = link.snr_db(288.0, H, params)
    expect = (15.0 + 10 * math.log10(288) - 0.017 - link.fspl(H, 11.45e9)
              + link.g_rx((24, 24), 10.0) - link.noise_power(24.1, 250e6))
    assert got == pytest.approx(expect, rel=1e-12)
    assert got == pytest.approx(11.80, abs=0.05)


def test_snr_decreases_with_distance(params):
    d = np.array([1.3e6, 1.31e6, 1.4e6, 1.5e6])
    v = link.snr_db(288.0, d, params)
    assert np.all(np.diff(v) < 0)


def test_sinr_single_beam_equals_snr(params):
    r = slant_range(2e5, 1e5, H)
    rel = link.noise_rel(r, params)
    assert link.sinr_db(250.0, 0.0, rel) == pytest.approx(
        link.snr_db(250.0, r, params), abs=1e-9)


def test_sinr_below_snr_with_interference(params):
    r = slant_range(1e5, -5e4, H)
    rel = link.noise_rel(r, params)
    assert link.sinr_db(250.0, 30.0, rel) < link.snr_db(250.0, r, params)


def test_equal_split_three_beam_cap(params):
    # serving gain g against two interferers of the same g: ratio 1/2 before
    # noise, so the SINR cannot exceed -3.01 dB
    rel = link.noise_rel(H, params)
    assert link.sinr_db(100.0, 200.0, rel) <= -3.01


def test_link_params_validation():
    with pytest.raises(ValueError):
        link.LinkParams(f_carrier=1e9, bandwidth=-1.0, p_tx_dbw=0, lp_cable_db=0,
                        lp_at_db=0, noise_temp_dbk=20, k_rician=10,
                        ut_dims=(4, 4))
    with pytest.raises(ValueError):
        link.LinkParams(f_carrier=1e9, bandwidth=1e6, p_tx_dbw=0, lp_cable_db=0,
                        lp_at_db=0, noise_temp_dbk=20, k_rician=0.0,
                        ut_dims=(4, 4))


@pytest.fixture(scope="module")
def small_geome():
    return satellite_array(2, (4, 6), 0.5)


def test_rician_deterministic_under_seed(small_geome, params):
    a = link.rician_sample((1e5, 2e4), small_geome, H, params,
                           np.random.default_rng(42))
    b = link.rician_sample((1e5, 2e4), small_geome, H, params,
                           np.random.default_rng(42))
    assert np.array_equal(a.matrix, b.matrix)
    c = link.rician_sample((1e5, 2e4), small_geome, H, params,
                           np.random.default_rng(43))
    assert not np.array_equal(a.matrix, c.matrix)


def test_rician_structure(small_geome, params):
    s = link.rician_sample((5e4, -3e4), small_geome, H, params,
                           np.random.default_rng(0))
    n_ut = params.ut_dims[0] * params.ut_dims[1]
    assert s.matrix.shape == (n_ut, small_geome.n_elements)
    assert np.allclose(s.matrix, s.los_part + s.rician_part)
    # rank one: the matrix equals the outer product rebuilt from its first
    # row and column
    rebuilt = np.outer(s.matrix[:, 0], s.matrix[0, :]) / s.matrix[0, 0]
    assert np.allclose(s.matrix, rebuilt)
    # LoS entries all share the aggregate loss magnitude
    gamma = np.abs(s.los_part[0, 0])
    assert np.abs(s.los_part) == pytest.approx(gamma, rel=1e-9)


def test_rician_infinite_factor_drops_scatter(small_geome):
    p = link.LinkParams(f_carrier=11.45e9, bandwidth=250e6, p_tx_dbw=15.0,
                        lp_cable_db=0.0, lp_at_db=0.017, noise_temp_dbk=24.1,
                        k_rician=math.inf, ut_dims=(8, 8))
    s = link.rician_sample((0.0, 0.0), small_geome, H, p,
                           np.random.default_rng(1))
    assert np.all(s.rician_part == 0.0)
    assert np.array_equal(s.matrix, s.los_part)


@pytest.mark.parametrize("k_rician", [10.0, 0.5, math.inf])
@pytest.mark.parametrize("seed", [0, 7, 52])
def test_fro_norms_match_dense_parts(small_geome, k_rician, seed):
    p = link.LinkParams(f_carrier=11.45e9, bandwidth=250e6, p_tx_dbw=15.0,
                        lp_cable_db=0.0, lp_at_db=0.017, noise_temp_dbk=24.1,
                        k_rician=k_rician, ut_dims=(24, 24))
    s = link.rician_sample((7e4, -2e4), small_geome, H, p,
                           np.random.default_rng(seed))
    dense = [float(np.linalg.norm(m))
             for m in (s.matrix, s.los_part, s.rician_part)]
    # a sum of n squares carries a relative rounding error of at most n * eps
    n = s.matrix.size
    assert s.fro_norms() == pytest.approx(dense, rel=n * np.finfo(float).eps,
                                          abs=0.0)
    if k_rician == math.inf:
        assert s.fro_norms()[2] == 0.0


def test_scatter_trace_normalization():
    # E[|a|^2] per entry is 1, so the squared norm of a 576-entry draw
    # averages to 576; 10^4 seeded draws must land within 2%
    rng = np.random.default_rng(2024)
    total = 0.0
    for _ in range(10_000):
        a = link.draw_scatter(576, rng)
        total += float(np.vdot(a, a).real)
    mean = total / 10_000
    assert abs(mean - 576.0) / 576.0 < 0.02
