import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leobeams import link
from leobeams.antenna import satellite_array, steering_vector, upa_positions
from leobeams.codebook import beam_precoder
from leobeams.config import SceneConfig, build_scene
from leobeams.geometry import direction_to, slant_range
from leobeams.kernels import gain_matrix
from leobeams.simulate import codebook_for

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


def _parts(sample):
    """Dense H and its LoS and scattered parts, each col outer conj(a_sat)."""
    cols = (sample.los_col + sample.scatter_col, sample.los_col,
            sample.scatter_col)
    return [np.outer(c, np.conj(sample.a_sat)) for c in cols]


def test_rician_deterministic_under_seed(small_geome, params):
    a = link.rician_sample((1e5, 2e4), small_geome, H, params,
                           np.random.default_rng(42))
    b = link.rician_sample((1e5, 2e4), small_geome, H, params,
                           np.random.default_rng(42))
    assert np.array_equal(_parts(a)[0], _parts(b)[0])
    c = link.rician_sample((1e5, 2e4), small_geome, H, params,
                           np.random.default_rng(43))
    assert not np.array_equal(_parts(a)[0], _parts(c)[0])


def test_rician_structure(small_geome, params):
    s = link.rician_sample((5e4, -3e4), small_geome, H, params,
                           np.random.default_rng(0))
    matrix, los, scatter = _parts(s)
    n_ut = params.ut_dims[0] * params.ut_dims[1]
    assert matrix.shape == (n_ut, small_geome.n_elements)
    assert np.allclose(matrix, los + scatter)
    # rank one: the matrix equals the outer product rebuilt from its first
    # row and column
    rebuilt = np.outer(matrix[:, 0], matrix[0, :]) / matrix[0, 0]
    assert np.allclose(matrix, rebuilt)
    # LoS entries all share the aggregate loss magnitude
    gamma = np.abs(los[0, 0])
    assert np.abs(los) == pytest.approx(gamma, rel=1e-9)


def test_rician_infinite_factor_drops_scatter(small_geome):
    p = link.LinkParams(f_carrier=11.45e9, bandwidth=250e6, p_tx_dbw=15.0,
                        lp_cable_db=0.0, lp_at_db=0.017, noise_temp_dbk=24.1,
                        k_rician=math.inf, ut_dims=(8, 8))
    s = link.rician_sample((0.0, 0.0), small_geome, H, p,
                           np.random.default_rng(1))
    matrix, los, scatter = _parts(s)
    assert np.all(scatter == 0.0)
    assert np.array_equal(matrix, los)


@pytest.mark.parametrize("k_rician", [10.0, 0.5, math.inf])
@pytest.mark.parametrize("seed", [0, 7, 52])
def test_fro_norms_match_dense_parts(small_geome, k_rician, seed):
    p = link.LinkParams(f_carrier=11.45e9, bandwidth=250e6, p_tx_dbw=15.0,
                        lp_cable_db=0.0, lp_at_db=0.017, noise_temp_dbk=24.1,
                        k_rician=k_rician, ut_dims=(24, 24))
    s = link.rician_sample((7e4, -2e4), small_geome, H, p,
                           np.random.default_rng(seed))
    parts = _parts(s)
    dense = [float(np.linalg.norm(m)) for m in parts]
    # a sum of n squares carries a relative rounding error of at most n * eps
    n = parts[0].size
    assert s.fro_norms() == pytest.approx(dense, rel=n * np.finfo(float).eps,
                                          abs=0.0)
    if k_rician == math.inf:
        assert s.fro_norms()[2] == 0.0


def _matched_combiner(point, h_sat, ut_dims):
    """w = a_ut / ||a_ut||, the terminal's combiner matched to the LoS
    direction, built from the geometry rather than from a channel sample."""
    v_down = direction_to(point[0], point[1], h_sat)
    a_ut = steering_vector(upa_positions(ut_dims[0], ut_dims[1], 0.5), -v_down)
    return a_ut / np.linalg.norm(a_ut)


@pytest.fixture(scope="module")
def los_scene():
    # pure line of sight, with both loss terms of gamma nonzero
    return build_scene(SceneConfig(rician_factor=math.inf, cable_loss_db=1.7,
                                   atmos_loss_db=0.3))


@st.composite
def _roi_beam_case(draw):
    """A codebook mode, one of its iterations, and a point in the ROI ellipse."""
    mode = draw(st.sampled_from(["hex", "dft"]))
    k = draw(st.integers(0, 3)) if mode == "hex" else 0
    r = draw(st.floats(0.0, 1.0))
    phi = draw(st.floats(-math.pi, math.pi))
    return mode, k, r, phi


@settings(derandomize=True, deadline=None, max_examples=40)
@given(case=_roi_beam_case())
def test_budget_equals_rank1_channel_response(los_scene, case):
    # at K = inf, H = gamma * a_ut a_sat^H, so beam b reaches the matched
    # combiner with power P_tx |w^H los_col|^2 |a_sat^H f_b|^2: the budget's
    # SNR and SINR, built from gain_matrix, snr_db, noise_rel and sinr_db,
    # must equal those powers over the thermal noise
    mode, k, r, phi = case
    sc, lp = los_scene, los_scene.link
    x, y = r * sc.roi.semi_x * math.cos(phi), r * sc.roi.semi_y * math.sin(phi)
    book = codebook_for(sc, mode)
    targets, rf = book.targets[k], book.rf[k]
    s = link.rician_sample((x, y), sc.geometry, sc.h_sat, lp,
                           np.random.default_rng(0))
    w = _matched_combiner((x, y), sc.h_sat, lp.ut_dims)
    ut = abs(np.vdot(w, s.los_col + s.scatter_col)) ** 2
    sat = np.array([abs(np.vdot(s.a_sat, beam_precoder(
        t, sc.geometry, c, sc.h_sat).coeffs)) ** 2 for t, c in zip(targets, rf)])
    powers = link.db_to_linear(lp.p_tx_dbw) * ut * sat
    noise = link.db_to_linear(lp.noise_temp_dbk + link.BOLTZMANN_DBW
                              + 10.0 * math.log10(lp.bandwidth))

    g = gain_matrix([x], [y], targets[:, 0], targets[:, 1], sc.h_sat,
                    sc.geometry.subarray_nx, sc.geometry.subarray_ny,
                    sc.geometry.spacing)[0]
    b = int(np.argmax(g))
    d = slant_range(x, y, sc.h_sat)
    assert link.snr_db(g[b], d, lp) == pytest.approx(
        link.linear_to_db(powers[b] / noise), rel=0.0, abs=1e-9)
    sinr = link.sinr_db(g[b], g.sum() - g[b], link.noise_rel(d, lp))
    interf = np.delete(powers, b).sum()
    assert sinr == pytest.approx(
        link.linear_to_db(powers[b] / (interf + noise)), rel=0.0, abs=1e-9)


def test_mean_combining_gain_is_g_rx(small_geome):
    # with w matched to a_ut, |w^H (los_col + scatter_col)|^2 / gamma^2 is
    # |sqrt(N) + sqrt(1/K) z|^2 with z ~ CN(0, 1): mean N + 1/K, which g_rx
    # assumes, and variance 2N/K + 1/K^2, which sets the bound on the mean
    # of n seeded draws at five standard errors
    n_ut, k, n = 4, 0.5, 4000
    p = link.LinkParams(f_carrier=11.45e9, bandwidth=250e6, p_tx_dbw=15.0,
                        lp_cable_db=1.7, lp_at_db=0.3, noise_temp_dbk=24.1,
                        k_rician=k, ut_dims=(2, 2))
    point = (6e4, -2.5e4)
    gamma_sq = link.db_to_linear(-(link.fspl(slant_range(*point, H),
                                             p.f_carrier) + 0.3 + 1.7))
    w = _matched_combiner(point, H, p.ut_dims)
    rng = np.random.default_rng(2024)
    gains = []
    for _ in range(n):
        s = link.rician_sample(point, small_geome, H, p, rng)
        gains.append(abs(np.vdot(w, s.los_col + s.scatter_col)) ** 2)
    mean = np.mean(gains) / gamma_sq
    bound = 5.0 * math.sqrt((2.0 * n_ut / k + 1.0 / k**2) / n)
    assert abs(mean - link.db_to_linear(link.g_rx(p.ut_dims, k))) < bound


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
