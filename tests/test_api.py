import copy

import numpy as np
import leobeams
from leobeams.codebook import beam_precoder

PUBLIC = {
    "ArrayGeometry", "CdfCurve", "ChannelSample", "Codebook", "EARTH_MASS",
    "EARTH_RADIUS", "FieldMap", "GRAV_CONST", "LIGHT_SPEED", "LatticeSpec",
    "LinkParams", "Precoder", "Roi", "Scene", "SceneConfig", "TimeSeries",
    "apply_overrides", "beam_gain", "build_cycle", "build_scene",
    "cdf_from_map", "coverage_map", "dft_baseline", "direction_to",
    "dominance_violations", "eventually_active_points", "format_config",
    "fspl", "g_rx", "gain_matrix", "ground_track_speed", "handover_map",
    "lattice_scaling", "load_config", "make_lattice_spec", "noise_power",
    "parse_config", "pass_timeseries", "pass_window", "rician_sample",
    "satellite_array", "serving_beam", "sinr_cdf", "sinr_db", "slant_range",
    "snr_db", "steering_vector", "upa_positions",
}


def test_public_api_is_pinned():
    # adding or removing a public name must show here; each one resolves
    assert len(leobeams.__all__) == len(set(leobeams.__all__))
    assert set(leobeams.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(leobeams, name) is not None, name


def test_array_records_compare_by_identity(scene):
    # a record holding arrays compares and hashes by identity: field-wise ==
    # would ask an array for one truth value, and arrays do not hash
    ts = leobeams.pass_timeseries(scene, (0.0, 0.0), "static", duration=1.0)
    records = [
        leobeams.FieldMap(xs=np.zeros(2), ys=np.zeros(1),
                          values=np.zeros((1, 2))),
        ts, leobeams.sinr_cdf(scene, ("dft",), step=40e3)[0], scene,
        scene.geometry, leobeams.build_scene(leobeams.SceneConfig()),
        beam_precoder(np.zeros(2), scene.geometry, 0, scene.h_sat),
        leobeams.rician_sample((1e4, 0.0), scene.geometry, scene.h_sat,
                               scene.link, np.random.default_rng(0))]
    for r in records:
        twin = copy.deepcopy(r)  # equal content in arrays of its own
        assert r == r and r != twin, type(r).__name__
        assert r in [twin, r] and twin not in [r]
        assert hash(r) == hash(r) and {r: 1, twin: 2}[r] == 1


def test_value_records_compare_by_value(scene):
    for v in (leobeams.SceneConfig(), scene.link, scene.roi, scene.lattice):
        twin = copy.deepcopy(v)
        assert twin is not v and twin == v and hash(twin) == hash(v)
        assert twin in [v] and {v: 1}[twin] == 1
