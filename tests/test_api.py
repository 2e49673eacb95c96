import leobeams

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
