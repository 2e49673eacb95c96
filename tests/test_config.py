import dataclasses

import pytest

from leobeams import config as cfgmod
from leobeams.config import SceneConfig, apply_overrides, build_scene, \
    format_config, parse_config


def test_empty_text_gives_defaults():
    assert parse_config("") == SceneConfig()
    assert parse_config("\n# comment only\n\n") == SceneConfig()


def test_parse_basic_keys():
    cfg = parse_config("h_sat_m = 1.2e6\nn_rf=10\n  # note\ncycle_len = 2\n")
    assert cfg.h_sat_m == 1.2e6
    assert cfg.n_rf == 10
    assert cfg.cycle_len == 2
    assert cfg.oversampling == 1.4  # untouched default


def test_parse_rejects_unknown_key():
    with pytest.raises(ValueError, match="line 2.*unknown config key 'warp'"):
        parse_config("n_rf = 13\nwarp = 9\n")


def test_parse_rejects_malformed_line():
    with pytest.raises(ValueError, match="line 1"):
        parse_config("just some words\n")


def test_parse_rejects_bad_types():
    with pytest.raises(ValueError, match="n_rf expects an integer"):
        parse_config("n_rf = 12.5\n")
    with pytest.raises(ValueError, match="h_sat_m expects a number"):
        parse_config("h_sat_m = tall\n")


def test_last_key_wins():
    cfg = parse_config("seed = 1\nseed = 2\n")
    assert cfg.seed == 2


def test_validation_names_offending_key():
    with pytest.raises(ValueError, match="h_sat_m"):
        parse_config("h_sat_m = -1\n").validate()
    with pytest.raises(ValueError, match="cycle_len"):
        parse_config("cycle_len = 0\n").validate()
    with pytest.raises(ValueError, match="dt_s"):
        parse_config("dt_s = -0.1\n").validate()
    # the pure line-of-sight limit stays valid
    parse_config("rician_factor = inf\n").validate()


def test_format_parse_round_trip():
    cfg = dataclasses.replace(SceneConfig(), h_sat_m=1.25e6, seed=99,
                              dft_shrink=0.9, n_rf=14)
    again = parse_config(format_config(cfg))
    assert again == cfg


def test_overrides():
    cfg = apply_overrides(SceneConfig(), ["seed=5", "tx_power_dbw=12.5"])
    assert cfg.seed == 5 and cfg.tx_power_dbw == 12.5
    with pytest.raises(ValueError, match="unknown config key"):
        apply_overrides(SceneConfig(), ["bogus=1"])
    with pytest.raises(ValueError, match="key=value"):
        apply_overrides(SceneConfig(), ["seed"])


def test_build_scene_overflow_names_iteration():
    cfg = dataclasses.replace(SceneConfig(), n_rf=9)
    with pytest.raises(ValueError, match="iteration 0"):
        build_scene(cfg)


def test_build_scene_rejects_invalid():
    cfg = dataclasses.replace(SceneConfig(), h_sat_m=-1.0)
    with pytest.raises(ValueError, match="h_sat_m"):
        build_scene(cfg)


def test_load_config(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("seed = 3\n")
    assert cfgmod.load_config(p).seed == 3


def test_scene_dt_resolves_dt_s(scene):
    # dt_s = 0 selects one twentieth of the update period; any other value
    # is the scene's time step as given
    assert scene.dt == pytest.approx(scene.lattice.t_c / 20)
    assert build_scene(dataclasses.replace(SceneConfig(), dt_s=0.25)).dt == 0.25


def test_removed_constellation_keys_rejected():
    for key in ("n_planes", "n_sats_per_plane", "min_elevation_deg"):
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            parse_config(f"{key} = 53\n")


@pytest.mark.parametrize("key, value, match", [
    ("n_rf", 10**8, "n_rf x subarray_nx x subarray_ny"),
    ("subarray_nx", 10**8, "n_rf x subarray_nx x subarray_ny"),
    ("subarray_ny", 10**400, "n_rf x subarray_nx x subarray_ny"),
    ("dft_n_beams", 10**7, "dft_n_beams"),
    ("cycle_len", 10**400, "cycle_len"),
])
def test_oversized_counts_refused_before_allocating(key, value, match,
                                                    traced_peak):
    # the panel, the DFT grid and the lattice enumeration are sized by
    # unbounded integers; each is refused, naming its key, at a cost that
    # does not grow with the value
    def refused():
        with pytest.raises(ValueError, match=match):
            build_scene(SceneConfig(**{key: value}))
    assert traced_peak(refused).peak < 2**20
