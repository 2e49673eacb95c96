import argparse
import contextlib
import dataclasses
import filecmp
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from leobeams import __version__, cli, fields
from leobeams import simulate as sim
from leobeams.codebook import phase_table
from leobeams.config import SceneConfig, apply_overrides, build_scene, load_config
from leobeams.geometry import Roi
from leobeams.simulate import roi_grid

FAST = ["--set", "grid_step_m=25000", "--set", "handover_grid_step_m=25000"]
# a region smaller than the lattice spacing: only hex iteration 0 has a beam
SMALL = ["--set", "roi_semi_x_m=1000", "--set", "roi_semi_y_m=1000"]
PHASES_SHA256 = (
    "43fae1a89945d72cccc92845769297345d26e800b05586644f26ffe1b59f1c30")
CYCLE_SHA256 = (
    "220fecbf8e471f44016c0798edc05768e578c8ef2e2ec7bad1a159444d655855")
DFT_GRID_SHA256 = (
    "84f910d94bb3b05be6d6c8e4c1178c07da9bf816aad93ca84a1d3491a828e025")
# the seed-0 channel draw's norms, recorded before the column-block writer
CHANNEL_CHECK_SHA256 = (
    "38f2fb3cdb73bf3776a105aea80ef7454a31d0149b93ed76e522aaebdcb881b1")
# default-config output bytes, recorded before the chunked serving evaluator
DEFAULT_SHA256 = {
    "map": (["map", "--metric", "sinr", "--mode", "hex"], {
        "map_hex_sinr.csv":
            "8bffe4d862e5abd987ce95aa019378f35bd9adfe7b2bcb66b4b447a0db0d3835",
        "map_hex_sinr.ppm":
            "5e3457e9c0556edaf08785b0882f5dcf3bb730a17408469fa7562a7531520829",
    }),
    "map-dft-cell": (["map", "--metric", "cell", "--mode", "dft"], {
        "map_dft_cell.csv":
            "d37e18c6b7ea66e7e201e8fa6718e41ea54c11cf3f3d7a3431cfb033ea62fa92",
        "map_dft_cell.ppm":
            "333d34f9c5338d0b72756f9317238eebdd27cb9209f0f8fa4944759f53d07e01",
    }),
    "cdf": (["cdf"], {
        "cdf.csv":
            "e764e1134e50108120cefc28b22745c0409c2886e6a056d63beb8bee4b316809",
    }),
    "handover-dynamic": (["handover", "--mode", "dynamic"], {
        "handover_dynamic.csv":
            "6f08544fd784128d2f49b209f6b029e742b78e56e7c80195296f6751e50ccaae",
        "handover_dynamic.ppm":
            "9f652908888f52234c3ea8be943634acb16bdaeae5bfee2a5249aae409d1a0e7",
        "handover_static.csv":
            "2639acffdef855fabd75f04084d7ed58c38c834cd340e8460318987ef2a6a158",
        "handover_static.ppm":
            "354fa7c1c548d691bea84427455a45e193c785e24677789c5930f0c7fd615965",
        "dominance_violations.csv":
            "cfb6a9149373b6a1565002921acfa64f41806e5250aeb305b5cf5cacb11c801a",
    }),
    # recorded before the gain kernel was shared by y-mirrored points
    "handover-dft": (["handover", "--mode", "dft"], {
        "handover_dft.csv":
            "8270bfc9220d479ddaa6291a9e54a1ec466983a2f9d9cb7d1931cb7204fe2c65",
        "handover_dft.ppm":
            "e563fa03ae59362a91a8a5e438f10518e812cca04b1cff0ce21d6ce684d3612b",
    }),
    "map-snr-iter1": (["map", "--metric", "snr", "--iter", "1"], {
        "map_hex_snr.csv":
            "16db2d37fe280f9aa5ee617131a8980d653e3314fc2bb75a42d980ba53b86220",
        "map_hex_snr.ppm":
            "c86474aa049afc59278712bd0b4f44a3507e71350782ec9cb886d2c8440fd9ac",
    }),
    "timeseries-dynamic-neg-y": (
        ["timeseries", "--x", "123000", "--y", "-47000", "--mode", "dynamic"], {
            "timeseries_dynamic.csv":
                "7acc46c2f36d4ea9975cf04cb30330bf8db2bd053831777a4594411e1dd615d9",
        }),
    "timeseries-dft-neg-y": (
        ["timeseries", "--x", "-210000", "--y", "-88000", "--mode", "dft"], {
            "timeseries_dft.csv":
                "82af5ba7676dd9255c4902ee1cecf2a69e0f81e3e01697cd2c46f9ba4a6c2d95",
        }),
}


def _run(argv):
    return cli.main([str(a) for a in argv])


def test_codebook_outputs(tmp_path):
    out = tmp_path / "run"
    assert _run(["codebook", "--out", out, "--phases", "--channel-check",
                 "--seed", "0"]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"cycle.csv", "dft_grid.csv", "phases.csv",
                     "channel_check.csv", "manifest.txt"}
    lines = (out / "cycle.csv").read_text().splitlines()
    assert lines[0] == "iteration,beam_id,rf_chain,target_x_m,target_y_m"
    assert len(lines) == 1 + 43
    assert len((out / "dft_grid.csv").read_text().splitlines()) == 1 + 15
    # byte guards on the codebook tables, the precoder phases and the
    # channel check; the first three digests are also recorded in
    # perfbench/references.json
    for name, want in (("cycle.csv", CYCLE_SHA256),
                       ("dft_grid.csv", DFT_GRID_SHA256),
                       ("phases.csv", PHASES_SHA256),
                       ("channel_check.csv", CHANNEL_CHECK_SHA256)):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want, name


def _phases_oracle(scene):
    # one f-string per line over phase_table's rows, in the CLI's beam order:
    # iteration, then ascending beam ID
    out = ["iteration,beam_id,element_index,phase_radians\n"]
    cb = scene.hex
    for k in range(cb.cycle_len):
        for b, c, target in zip(cb.ids[k].tolist(), cb.rf[k].tolist(),
                                cb.targets[k].tolist()):
            for e, phase in phase_table(target, scene.geometry, c, scene.h_sat):
                out.append(f"{k},{b},{e},{phase:.9f}\n")
    return "".join(out)


@pytest.mark.parametrize("overrides", [
    [], ["subarray_nx=8", "subarray_ny=12", "n_rf=14"]])
def test_phases_match_per_line_oracle(tmp_path, overrides):
    argv = ["codebook", "--phases", "--out", tmp_path]
    assert _run(argv + [a for kv in overrides for a in ("--set", kv)]) == 0
    want = _phases_oracle(build_scene(apply_overrides(SceneConfig(), overrides)))
    assert (tmp_path / "phases.csv").read_bytes() == want.encode()


def test_channel_check_memory_stays_below_one_dense_matrix(tmp_path,
                                                            traced_peak):
    # the three norms come from the rank-1 factors; one dense
    # n_ut x n_sat complex matrix is 34.5 MB at the default config
    scene = build_scene(SceneConfig())
    n_ut = scene.link.ut_dims[0] * scene.link.ut_dims[1]
    dense = n_ut * scene.geometry.n_elements * 16
    run = traced_peak(lambda: _run(["codebook", "--channel-check",
                                    "--out", tmp_path]))
    assert run.result == 0
    assert run.peak < dense / 8
    line = (tmp_path / "channel_check.csv").read_text().splitlines()[1]
    assert line.startswith("0,")


def test_recorded_digests_are_those_of_the_files(tmp_path, monkeypatch,
                                                 scene):
    # each output is hashed block by block as it is written: with small
    # blocks a map's CSV and PPM and a pass series span many blocks each,
    # and every digest recorded, in the manifest too, is the sha256 of the
    # file on disk
    monkeypatch.setattr(sim, "BLOCK", 64)
    monkeypatch.setattr(fields, "BLOCK_LINES", 16)
    fmap = sim.coverage_map(scene, "snr", step=25e3)
    series = sim.pass_timeseries(scene, (1e5, 2e4), "dynamic")
    assert fmap.ys.size > 3 and series.t_s.size > 3 * fields.BLOCK_LINES
    emit = cli._Emitter(str(tmp_path), SceneConfig())
    emit.field_map("map", fmap)
    emit.write("series.csv", series.to_csv)
    emit.write_manifest()
    assert [name for name, _ in emit.records] == [
        "map.csv", "map.ppm", "series.csv"]
    manifest = (tmp_path / "manifest.txt").read_text()
    for name, digest in emit.records:
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() \
            == digest, name
        assert f"# output {name} sha256={digest}\n" in manifest


@pytest.mark.parametrize("job", sorted(DEFAULT_SHA256))
def test_default_outputs_byte_identical(tmp_path, job):
    argv, digests = DEFAULT_SHA256[job]
    out = tmp_path / "run"
    assert _run(argv + ["--out", out]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests


def test_manifest_lists_every_output(tmp_path):
    out = tmp_path / "run"
    assert _run(["map", "--metric", "cell", "--out", out] + FAST) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "# output map_hex_cell.csv sha256=" in manifest
    assert "# output map_hex_cell.ppm sha256=" in manifest
    assert "grid_step_m = 25000.0" in manifest


def test_manifest_round_trip_reproduces_run(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(["map", "--out", a] + FAST) == 0
    assert _run(["map", "--out", b, "--config", a / "manifest.txt"]) == 0
    assert filecmp.cmp(a / "map_hex_sinr.csv", b / "map_hex_sinr.csv",
                       shallow=False)
    assert filecmp.cmp(a / "map_hex_sinr.ppm", b / "map_hex_sinr.ppm",
                       shallow=False)


def test_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert _run(["cdf", "--out", out] + FAST) == 0
    assert filecmp.cmp(a / "cdf.csv", b / "cdf.csv", shallow=False)
    header = (a / "cdf.csv").read_text().splitlines()[0]
    assert header == "threshold_db,prob_hex,prob_dft"


def test_flag_overrides_config_and_manifest_records_winner(tmp_path):
    conf = tmp_path / "c.txt"
    conf.write_text("grid_step_m = 50000\n")
    out = tmp_path / "run"
    assert _run(["map", "--config", conf, "--grid-step", "40000",
                 "--out", out]) == 0
    assert "grid_step_m = 40000.0" in (out / "manifest.txt").read_text()


def test_timeseries_subcommand(tmp_path):
    out = tmp_path / "run"
    assert _run(["timeseries", "--x", 400000, "--y", 0, "--mode", "static",
                 "--out", out]) == 0
    lines = (out / "timeseries_static.csv").read_text().splitlines()
    assert lines[0] == "t_s,serving_id,snr_db"
    assert len(lines) > 100


def test_handover_subcommand_reports_dominance(tmp_path):
    out = tmp_path / "run"
    assert _run(["handover", "--mode", "dynamic", "--out", out] + FAST) == 0
    names = {p.name for p in out.iterdir()}
    assert {"handover_dynamic.csv", "handover_dynamic.ppm",
            "handover_static.csv", "handover_static.ppm",
            "dominance_violations.csv", "manifest.txt"} <= names
    header = (out / "dominance_violations.csv").read_text().splitlines()[0]
    assert header == "x_m,y_m,dynamic,static"


def test_seed_controls_channel_check(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert _run(["codebook", "--out", a, "--channel-check", "--seed", 7]) == 0
    assert _run(["codebook", "--out", b, "--channel-check", "--seed", 7]) == 0
    assert _run(["codebook", "--out", c, "--channel-check", "--seed", 8]) == 0
    assert filecmp.cmp(a / "channel_check.csv", b / "channel_check.csv",
                       shallow=False)
    assert not filecmp.cmp(a / "channel_check.csv", c / "channel_check.csv",
                           shallow=False)
    # deterministic outputs ignore the seed
    assert filecmp.cmp(a / "cycle.csv", c / "cycle.csv", shallow=False)


def test_bad_config_exits_nonzero_single_line(tmp_path, capsys):
    conf = tmp_path / "c.txt"
    conf.write_text("h_sat_m = -1\n")
    assert _run(["map", "--config", conf, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err


@pytest.mark.parametrize("argv, key", [
    (["map", "--set", "h_sat_m=inf"], "h_sat_m"),
    (["map", "--set", "carrier_hz=inf"], "carrier_hz"),
    (["map", "--set", "tx_power_dbw=nan"], "tx_power_dbw"),
    (["map", "--set", "grid_step_m=inf"], "grid_step_m"),
    (["map", "--seed", "-1"], "seed"),
    (["map", "--set", "seed=-1"], "seed"),
    # finite but overflowing: the slant range, then the ground-track speed,
    # then (with a finite square) the update period, all by one guard
    (["map", "--set", "h_sat_m=1e300"], "h_sat_m"),
    (["map", "--set", "h_sat_m=1e200"], "h_sat_m"),
    (["map", "--set", "h_sat_m=1e150"], "h_sat_m = 1e+150 overflows"),
    # finite, but the update period overflows
    (["handover", "--set", "h_sat_m=1e130"], "h_sat_m"),
    (["timeseries", "--x", "0", "--y", "0", "--set", "h_sat_m=1e130"],
     "h_sat_m"),
    # more sweep samples than one pass may hold
    (["handover", "--set", "dt_s=1e-9"], "dt"),
    # more grid nodes than one map may hold
    (["map", "--set", "grid_step_m=1"], "grid_step_m"),
    (["cdf", "--grid-step", "1"], "grid_step_m"),
    (["handover", "--set", "handover_grid_step_m=1"], "handover_grid_step_m"),
    # an iteration with no beams; the dynamic runs need iteration -1
    (["map", "--iter", "1", "--grid-step", "500", *SMALL], "iteration 1 "),
    (["cdf", "--iter", "2", "--grid-step", "500", *SMALL], "iteration 2 "),
    (["handover", "--mode", "dynamic", "--grid-step", "500", *SMALL],
     "iteration -1 "),
    (["timeseries", "--x", "0", "--y", "0", "--t-start=-0.1", *SMALL],
     "iteration -1 "),
    # more lattice nodes than one codebook enumeration may hold
    (["map", "--set", "cycle_len=1000000"], "cycle_len"),
    (["map", "--set", "oversampling=1e300"], "oversampling"),
    (["map", "--set", "oversampling=1.7e308"], "oversampling"),
    # an iteration count beyond float range, before any float meets it
    (["map", "--set", "cycle_len=1" + "0" * 400], "cycle_len"),
    # a DFT grid or a panel too large to lay out
    (["codebook", "--set", "dft_n_beams=10000000"], "dft_n_beams"),
    (["map", "--set", "dft_n_beams=" + "9" * 400], "dft_n_beams"),
    (["codebook", "--set", "n_rf=100000000"], "n_rf"),
    (["map", "--set", "subarray_ny=" + "9" * 400], "subarray_ny"),
    # a terminal array too large for its gain or its channel draw
    (["map", "--grid-step", "50000", "--set", "ut_nx=1" + "0" * 400], "ut_nx"),
    (["codebook", "--channel-check", "--set", "ut_ny=2000000"], "ut_ny"),
    # finite values whose derived quantities leave float range: the DFT
    # grid's aspect, 1 / rician_factor, the path gain and the update period
    (["cdf", "--grid-step", "40000", "--set", "roi_semi_x_m=5e-324"],
     "roi_semi_x_m"),
    (["map", "--grid-step", "50000", "--metric", "snr",
      "--set", "rician_factor=1e-320"], "rician_factor"),
    (["map", "--grid-step", "50000", "--set", "carrier_hz=1e-300"],
     "cable_loss_db put the path gain"),
    (["codebook", "--set", "oversampling=1e-300", "--set",
      "roi_semi_x_m=5.341e302", "--set", "roi_semi_y_m=1.705e302"],
     "roi_semi_x_m and roi_semi_y_m put the farthest slant range"),
    (["codebook", "--channel-check", "--set", "carrier_hz=1e-300"],
     "carrier_hz"),
    (["codebook", "--channel-check", "--set", "rician_factor=1e-320"],
     "rician_factor"),
    # an update period within the iteration index's time tolerance
    (["map", "--set", "h_sat_m=1e-4"], "cycle_len give an update period"),
    # the ellipse test of points far outside overflows without a warning
    (["cdf", "--grid-step", "40000", "--set", "dft_shrink=1e300"], "shrink"),
    (["timeseries", "--x", "0", "--y", "1e300"], "inside"),
    # the panel's phases, the DFT grid and the sweep's ground step overflow
    (["map", "--grid-step", "50000", "--set", "element_spacing_wl=1.7e308"],
     "element_spacing_wl"),
    (["cdf", "--grid-step", "40000", "--set", "dft_shrink=1.7e308"],
     "dft_shrink"),
    (["handover", "--grid-step", "60000", "--set", "dt_s=1.7e308"], "dt"),
    # the channel draw's norms overflow: the last guard in main refuses it
    (["codebook", "--channel-check", "--set", "carrier_hz=1e-3",
      "--set", "rician_factor=1e-300"], "float range"),
    # an ROI too large for the lattice enumeration
    (["map", "--grid-step", "50000", "--set", "roi_semi_x_m=1e300"],
     "roi_semi_x_m"),
    (["map", "--grid-step", "50000", "--set", "roi_semi_y_m=1e300"],
     "roi_semi_y_m"),
    # a repeated mode would compute and write the same curve twice
    (["cdf", "--modes", "hex,dft,hex"], "--modes repeats 'hex'"),
    # a count whose grid holds more in-ROI nodes than it asks for
    (["codebook", "--set", "dft_n_beams=864"],
     "872 in-ROI beams, expected 864"),
    # a grid step whose node count would leave float range
    (["map", "--grid-step", "1e-300"], "grid_step_m = 1e-300 m puts"),
    (["cdf", "--grid-step", "1e-300"], "grid_step_m = 1e-300 m puts"),
    (["handover", "--grid-step", "1e-300"],
     "handover_grid_step_m = 1e-300 m puts"),
    # a negative duration, at a point the window holds
    (["timeseries", "--x", "0", "--y", "0", "--duration", "-5"],
     "duration must be non-negative"),
    # negative values argparse alone would take for unknown options
    (["map", "--grid-step", "-1e3"], "grid_step_m"),
    (["timeseries", "--x", "-inf", "--y", "0"], "x"),
    (["timeseries", "--x", "0", "--y", "0", "--dt", "-1e-3"], "dt_s"),
    # argv that argparse refuses: a bad type, an unknown flag, a bad choice,
    # a missing required flag and an unknown subcommand
    (["map", "--iter", "1.5"], "--iter"),
    (["map", "--bogus", "1"], "--bogus"),
    (["map", "--mode", "xyz"], "--mode"),
    (["timeseries", "--y", "1"], "--x"),
    (["teleport"], "teleport"),
])
@pytest.mark.filterwarnings("error")  # a warning would print a second line
def test_bad_value_exits_nonzero_naming_key(tmp_path, capsys, argv, key):
    assert _run(argv[:1] + ["--out", tmp_path / "o"] + argv[1:]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err and key in err


def test_negative_values_with_exponents_reach_the_run(tmp_path):
    # argparse takes -1e4 for an option; joined onto its flag, it is the
    # same value as -10000
    a, b = tmp_path / "a", tmp_path / "b"
    for out, (x, y, t) in ((a, ("-2.5e5", "-1e4", "-1e1")),
                           (b, ("-250000", "-10000", "-10"))):
        assert _run(["timeseries", "--out", out, "--x", x, "--y", y,
                     "--t-start", t]) == 0
    for name in ("timeseries_dynamic.csv", "manifest.txt"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


@pytest.mark.parametrize("argv", [
    ["map", "--iter", "0", "--grid-step", "500"],
    ["timeseries", "--x", "0", "--y", "0"],
])
def test_small_region_serves_its_one_beam(tmp_path, argv):
    assert _run(argv[:1] + ["--out", tmp_path / "o"] + argv[1:] + SMALL) == 0


@pytest.mark.parametrize("g", [99999999999999999999, -99999999999999999999])
def test_iteration_beyond_int64_matches_its_reduction(tmp_path, scene, g):
    # snapshots repeat every K * n_beams iterations
    period = scene.hex.cycle_len * scene.hex.n_beams
    a, b = tmp_path / "a", tmp_path / "b"
    for out, it in ((a, g), (b, g % period)):
        assert _run(["map", "--metric", "cell", f"--iter={it}", "--out", out]
                    + FAST) == 0
    for name in ("map_hex_cell.csv", "map_hex_cell.ppm"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


@pytest.mark.parametrize("argv, name", [
    (["--x", "0", "--y", "0", "--duration", "inf"], "duration"),
    (["--x", "0", "--y", "0", "--t-start=-inf"], "t_start"),
    (["--x", "inf", "--y", "0"], "x"),
    (["--x", "0", "--y", "nan"], "y"),
    # finite, but no float resolves the sample spacing that far out
    (["--x", "0", "--y", "0", "--t-start=-1e300"], "dt"),
    # more samples than one pass may hold
    (["--x", "0", "--y", "0", "--dt", "1e-9"], "dt"),
])
def test_bad_timeseries_flag_exits_nonzero_naming_it(tmp_path, capsys, argv,
                                                     name):
    assert _run(["timeseries", "--out", tmp_path / "o"] + argv) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {name} ") and "\n" not in err


FUZZ_VALUES = {
    float: ("5e-324", "1e-300", "1e-3", "0", "-1", "3", "1e30", "1e300",
            "1.7e308"),
    int: ("1", "2", "7", "64", "1000", "100000"),
}
FUZZ_JOBS = {
    "codebook": ["codebook", "--channel-check"],
    "map": ["map", "--metric", "sinr"],
    "cdf": ["cdf"],
    "timeseries": ["timeseries", "--x", "1000", "--y", "-2000"],
    "handover": ["handover"],
}


@st.composite
def _fuzz_case(draw):
    """A subcommand on a 40-60 km grid with one or two --set pairs, each
    key from the config and each value from its type's edge values."""
    argv = list(FUZZ_JOBS[draw(st.sampled_from(sorted(FUZZ_JOBS)))])
    if argv[0] in ("map", "cdf", "handover"):
        argv += ["--grid-step", draw(st.sampled_from(["40000", "50000",
                                                      "60000"]))]
    fields = draw(st.lists(st.sampled_from(dataclasses.fields(SceneConfig)),
                           min_size=1, max_size=2, unique_by=lambda f: f.name))
    for f in fields:
        # cycle_len = 1000 is valid, but its dynamic handover map walks about
        # 6,400 update indices in 1000 _served_slices calls (0.3-0.4 s at
        # 40-60 km, and its whole handover job 0.4-0.5 s); every other value
        # runs in under 0.2 s
        value = draw(st.sampled_from([
            v for v in FUZZ_VALUES[type(f.default)]
            if (f.name, v) != ("cycle_len", "1000")]))
        argv += ["--set", f"{f.name}={value}"]
    return argv


def _assert_outputs_finite_in_roi(out):
    # no inf anywhere; nan only at map nodes outside the ellipse, which the
    # resolved config in the manifest reproduces
    cfg = load_config(out / "manifest.txt")
    roi = Roi(cfg.roi_semi_x_m, cfg.roi_semi_y_m)
    for path in out.glob("*.csv"):
        text = path.read_text()
        assert "inf" not in text, path.name
        if not path.name.startswith(("map_", "handover_")):
            assert "nan" not in text, path.name
            continue
        step = (cfg.handover_grid_step_m if path.name.startswith("handover_")
                else cfg.grid_step_m)
        xs, ys = roi_grid(roi, step)
        vals = np.loadtxt(path, delimiter=",", skiprows=1, usecols=2,
                          ndmin=1).reshape(ys.size, xs.size)
        for y, row in zip(ys, vals):
            assert np.array_equal(np.isfinite(row), roi.contains(xs, y)), (
                path.name, y)


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_fuzz_case())
def test_fuzzed_config_values_keep_the_cli_contract(tmp_path, argv):
    # edge values of every key, alone or in pairs, end in exit 0 with finite
    # in-ROI outputs and no stderr but the dominance warning, or in exit 2
    # with one error line; values that would allocate near MAX_CELLS or
    # MAX_SAMPLES are refused by the rows above before allocating
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # each would be a line on stderr
        code = _run(argv[:1] + ["--out", out] + argv[1:])
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        return
    assert code == 0
    assert all(line.startswith("warning: ") and "dominance_violations.csv"
               in line for line in lines), lines
    _assert_outputs_finite_in_roi(out)


# a few valid values per flag, by dest, on coarse grids; --out is the
# test's own and never drawn
ARGV_VALID = {
    "config": (os.devnull,),
    "overrides": ("seed=3", "rician_factor=12.5", "cycle_len=2"),
    "seed": ("0", "7"),
    "iteration": ("0", "1", "-3", "99999999999999999999"),
    "grid_step": ("40000", "6e4", "inf"),
    "modes": ("hex", "dft", "dft,hex"),
    "x": ("0", "3e4", "-1e4"),
    "y": ("0", "-2e4", "5e4"),
    "duration": ("0", "30"),
    "t_start": ("0", "-1e1", "4.5"),
    "dt": ("0.5", "2"),
}
ARGV_WRONG_TYPE = ("abc", "1.5.2", "", "0x1p3", "1e3", "1.5")
ARGV_NEGATIVE = ("-1e4", "-inf", "-1", "-0", "-1.5e-3")
ARGV_UNKNOWN = (["--bogus"], ["--bogus", "1"], ["-q"], ["--iter-"], ["x"])


def _cli_subparsers() -> dict:
    """Subcommand name -> its parser, from the CLI parser's own actions."""
    sub, = (a for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    return sub.choices


@st.composite
def _argv_case(draw):
    """One subcommand's argv: its required flags, each possibly dropped,
    then one to four items built from its parser's actions, each a valid
    value, a wrong type, a missing value, a repeat, an unknown flag, a bad
    choice or a negative spelling."""
    name = draw(st.sampled_from(sorted(_cli_subparsers())))
    actions = [a for a in _cli_subparsers()[name]._actions
               if a.option_strings and a.dest not in ("help", "out")]

    def valid(action):
        flag = draw(st.sampled_from(action.option_strings))
        if action.nargs == 0:  # a store_true switch
            return [flag]
        return [flag, draw(st.sampled_from(action.choices
                                           or ARGV_VALID[action.dest]))]

    argv = [name, "--set", "grid_step_m=40000",
            "--set", "handover_grid_step_m=40000"]
    for action in actions:
        if action.required and draw(st.integers(0, 4)):
            argv += valid(action)
    valued = [a for a in actions if a.nargs != 0]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["valid", "type", "missing", "repeat",
                                     "unknown", "choice", "negative"]))
        pool = {"valid": actions, "repeat": actions,
                "choice": [a for a in valued if a.choices] or valued}
        action = draw(st.sampled_from(pool.get(kind, valued)))
        flag = action.option_strings[0]
        if kind == "valid":
            argv += valid(action)
        elif kind == "repeat":
            argv += valid(action) + valid(action)
        elif kind == "type":
            argv += [flag, draw(st.sampled_from(ARGV_WRONG_TYPE))]
        elif kind == "missing":
            argv += [flag]
        elif kind == "unknown":
            argv += draw(st.sampled_from(ARGV_UNKNOWN))
        elif kind == "choice":
            argv += [flag, "xyz"]
        else:
            argv += [flag, draw(st.sampled_from(ARGV_NEGATIVE))]
    return argv


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv_case())
def test_fuzzed_argv_keeps_the_cli_contract(tmp_path, argv):
    # any argv a subcommand's flags can spell ends in a return of 0, or of 2
    # with one error line and nothing on stdout; main never raises
    argv[1:1] = ["--out", tempfile.mkdtemp(dir=tmp_path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    if code == 2:
        assert out.getvalue() == "", argv
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv,
                                                                     lines)
        return
    assert code == 0, argv
    assert all(line.startswith("warning: ") for line in lines), (argv, lines)


def test_unknown_key_exits_nonzero(tmp_path, capsys):
    assert _run(["map", "--set", "warp=1", "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err.strip()
    assert "unknown config key 'warp'" in err


@pytest.mark.parametrize("text, code, want", [
    (b"\xef\xbb\xbfh_sat_m = 1.3e6\n", 2,
     r"unknown config key '\ufeffh_sat_m'"),
    (b"h_sat_m = 1.3e6\r\nseed = 1\r\n", 0, "seed = 1\n"),
    (b"h_sat_m = 1.3e6  # inline\n", 0, "h_sat_m = 1300000.0\n"),
    (b"seed = 1\n# \xff\n", 2, "can't decode byte 0xff"),
    (b" = 5\n", 2, "unknown config key ''"),
    (b"h_sat_m =\n", 2, "h_sat_m expects a number, got ''"),
    (b"seed = 1\nseed = 2\n", 0, "seed = 2\n"),
    (b"h_sat_m = 1_300_000\n", 0, "h_sat_m = 1300000.0\n"),
    ("seed = \u0663\n".encode(), 0, "seed = 3\n"),  # an Arabic-Indic 3
    (b"seed = 12345678901234567890123\n", 0,
     "seed = 12345678901234567890123\n"),
    ("directory as --config", 2, "c.txt"),
    ("file as --out", 2, "o"),
    # physical constants are not keys: an older manifest listing one is refused
    (b"seed = 1\ngrav_const = 6.674e-11\n", 2,
     "line 2: unknown config key 'grav_const'"),
], ids=["bom", "crlf", "inline-comment", "invalid-utf8", "empty-key",
        "empty-value", "repeated-key", "underscores", "arabic-indic-digit",
        "23-digit-seed", "config-dir", "out-file", "constant-key"])
def test_config_file_text_keeps_the_cli_contract(tmp_path, capsys, text,
                                                 code, want):
    # each probe runs, recording the value it read in the manifest, or
    # exits 2 with one error line; a key's invisible characters are escaped
    conf, out = tmp_path / "c.txt", tmp_path / "o"
    if text == "directory as --config":
        conf.mkdir()
    elif text == "file as --out":
        conf.write_text("seed = 1\n")
        out.write_text("a file, not a directory")
    else:
        conf.write_bytes(text)
    assert _run(["codebook", "--config", conf, "--out", out]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == "" and want in (out / "manifest.txt").read_text()
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert want in err


def test_overflow_config_exits_nonzero(tmp_path, capsys):
    assert _run(["codebook", "--set", "n_rf=9", "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err.strip()
    assert "iteration 0" in err


def test_bad_cdf_mode_exits_nonzero(tmp_path, capsys):
    assert _run(["cdf", "--modes", "hex,warp", "--out", tmp_path / "o"]
                + FAST) == 2
    assert "unknown codebook mode" in capsys.readouterr().err


def test_cached_parser_keeps_each_calls_overrides(tmp_path):
    # one parser serves every call; a --set list never leaks into the next
    assert cli._build_parser() is cli._build_parser()
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert _run(["map", "--metric", "cell", "--out", a,
                 "--set", "grid_step_m=40000"]) == 0
    assert _run(["map", "--metric", "cell", "--out", b,
                 "--set", "grid_step_m=50000", "--set", "seed=3"]) == 0
    assert _run(["map", "--metric", "cell", "--out", c] + FAST) == 0
    ma, mb, mc = ((d / "manifest.txt").read_text() for d in (a, b, c))
    assert "grid_step_m = 40000.0" in ma and "seed = 0" in ma
    assert "grid_step_m = 50000.0" in mb and "seed = 3" in mb
    assert "grid_step_m = 25000.0" in mc and "seed = 0" in mc
    parser = cli._build_parser()
    x = parser.parse_args(["map", "--set", "seed=1"])
    y = parser.parse_args(["map", "--set", "seed=2"])
    assert x.overrides == ["seed=1"] and y.overrides == ["seed=2"]
    assert parser.parse_args(["map"]).overrides == []


# a fresh interpreter runs `cdf` three times in-process and prints whether
# the heap thresholds were fixed, then the minor page faults of each call
CHURN_PROBE = """
import resource, sys
from leobeams import cli
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(["cdf", "--grid-step", "2000", "--out", sys.argv[1]]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(cli._fix_heap_thresholds(), *faults)
"""


def test_repeated_runs_reuse_heap_pages(tmp_path):
    # with glibc's default thresholds each repeated cdf call mapped and
    # faulted in its kernel temporaries afresh (about 3,900 minor faults per
    # call at 2 km); with the thresholds fixed the 2nd and 3rd calls took 0
    pytest.importorskip("resource")
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    out = subprocess.run([sys.executable, "-c", CHURN_PROBE, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120,
                         check=True).stdout.split()
    fixed, faults = out[0] == "True", [int(f) for f in out[1:]]
    if not fixed or faults[0] == 0:
        pytest.skip("no mallopt, or no minor-fault count, on this platform")
    assert max(faults[1:]) < 300, faults


# the byte contract's job set on coarse grids, 18 outputs in all
SIMD_JOBS = [
    ["cdf", "--grid-step", "5000"],
    ["map", "--metric", "sinr", "--mode", "hex", "--grid-step", "5000"],
    ["map", "--metric", "snr", "--mode", "dft", "--grid-step", "5000"],
    ["handover", "--mode", "dynamic", "--grid-step", "10000"],
    ["handover", "--mode", "dft", "--grid-step", "10000"],
    ["codebook", "--phases", "--channel-check"],
    ["timeseries", "--x", "123000", "--y", "-47000", "--mode", "dynamic"],
    ["timeseries", "--x", "-210000", "--y", "88000", "--mode", "static"],
]
# a fresh interpreter runs the job set in-process, each job into its own
# directory under argv[1], and prints every manifest's output lines
SIMD_PROBE = """
import json, os, sys
from leobeams import cli
for i, argv in enumerate(json.loads(sys.argv[2])):
    out = os.path.join(sys.argv[1], str(i))
    assert cli.main(argv + ["--out", out]) == 0, argv
    with open(os.path.join(out, "manifest.txt")) as fh:
        print("".join(line for line in fh if line.startswith("# output ")))
"""
# numpy's x86 dispatch levels: each disables the targets above it, so its
# kernels run at the next level down
SIMD_LEVELS = ([], ["X86_V4", "AVX512_ICL", "AVX512_SPR"],
               ["X86_V4", "AVX512_ICL", "AVX512_SPR", "X86_V3"])


def test_outputs_identical_across_simd_dispatch_levels(tmp_path):
    # numpy picks a SIMD kernel for the host at import; the outputs must not
    # depend on which. A level runs only if the host dispatches to one of
    # the targets it newly disables, or it would repeat the level above
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)
    dispatched = {t for t in __cpu_dispatch__ if __cpu_features__.get(t)}
    levels = [disabled for i, disabled in enumerate(SIMD_LEVELS)
              if i == 0 or dispatched & set(disabled[len(SIMD_LEVELS[i - 1]):])]
    if len(levels) < 2:
        pytest.skip("the host dispatches to no x86 level above the baseline")
    manifests = []
    for i, disabled in enumerate(levels):
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled),
               "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        run = subprocess.run(
            [sys.executable, "-c", SIMD_PROBE, str(tmp_path / str(i)),
             json.dumps(SIMD_JOBS)],
            env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        manifests.append((run.stdout.splitlines(), run.stderr))
    assert sum(line.startswith("# output ") for line in manifests[0][0]) == 18
    for disabled, got in zip(levels[1:], manifests[1:]):
        assert got == manifests[0], disabled


def test_unknown_subcommand_rejected(capsys):
    assert cli.main(["teleport"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "teleport" in err


def test_unwritable_output_dir(tmp_path, capsys):
    target = tmp_path / "blocked"
    target.write_text("file, not a directory")
    assert _run(["codebook", "--out", target]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [["--version"], ["map", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    # help and version print to stdout, and main returns 0 instead of
    # raising SystemExit out of it
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if argv == ["--version"]:
        assert out == f"{__version__}\n"
    else:
        assert out.startswith("usage: leobeams map ")
