"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Tolerances and runtime bounds are pinned in the assertions; criteria 2 and 4
take their measures and bands from one helper each, `_cdf_separation` and
`_ripple_contrast`, which one more test sweeps over element spacing and
oversampling. Criterion bodies are timed with the session scene prebuilt,
so the clock measures the experiment, not setup.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from leobeams import codebook as cb
from leobeams import link
from leobeams import simulate as sim
from leobeams.antenna import beam_gain, satellite_array
from leobeams.config import SceneConfig, build_scene
from leobeams.geometry import Roi, direction_to, ground_track_speed, slant_range
from leobeams.kernels import gain_matrix


def _report(num: int, slug: str, ok: bool, elapsed: float, detail: str) -> None:
    line = (f"ACCEPTANCE {num} {slug}: {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.2f} s) {detail}")
    print(line, flush=True)
    assert ok, line


def test_criterion_1_beam_counts():
    t0 = time.perf_counter()
    spec = cb.make_lattice_spec(1.3e6, 1.4, (12, 24), 4,
                                ground_track_speed(1.3e6))
    roi = Roi(534.1e3, 170.5e3)
    book = cb.build_cycle(satellite_array(13, (12, 24), 0.5), spec, roi)
    counts = [len(book.targets[k]) for k in range(4)]
    elapsed = time.perf_counter() - t0
    ok = counts == [13, 10, 10, 10] and elapsed < 1.0
    _report(1, "beam-counts", ok, elapsed, f"per-iteration counts {counts}")


def _cdf_separation(scene):
    """Criterion 2's measure: hex and DFT P(SINR > 4 dB) over the 2 km grid,
    and whether they meet its bands."""
    curves = {c.label: c for c in sim.sinr_cdf(scene, step=2000.0)}
    p_hex = curves["hex"].prob_at(4.0)
    p_dft = curves["dft"].prob_at(4.0)
    return p_hex, p_dft, 0.40 <= p_hex <= 0.60 and (p_hex - p_dft) >= 0.15


def test_criterion_2_cdf_separation(scene):
    t0 = time.perf_counter()
    p_hex, p_dft, in_band = _cdf_separation(scene)
    elapsed = time.perf_counter() - t0
    ok = in_band and elapsed < 30.0
    _report(2, "cdf-separation", ok, elapsed,
            f"P(SINR>4dB): hex {p_hex:.3f} (need [0.40,0.60]), "
            f"dft {p_dft:.3f}, gap {p_hex - p_dft:.3f} (need >=0.15)")


def test_criterion_3_triple_point_cap(scene):
    t0 = time.perf_counter()
    pts = cb.eventually_active_points(scene.lattice, scene.roi)
    c_x = scene.lattice.c_x
    w = scene.lattice.c_x / scene.lattice.c_y  # beam-width metric y weight
    scaled = pts * np.array([1.0, w])
    triples = [t for t in combinations(range(len(pts)), 3)
               if all(np.hypot(*(scaled[a] - scaled[b])) <= 1.001 * c_x
                      for a, b in combinations(t, 2))]
    targets = scene.hex.targets[0]
    worst = -np.inf
    for tri in triples:
        center_scaled = scaled[list(tri)].mean(axis=0)
        cx, cy = center_scaled[0], center_scaled[1] / w
        gains = gain_matrix(np.array([cx]), np.array([cy]), targets[:, 0],
                            targets[:, 1], scene.h_sat, 12, 24,
                            scene.geometry.spacing)[0]
        order = np.argsort(-gains)
        g_serve = gains[order[0]]
        rel = link.noise_rel(slant_range(cx, cy, scene.h_sat), scene.link)
        s = float(link.sinr_db(g_serve, gains.sum() - g_serve, rel))
        worst = max(worst, s)
    elapsed = time.perf_counter() - t0
    ok = len(triples) > 0 and worst <= -3.0 + 0.1 and elapsed < 1.0
    _report(3, "triple-point-cap", ok, elapsed,
            f"{len(triples)} triple points, worst SINR {worst:.3f} dB "
            f"(cap -2.90 dB)")


def _ripple_contrast(scene):
    """Criterion 4's measures: the static dwell ripple at (0, 0) over the
    dwell holding t = 4 t_c, the dynamic ripple over that dwell's span, and
    the per-cycle peak spread at y = 50 km, at dt = t_c / 20. Returns
    (ripple_static, span, ripple_dyn, peaks, in_band), peaks the peak SNR
    of each whole cycle and in_band whether they meet its bands."""
    t_c = scene.lattice.t_c

    ts_s = sim.pass_timeseries(scene, (0.0, 0.0), mode="static")
    change = np.flatnonzero(ts_s.serving_id[1:] != ts_s.serving_id[:-1]) + 1
    bounds = np.concatenate([[0], change, [ts_s.t_s.size]])
    mid = 4.0 * t_c  # one full cycle into the pass
    lo = hi = None
    for a, b in zip(bounds[:-1], bounds[1:]):
        if ts_s.t_s[a] <= mid < ts_s.t_s[b - 1]:
            lo, hi = int(a), int(b)
            break
    dwell = ts_s.metric_db[lo:hi]
    ripple_static = float(dwell.max() - dwell.min())
    span = (float(ts_s.t_s[lo]), float(ts_s.t_s[hi - 1]))

    ts_d = sim.pass_timeseries(scene, (0.0, 0.0), mode="dynamic")
    in_span = (ts_d.t_s >= span[0]) & (ts_d.t_s <= span[1])
    ripple_dyn = float(ts_d.metric_db[in_span].max()
                       - ts_d.metric_db[in_span].min())

    ts50 = sim.pass_timeseries(scene, (0.0, 50e3), mode="dynamic")
    cyc = np.floor(ts50.t_s / (4.0 * t_c) + 1e-12).astype(int)
    t_end = float(ts50.t_s[-1])
    peaks = [float(ts50.metric_db[cyc == c].max())
             for c in range(int(cyc.max()) + 1)
             if (c + 1) * 4.0 * t_c <= t_end + 1e-9]
    in_band = (2.0 <= ripple_static <= 4.0 and ripple_dyn <= 1.0
               and len(peaks) >= 2 and max(peaks) - min(peaks) <= 0.5)
    return ripple_static, span, ripple_dyn, peaks, in_band


def test_criterion_4_ripple_contrast(scene):
    t0 = time.perf_counter()
    ripple_static, span, ripple_dyn, peaks, in_band = _ripple_contrast(scene)
    peak_spread = max(peaks) - min(peaks)
    elapsed = time.perf_counter() - t0
    ok = in_band and elapsed < 10.0
    _report(4, "ripple-contrast", ok, elapsed,
            f"static dwell {span[0]:.1f}-{span[1]:.1f}s ripple "
            f"{ripple_static:.3f} dB (need [2,4]); dynamic ripple "
            f"{ripple_dyn:.3f} dB (need <=1.0); y=50km peak spread "
            f"{peak_spread:.3f} dB over {len(peaks)} cycles (need <=0.5)")


def test_no_spacing_and_oversampling_meet_criteria_2_and_4():
    # the criterion 2 and 4 bands are disjoint in this model family: across
    # element spacings of 0.44-0.50 wavelengths and lattice oversamplings of
    # 1.3-1.5, with the criteria's own measures, each band is met by some
    # config (criterion 2 toward wide spacing and coarse lattices, 4 toward
    # fine lattices) and none meets both
    met = {}
    for spacing_wl in (0.44, 0.46, 0.48, 0.50):
        for oversampling in (1.3, 1.4, 1.5):
            scene = build_scene(SceneConfig(element_spacing_wl=spacing_wl,
                                            oversampling=oversampling))
            met[spacing_wl, oversampling] = (_cdf_separation(scene)[-1],
                                             _ripple_contrast(scene)[-1])
    assert any(c2 for c2, _ in met.values())
    assert any(c4 for _, c4 in met.values())
    assert [config for config, (c2, c4) in met.items() if c2 and c4] == []


def test_criterion_5_handover_contrast(scene):
    t0 = time.perf_counter()
    dyn = sim.handover_map(scene, "dynamic", step=5000.0)
    stat = sim.handover_map(scene, "static", step=5000.0)
    d = dyn.values[np.isfinite(dyn.values)]
    s = stat.values[np.isfinite(stat.values)]
    frac_dyn = float(np.mean(d <= 1))
    frac_stat = float(np.mean(s >= 3))
    elapsed = time.perf_counter() - t0
    ok = frac_dyn >= 0.60 and frac_stat >= 0.60 and elapsed < 60.0
    _report(5, "handover-contrast", ok, elapsed,
            f"{d.size} points: dynamic <=1 handover {frac_dyn:.1%} "
            f"(need >=60%), static >=3 handovers {frac_stat:.1%} (need >=60%)")


def test_criterion_6_link_budget_oracles():
    t0 = time.perf_counter()
    v_fspl = float(link.fspl(1.3e6, 11.45e9))
    v_noise = link.noise_power(24.1, 250e6)
    v_grx = link.g_rx((24, 24), 10.0)
    elapsed = time.perf_counter() - t0
    ok = (abs(v_fspl - 175.91) <= 0.01 and abs(v_noise - (-120.52)) <= 0.01
          and abs(v_grx - 27.6) <= 0.05 and elapsed < 1.0)
    _report(6, "link-budget-oracles", ok, elapsed,
            f"fspl {v_fspl:.4f} (175.91±0.01), noise {v_noise:.4f} "
            f"(-120.52±0.01), g_rx {v_grx:.4f} (27.6±0.05)")


def test_criterion_7_property_suite(scene, tmp_path):
    t0 = time.perf_counter()
    spec, roi = scene.lattice, scene.roi
    geom = scene.geometry

    # lattice K-periodicity, exact: a full cycle later every target recurs
    # with its ID one higher
    periodic = True
    for k in range(4):
        now, ids_now = scene.hex.snapshot(k)
        later, ids_later = scene.hex.snapshot(k + 4)
        col = np.searchsorted(ids_later, (ids_now + 1) % scene.hex.n_beams)
        periodic &= np.array_equal(later[col], now)

    # phase-only precoders: constant modulus on the active sub-array,
    # exact zeros elsewhere; own-target gain equals the sub-array size
    unit_modulus = True
    own_target = True
    for targets, rf in zip(scene.hex.targets, scene.hex.rf):
        for t, c in zip(targets, rf):
            on = geom.rf_map == c
            pre = cb.beam_precoder(t, geom, c, scene.h_sat)
            mods = np.abs(pre.coeffs[on]) * math.sqrt(geom.n_sub)
            unit_modulus &= bool(np.all(np.abs(mods - 1.0) < 1e-12))
            unit_modulus &= bool(np.all(pre.coeffs[~on] == 0.0))
            g = beam_gain(geom, pre, direction_to(t[0], t[1], scene.h_sat))
            own_target &= abs(g - geom.n_sub) / geom.n_sub < 1e-9

    # beam-ID permanence: whenever a base lattice node is targeted, the
    # beam carries the node's label, across two full cycles
    labels = cb.eventually_active_points(spec, roi)
    permanent = True
    hits = 0
    for node_idx, p in enumerate(labels):
        for g in range(8):
            q = p - np.array([(g / 4.0) * spec.c_x, 0.0])
            tg, ids = scene.hex.snapshot(g)
            d = np.hypot(tg[:, 0] - q[0], tg[:, 1] - q[1])
            col = int(np.argmin(d))
            if d[col] < 1.0:
                hits += 1
                permanent &= int(ids[col]) == node_idx
    permanence_ok = permanent and hits >= len(labels)

    # SINR never exceeds SNR on the map grid
    snr_map = sim.coverage_map(scene, "snr", step=10e3)
    sinr_map = sim.coverage_map(scene, "sinr", step=10e3)
    m = np.isfinite(snr_map.values)
    sinr_le_snr = bool(np.all(sinr_map.values[m] <= snr_map.values[m] + 1e-9))

    # byte-identical reruns of the deterministic pipeline
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    sim.coverage_map(scene, "sinr", step=20e3).to_csv(a)
    sim.coverage_map(scene, "sinr", step=20e3).to_csv(b)
    reruns_identical = a.read_bytes() == b.read_bytes()

    # Rician trace normalization over 10^4 seeded draws
    rng = np.random.default_rng(7)
    n_ut = 24 * 24
    total = 0.0
    for _ in range(10_000):
        v = link.draw_scatter(n_ut, rng)
        total += float(np.vdot(v, v).real)
    trace_ok = abs(total / 10_000 - n_ut) / n_ut < 0.02

    elapsed = time.perf_counter() - t0
    checks = {
        "k-periodicity": periodic,
        "unit-modulus": unit_modulus,
        "own-target-gain": own_target,
        "id-permanence": permanence_ok,
        "sinr<=snr": sinr_le_snr,
        "byte-identical-reruns": reruns_identical,
        "rician-trace": trace_ok,
    }
    failing = [k for k, v in checks.items() if not v]
    _report(7, "property-suite", not failing, elapsed,
            "all properties hold" if not failing else f"failing: {failing}")
