"""Flat key = value scene configuration, validation, and scene assembly.

The format is plain text: one `key = value` per line, `#` starts a comment,
blank lines are ignored, later keys win. Every key has a default, so an empty
file is a valid configuration. Unknown keys are rejected by name. Physical
constants are ordinary keys so tests and what-if runs can pin them.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .antenna import MAX_ELEMENTS, satellite_array
from .codebook import build_cycle, dft_baseline, make_lattice_spec
from .geometry import (EARTH_MASS, EARTH_RADIUS, GRAV_CONST, LIGHT_SPEED, Roi,
                       ground_track_speed, slant_range)
from .link import BOLTZMANN_DBW, LinkParams, fspl, noise_rel
from .simulate import Scene


@dataclass(frozen=True)
class SceneConfig:
    """All tunable inputs of the simulator, with the reference defaults."""

    # orbit and region of interest
    h_sat_m: float = 1.3e6
    roi_semi_x_m: float = 534.1e3
    roi_semi_y_m: float = 170.5e3
    # satellite array
    subarray_nx: int = 12
    subarray_ny: int = 24
    n_rf: int = 13
    element_spacing_wl: float = 0.5
    oversampling: float = 1.4
    # user terminal array
    ut_nx: int = 24
    ut_ny: int = 24
    # codebooks
    cycle_len: int = 4
    dft_n_beams: int = 15
    dft_shrink: float = 0.88
    # link budget
    carrier_hz: float = 11.45e9
    bandwidth_hz: float = 250e6
    tx_power_dbw: float = 15.0
    cable_loss_db: float = 0.0
    atmos_loss_db: float = 0.017
    noise_temp_dbk: float = 24.1
    rician_factor: float = 10.0
    # experiment sampling
    grid_step_m: float = 2000.0
    handover_grid_step_m: float = 5000.0
    dt_s: float = 0.0  # 0 selects one twentieth of the update period
    seed: int = 0
    # physical constants
    grav_const: float = GRAV_CONST
    earth_mass_kg: float = EARTH_MASS
    earth_radius_m: float = EARTH_RADIUS
    light_speed_m_s: float = LIGHT_SPEED
    boltzmann_dbw: float = BOLTZMANN_DBW

    def validate(self) -> None:
        """Raise ValueError naming the first offending key."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # an infinite Rician factor is the pure line-of-sight channel
            if f.name == "rician_factor" and value == math.inf:
                continue
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        positive = [
            "h_sat_m", "roi_semi_x_m", "roi_semi_y_m", "element_spacing_wl",
            "oversampling", "dft_shrink", "carrier_hz", "bandwidth_hz",
            "rician_factor", "grid_step_m", "handover_grid_step_m",
            "grav_const", "earth_mass_kg", "earth_radius_m", "light_speed_m_s",
        ]
        for key in positive:
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive")
        at_least_one = ["subarray_nx", "subarray_ny", "n_rf", "ut_nx", "ut_ny",
                        "cycle_len", "dft_n_beams"]
        for key in at_least_one:
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1")
        if not self.ut_nx * self.ut_ny <= MAX_ELEMENTS:
            raise ValueError(f"ut_nx x ut_ny = {self.ut_nx} x {self.ut_ny} "
                             f"elements, more than the {MAX_ELEMENTS} one "
                             f"terminal array may hold")
        if self.dt_s < 0:
            raise ValueError("dt_s must be non-negative (0 selects the default)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


_FIELD_TYPES = {f.name: type(f.default) for f in dataclasses.fields(SceneConfig)}


def _coerce(key: str, raw: str, where: str = ""):
    if key not in _FIELD_TYPES:
        raise ValueError(f"{where}unknown config key '{key}'")
    kind = _FIELD_TYPES[key]
    try:
        return kind(raw) if kind is not int else int(raw, 10)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{where}{key} expects {noun}, got '{raw}'") from None


def parse_config(text: str) -> SceneConfig:
    """Parse flat key = value text; errors carry the line number and key."""
    values = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {ln}: expected 'key = value', got '{stripped}'")
        key, raw = stripped.split("=", 1)
        values[key.strip()] = _coerce(key.strip(), raw.strip(), f"line {ln}: ")
    return SceneConfig(**values)


def load_config(path) -> SceneConfig:
    with open(path, "r") as fh:
        return parse_config(fh.read())


def apply_overrides(cfg: SceneConfig, pairs: list[str]) -> SceneConfig:
    """Apply key=value override strings (command-line wins over file)."""
    values = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override '{pair}' is not of the form key=value")
        key, raw = pair.split("=", 1)
        values[key.strip()] = _coerce(key.strip(), raw.strip())
    return dataclasses.replace(cfg, **values)


def format_config(cfg: SceneConfig) -> str:
    """Render the resolved configuration as re-parseable key = value lines."""
    lines = []
    for f in dataclasses.fields(SceneConfig):
        v = getattr(cfg, f.name)
        lines.append(f"{f.name} = {v!r}")
    return "\n".join(lines) + "\n"


def resolve_dt(cfg: SceneConfig, scene: Scene) -> float:
    return cfg.dt_s if cfg.dt_s > 0 else scene.default_dt


def build_scene(cfg: SceneConfig) -> Scene:
    """Assemble the runtime scene; codebook overflow errors name the iteration."""
    cfg.validate()
    geometry = satellite_array(cfg.n_rf, (cfg.subarray_nx, cfg.subarray_ny),
                               cfg.element_spacing_wl)
    v_ground = ground_track_speed(cfg.h_sat_m, cfg.grav_const,
                                  cfg.earth_mass_kg, cfg.earth_radius_m)
    lattice = None
    if v_ground > 0 and math.isfinite(cfg.h_sat_m * cfg.h_sat_m):
        lattice = make_lattice_spec(cfg.h_sat_m, cfg.oversampling,
                                    (cfg.subarray_nx, cfg.subarray_ny),
                                    cfg.cycle_len, v_ground)
    if lattice is None or not math.isfinite(lattice.t_c):
        raise ValueError(f"h_sat_m = {cfg.h_sat_m} (earth_radius_m = "
                         f"{cfg.earth_radius_m}) overflows the slant range or "
                         f"the update period, or stalls the ground track")
    if not lattice.t_c > 1e-9:  # the time tolerance of the iteration index
        raise ValueError(f"h_sat_m, oversampling, subarray_nx, cycle_len, "
                         f"grav_const, earth_mass_kg and earth_radius_m give "
                         f"an update period of {lattice.t_c:.4g} s, not above "
                         f"the 1e-9 s tolerance of the iteration index")
    roi = Roi(cfg.roi_semi_x_m, cfg.roi_semi_y_m)
    link = LinkParams(
        f_carrier=cfg.carrier_hz,
        bandwidth=cfg.bandwidth_hz,
        p_tx_dbw=cfg.tx_power_dbw,
        lp_cable_db=cfg.cable_loss_db,
        lp_at_db=cfg.atmos_loss_db,
        noise_temp_dbk=cfg.noise_temp_dbk,
        k_rician=cfg.rician_factor,
        ut_dims=(cfg.ut_nx, cfg.ut_ny),
        k_boltz_dbw=cfg.boltzmann_dbw,
        light_speed=cfg.light_speed_m_s,
    )
    scene = Scene(geometry=geometry, lattice=lattice, roi=roi,
                  h_sat=cfg.h_sat_m, link=link,
                  hex=build_cycle(geometry, lattice, roi),
                  dft=dft_baseline(geometry, roi, cfg.dft_n_beams,
                                   cfg.dft_shrink), v_ground=v_ground)
    _check_link_range(cfg, link)
    return scene


def _check_link_range(cfg: SceneConfig, link: LinkParams) -> None:
    """Refuse a link budget that leaves float range anywhere in the ROI: the
    farthest in-ROI slant range, and from the nearest range to the farthest
    the channel's path gain and the noise floor in beam-gain units (both
    monotone in the range; the floor takes 1 / rician_factor in). Each must
    be finite and non-zero."""
    far = max(cfg.roi_semi_x_m, cfg.roi_semi_y_m)
    with np.errstate(all="ignore"):
        dist = slant_range(np.array([0.0, far]), 0.0, cfg.h_sat_m)
        loss = (fspl(dist, link.f_carrier, link.light_speed) + link.lp_at_db
                + link.lp_cable_db)
        checks = (
            ("roi_semi_x_m and roi_semi_y_m", "farthest slant range", dist),
            ("carrier_hz, light_speed_m_s, atmos_loss_db and cable_loss_db",
             "path gain", 10.0 ** (-loss / 10.0)),
            ("tx_power_dbw, noise_temp_dbk, bandwidth_hz, boltzmann_dbw and "
             "rician_factor, with the path gain,", "noise floor",
             noise_rel(dist, link)))
    for keys, name, value in checks:
        if not np.all((value > 0.0) & (value < math.inf)):
            raise ValueError(f"{keys} put the {name} at {value.tolist()} over "
                             f"the ROI, out of float range")
