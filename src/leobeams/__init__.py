"""Analog beam codebooks for a moving low-orbit satellite.

The package builds a time-varying hexagonal-lattice codebook whose beam
footprints stay frozen on the ground while the satellite passes, a static
DFT-style grid baseline, and the link-budget machinery to compare the two:
coverage maps, SINR distribution curves, per-pass SNR series, and handover
counts.
"""

__version__ = "0.1.0"

from .antenna import (ArrayGeometry, Precoder, beam_gain, satellite_array,
                      steering_vector, upa_positions)
from .codebook import (Codebook, LatticeSpec, build_cycle, dft_baseline,
                       eventually_active_points, lattice_scaling,
                       make_lattice_spec)
from .config import (SceneConfig, apply_overrides, build_scene, format_config,
                     load_config, parse_config)
from .fields import CdfCurve, FieldMap, TimeSeries
from .geometry import (EARTH_MASS, EARTH_RADIUS, GRAV_CONST, LIGHT_SPEED, Roi,
                       direction_to, ground_track_speed, slant_range)
from .kernels import gain_matrix
from .link import (ChannelSample, LinkParams, fspl, g_rx, noise_power,
                   rician_sample, sinr_db, snr_db)
from .simulate import (Scene, cdf_from_map, coverage_map, dominance_violations,
                       handover_map, pass_timeseries, pass_window,
                       serving_beam, sinr_cdf)

__all__ = [
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
]
