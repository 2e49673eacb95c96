"""Downlink budget and the Rician channel draw.

All deterministic quantities (FSPL, noise, SNR, SINR) work in dB on top of
linear beam gains; the budget is written once, in snr_db. The Rician sample
is the only stochastic operation in the package and takes an explicit numpy
Generator so reruns are bit-reproducible. tests/test_link.py holds snr_db,
sinr_db and g_rx to the sampled channel's rank-1 factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import ArrayGeometry, steering_vector, upa_positions
from .geometry import LIGHT_SPEED, direction_to, slant_range

BOLTZMANN_DBW = -228.6  # [dBW / K / Hz]


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def linear_to_db(x):
    return 10.0 * np.log10(x)


@dataclass(frozen=True)
class LinkParams:
    """Carrier, power, loss, and noise terms of the downlink budget."""

    f_carrier: float          # [Hz]
    bandwidth: float          # [Hz]
    p_tx_dbw: float           # transmit power [dBW]
    lp_cable_db: float        # cable loss [dB]
    lp_at_db: float           # atmospheric loss [dB]
    noise_temp_dbk: float     # system noise temperature [dBK]
    k_rician: float           # Rician factor (linear)
    ut_dims: tuple[int, int]  # user-terminal array size

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if not self.k_rician > 0:
            raise ValueError("k_rician must be positive")


def fspl(distance, f_carrier: float):
    """Free-space path loss [dB] at the given distance [m] and carrier [Hz]."""
    return 20.0 * np.log10(4.0 * np.pi * np.asarray(distance, dtype=float)
                           * f_carrier / LIGHT_SPEED)


def noise_power(noise_temp_dbk: float, bandwidth: float) -> float:
    """Thermal noise power [dBW] over the signal bandwidth."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    return noise_temp_dbk + BOLTZMANN_DBW + 10.0 * math.log10(bandwidth)


def g_rx(ut_dims: tuple[int, int], k_rician: float) -> float:
    """Receive combining gain [dB], including the small scattered-power bonus."""
    n_x, n_y = ut_dims
    if n_x < 1 or n_y < 1:
        raise ValueError("ut dimensions must be at least 1")
    if not k_rician > 0:
        raise ValueError("k_rician must be positive")
    return 10.0 * math.log10(n_x * n_y + 1.0 / k_rician)


def snr_db(gain, distance, params: LinkParams):
    """Link-budget SNR [dB] for linear beam gain(s) at slant distance(s)."""
    return (params.p_tx_dbw - params.lp_cable_db + linear_to_db(gain)
            - params.lp_at_db - fspl(distance, params.f_carrier)
            + g_rx(params.ut_dims, params.k_rician)
            - noise_power(params.noise_temp_dbk, params.bandwidth))


def noise_rel(distance, params: LinkParams):
    """Noise power expressed in beam-gain units at the given slant distance(s).

    Every co-channel beam reaches a ground point through the same distance,
    atmosphere, and receive combining, so those factors cancel in the SINR
    ratio and the noise floor becomes this distance-dependent scalar, the
    inverse SNR of a unit gain (linear_to_db(1.0) adds exactly 0.0).
    """
    return db_to_linear(-snr_db(1.0, distance, params))


def sinr_db(g_serving, g_interference, rel_noise):
    """SINR [dB] from the serving gain, summed interferer gains, and noise_rel.

    One array holds the result and every step before it, in place: the
    bits of linear_to_db(g_serving / (g_interference + rel_noise)), a
    scalar when every input is one.
    """
    g_serving = np.asarray(g_serving, dtype=float)
    g_interference = np.asarray(g_interference, dtype=float)
    out = np.empty(np.broadcast_shapes(g_serving.shape, g_interference.shape,
                                       np.shape(rel_noise)))
    np.add(g_interference, rel_noise, out=out)
    np.divide(g_serving, out, out=out)
    np.log10(out, out=out)
    out *= 10.0
    return out[()]


@dataclass(frozen=True)
class ChannelSample:
    """One stochastic channel draw, kept as its rank-1 factors.

    H = (los_col + scatter_col) outer conj(a_sat), with los_col = gamma * a_ut
    and scatter_col = gamma * sqrt(1/k_rician) * a_scatter. No dense
    (n_ut x n_sat) matrix is built; w^H H f is (w^H col) * (a_sat^H f).
    """

    los_col: np.ndarray
    scatter_col: np.ndarray
    a_sat: np.ndarray

    def fro_norms(self) -> tuple[float, float, float]:
        """Frobenius norms of H and of its LoS and scattered parts.

        Each is rank one, so ||u v^H||_F = ||u|| * ||v||.
        """
        sat = float(np.linalg.norm(self.a_sat))
        return tuple(float(np.linalg.norm(col)) * sat for col in
                     (self.los_col + self.scatter_col, self.los_col, self.scatter_col))


def draw_scatter(n_ut: int, rng: np.random.Generator) -> np.ndarray:
    """Circularly-symmetric unit-covariance scattered component of length n_ut."""
    return (rng.standard_normal(n_ut) + 1j * rng.standard_normal(n_ut)) / np.sqrt(2.0)


def rician_sample(point_xy, sat_geometry: ArrayGeometry, h_sat: float,
                  params: LinkParams, rng: np.random.Generator) -> ChannelSample:
    """Draw the Rician channel toward a satellite-frame ground point.

    H = gamma * (a_ut + sqrt(1/k_rician) * a_scatter) outer conj(a_sat), where
    gamma is the aggregate loss magnitude (phase not modeled), returned as its
    rank-1 factors. The terminal array has half-wavelength spacing.
    Deterministic given the generator state.
    """
    x, y = float(point_xy[0]), float(point_xy[1])
    v_down = direction_to(x, y, h_sat)
    r = slant_range(x, y, h_sat)
    gamma = 10.0 ** (-(fspl(r, params.f_carrier) + params.lp_at_db
                       + params.lp_cable_db) / 20.0)
    a_sat = steering_vector(sat_geometry.positions, v_down)
    ut_pos = upa_positions(params.ut_dims[0], params.ut_dims[1], 0.5)
    a_ut = steering_vector(ut_pos, -v_down)
    a_scatter = draw_scatter(a_ut.shape[0], rng)
    scaled = math.sqrt(1.0 / params.k_rician)  # 0.0 at an infinite factor
    return ChannelSample(los_col=gamma * a_ut,
                         scatter_col=gamma * scaled * a_scatter, a_sat=a_sat)
