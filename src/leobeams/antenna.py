"""Phased-array geometry, steering vectors, analog precoders, and beam gain.

Element positions are stored in wavelength units so steering phases are
2*pi*<position, direction> with no explicit carrier term. All precoders are
phase-only and live on a single sub-array (one RF chain drives one beam).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ELEMENTS = 2**20  # elements of one satellite panel, all sub-arrays


def upa_positions(n_x: int, n_y: int, spacing: float) -> np.ndarray:
    """Element positions of an n_x by n_y uniform planar array in the z = 0 plane.

    spacing is in wavelengths. The array centroid sits at the origin. Returns
    shape (n_x * n_y, 3), ordered x-major.
    """
    if n_x < 1 or n_y < 1:
        raise ValueError("array dimensions must be at least 1")
    if spacing <= 0:
        raise ValueError("element spacing must be positive")
    ix = np.arange(n_x) - (n_x - 1) / 2.0
    iy = np.arange(n_y) - (n_y - 1) / 2.0
    gx, gy = np.meshgrid(ix, iy, indexing="ij")
    pos = np.zeros((n_x * n_y, 3))
    pos[:, 0] = gx.ravel() * spacing
    pos[:, 1] = gy.ravel() * spacing
    return pos


@dataclass(frozen=True)
class ArrayGeometry:
    """Full satellite panel: n_rf disjoint UPA sub-arrays.

    positions: (n_elements, 3) in wavelengths; rf_map: (n_elements,) RF-chain
    index per element. The sub-array layout only shifts global beam phases, so
    any disjoint placement gives identical gains.
    """

    positions: np.ndarray
    rf_map: np.ndarray
    n_rf: int
    subarray_nx: int
    subarray_ny: int
    spacing: float

    @property
    def n_elements(self) -> int:
        return self.positions.shape[0]

    @property
    def n_sub(self) -> int:
        return self.subarray_nx * self.subarray_ny


def satellite_array(n_rf: int, subarray_dims: tuple[int, int],
                    spacing: float) -> ArrayGeometry:
    """Build the satellite panel: sub-arrays side by side along x, one aperture apart.

    A panel of more than MAX_ELEMENTS elements is refused, naming its sizes,
    before anything is allocated.
    """
    if n_rf < 1:
        raise ValueError("n_rf must be at least 1")
    n_x, n_y = subarray_dims
    if not n_rf * n_x * n_y <= MAX_ELEMENTS:
        raise ValueError(f"n_rf x subarray_nx x subarray_ny = {n_rf} x {n_x} x "
                         f"{n_y} elements, more than the {MAX_ELEMENTS} one "
                         f"panel may hold")
    base = upa_positions(n_x, n_y, spacing)
    pitch = 2.0 * n_x * spacing  # aperture plus one-aperture gap
    positions = np.tile(base, (n_rf, 1))
    positions[:, 0] += np.repeat((np.arange(n_rf) - (n_rf - 1) / 2.0) * pitch,
                                 base.shape[0])
    return ArrayGeometry(
        positions=positions,
        rf_map=np.repeat(np.arange(n_rf, dtype=np.int64), base.shape[0]),
        n_rf=n_rf,
        subarray_nx=n_x,
        subarray_ny=n_y,
        spacing=spacing,
    )


def steering_vector(positions: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Array response toward unit direction v: entry n = exp(-2j*pi*<pos_n, v>)."""
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    return np.exp(-2j * np.pi * (positions @ v))


@dataclass(frozen=True)
class Precoder:
    """Phase-only beam weights for one RF chain.

    Nonzero entries appear only on the owning sub-array and all share modulus
    1/sqrt(n_sub), so the per-beam transmit power is 1.
    """

    coeffs: np.ndarray
    rf_chain: int

    def validate(self, geometry: ArrayGeometry, tol: float = 1e-12) -> None:
        on = geometry.rf_map == self.rf_chain
        amp = 1.0 / np.sqrt(geometry.n_sub)
        if np.any(np.abs(self.coeffs[~on]) != 0.0):
            raise ValueError("precoder has energy outside its sub-array")
        if np.max(np.abs(np.abs(self.coeffs[on]) - amp)) > tol * amp:
            raise ValueError("precoder entries are not constant-modulus")


def beam_gain(geometry: ArrayGeometry, precoder: Precoder, v: np.ndarray) -> float:
    """Linear transmit power gain of a precoder toward unit direction v.

    |steering_vector(v)^H coeffs|^2, in [0, n_sub]; equals n_sub at the beam's
    own target direction.
    """
    sv = steering_vector(geometry.positions, v)
    return float(np.abs(np.vdot(sv, precoder.coeffs)) ** 2)
