"""Hexagonal-lattice dynamic codebook construction and the DFT-grid baseline.

The beam targets of iteration k form a hexagonal lattice shifted back along x
by k/K of one lattice period, clipped to the elliptical region of interest.
Advancing one iteration per update period freezes the beam footprints on the
ground. Beam IDs are assigned so that a ground location keeps a single ID for
the whole pass: base labels follow the (y, x) ordering of the eventually
active lattice points and increment cyclically once per K-iteration cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import ArrayGeometry, Precoder, steering_vector
from .geometry import Roi, direction_to


@dataclass(frozen=True)
class LatticeSpec:
    """Scalings and timing of the dynamic lattice."""

    c_x: float          # lattice period along x [m]
    c_y: float          # lattice scaling along y [m]
    oversampling: float
    cycle_len: int      # iterations per cycle (K)
    t_c: float          # update period [s]


def lattice_scaling(h_sat: float, oversampling: float,
                    subarray_dims: tuple[int, int]) -> tuple[float, float]:
    """Lattice scalings proportional to the beam footprint of the sub-array."""
    n_x, n_y = subarray_dims
    if h_sat <= 0 or oversampling <= 0 or n_x < 1 or n_y < 1:
        raise ValueError("lattice scaling inputs must be positive")
    return (math.pi * h_sat / (oversampling * n_x),
            math.pi * h_sat / (oversampling * n_y))


def make_lattice_spec(h_sat: float, oversampling: float,
                      subarray_dims: tuple[int, int], cycle_len: int,
                      v_ground: float) -> LatticeSpec:
    c_x, c_y = lattice_scaling(h_sat, oversampling, subarray_dims)
    if cycle_len < 1:
        raise ValueError("cycle_len must be at least 1")
    return LatticeSpec(c_x=c_x, c_y=c_y, oversampling=oversampling,
                       cycle_len=cycle_len, t_c=c_x / (cycle_len * v_ground))


def _sorted_yx(points: np.ndarray) -> np.ndarray:
    order = np.lexsort((points[:, 0], points[:, 1]))
    return points[order]


def iteration_lattice(k: int, spec: LatticeSpec, roi: Roi) -> np.ndarray:
    """Satellite-frame lattice points of iteration k inside the ROI, sorted by (y, x)."""
    if k < 0:
        raise ValueError("iteration index must be non-negative")
    shift = (k % spec.cycle_len) / spec.cycle_len
    ny = math.sqrt(3.0) * spec.c_y
    i_hi = int(math.ceil(roi.semi_x / spec.c_x)) + 2
    j_hi = int(math.ceil(roi.semi_y / ny)) + 2
    i = np.arange(-i_hi, i_hi + 1, dtype=float)
    j = np.arange(-j_hi, j_hi + 1, dtype=float)
    gi, gj = np.meshgrid(i, j, indexing="ij")
    main = np.column_stack([spec.c_x * (gi.ravel() - shift), ny * gj.ravel()])
    offs = np.column_stack([spec.c_x * (gi.ravel() + 0.5 - shift),
                            ny * (gj.ravel() + 0.5)])
    pts = np.vstack([main, offs])
    return _sorted_yx(pts[roi.contains(pts[:, 0], pts[:, 1])])


def eventually_active_points(spec: LatticeSpec, roi: Roi) -> np.ndarray:
    """Base-lattice points active during at least one iteration, sorted by (y, x).

    The (y, x) order defines the beam labels 0..n_beams-1.
    """
    ny = math.sqrt(3.0) * spec.c_y
    i_hi = int(math.ceil((roi.semi_x + spec.c_x) / spec.c_x)) + 2
    j_hi = int(math.ceil(roi.semi_y / ny)) + 2
    i = np.arange(-i_hi, i_hi + 1, dtype=float)
    j = np.arange(-j_hi, j_hi + 1, dtype=float)
    gi, gj = np.meshgrid(i, j, indexing="ij")
    main = np.column_stack([spec.c_x * gi.ravel(), ny * gj.ravel()])
    offs = np.column_stack([spec.c_x * (gi.ravel() + 0.5), ny * (gj.ravel() + 0.5)])
    pts = np.vstack([main, offs])
    keep = np.zeros(len(pts), dtype=bool)
    for k in range(spec.cycle_len):
        keep |= roi.contains(pts[:, 0] - k * spec.c_x / spec.cycle_len, pts[:, 1])
    return _sorted_yx(pts[keep])


def beam_precoder(point: np.ndarray, geometry: ArrayGeometry, rf_chain: int,
                  h_sat: float) -> Precoder:
    """Phase-only precoder steering rf_chain's sub-array at a ground point."""
    if not 0 <= rf_chain < geometry.n_rf:
        raise ValueError(f"rf_chain {rf_chain} out of range for {geometry.n_rf} chains")
    v = direction_to(point[0], point[1], h_sat)
    sv = steering_vector(geometry.positions, v)
    coeffs = np.zeros(geometry.n_elements, dtype=complex)
    on = geometry.rf_map == rf_chain
    coeffs[on] = sv[on] / np.sqrt(geometry.n_sub)
    return Precoder(coeffs=coeffs, rf_chain=rf_chain)


@dataclass(frozen=True)
class LabeledBeam:
    """One beam of one iteration: stable ID, RF chain, and satellite-frame target."""

    beam_id: int
    rf_chain: int
    target: tuple[float, float]


class CodebookCycle:
    """K iterations of labeled beams plus the ID bookkeeping for later cycles.

    Targets are satellite-frame and identical in every cycle; IDs advance by
    one (mod n_beams) per full cycle so that each ground lattice node keeps
    its ID for the whole pass.
    """

    def __init__(self, iterations: list[list[LabeledBeam]], lattice: LatticeSpec,
                 labeled_points: np.ndarray):
        self.iterations = iterations
        self.lattice = lattice
        self.labeled_points = labeled_points

    @property
    def n_beams(self) -> int:
        return len(self.labeled_points)

    @property
    def cycle_len(self) -> int:
        return self.lattice.cycle_len

    def targets(self, k: int) -> np.ndarray:
        return np.array([b.target for b in self.iterations[k % self.cycle_len]])

    def beam_ids(self, g: int) -> np.ndarray:
        """Stable beam IDs of global iteration g (g may be negative)."""
        k = g % self.cycle_len
        m = g // self.cycle_len
        base = np.array([b.beam_id for b in self.iterations[k]])
        return (base + m) % self.n_beams


def _base_label(point: np.ndarray, labeled: np.ndarray, tol: float) -> int:
    d2 = np.square(labeled[:, 0] - point[0]) + np.square(labeled[:, 1] - point[1])
    idx = int(np.argmin(d2))
    if d2[idx] > tol * tol:
        raise RuntimeError("active lattice point missing from the labeled set")
    return idx


def build_cycle(geometry: ArrayGeometry, spec: LatticeSpec,
                roi: Roi) -> CodebookCycle:
    """Construct all K iterations with labeled beams and per-iteration RF chains."""
    labeled = eventually_active_points(spec, roi)
    iterations = []
    for k in range(spec.cycle_len):
        pts = iteration_lattice(k, spec, roi)
        if len(pts) > geometry.n_rf:
            raise ValueError(
                f"iteration {k} needs {len(pts)} beams but only "
                f"{geometry.n_rf} RF chains are available")
        shift = k * spec.c_x / spec.cycle_len
        ids = [_base_label(p + np.array([shift, 0.0]), labeled, 1.0) for p in pts]
        order = np.argsort(ids)  # RF chains follow label order
        beams = []
        for chain, idx in enumerate(order):
            p = pts[idx]
            beams.append(LabeledBeam(
                beam_id=ids[idx],
                rf_chain=chain,
                target=(float(p[0]), float(p[1])),
            ))
        iterations.append(beams)
    return CodebookCycle(iterations, spec, labeled)


def _grid_shape(n_beams: int, aspect: float) -> tuple[int, int]:
    # factor pair closest in log-aspect to the ROI
    best, score = (n_beams, 1), None
    for cols in range(1, n_beams + 1):
        if n_beams % cols:
            continue
        rows = n_beams // cols
        s = abs(math.log((cols / rows) / aspect))
        if score is None or s < score:
            best, score = (cols, rows), s
    return best


def dft_baseline(geometry: ArrayGeometry, roi: Roi, n_beams: int = 15,
                 shrink: float = 0.88) -> list[LabeledBeam]:
    """Static rectangular-grid codebook used as the fixed-beam baseline.

    The grid is centered on the ROI with spacings shrink * (2*semi_x / cols,
    2*semi_y / rows); the construction is rejected unless exactly n_beams
    lattice points fall inside the ellipse.
    """
    if n_beams < 1:
        raise ValueError("n_beams must be at least 1")
    if shrink <= 0:
        raise ValueError("shrink must be positive")
    cols, rows = _grid_shape(n_beams, roi.semi_x / roi.semi_y)
    s_x = shrink * 2.0 * roi.semi_x / cols
    s_y = shrink * 2.0 * roi.semi_y / rows
    # centered grid: integer multiples for odd counts, half-offsets for even;
    # counted over an extended range so "exactly n_beams inside" is honest
    half_x = 0.5 * ((cols + 1) % 2)
    half_y = 0.5 * ((rows + 1) % 2)
    i = np.arange(-(cols // 2 + 2), cols // 2 + 3, dtype=float) + half_x
    j = np.arange(-(rows // 2 + 2), rows // 2 + 3, dtype=float) + half_y
    gi, gj = np.meshgrid(i, j, indexing="ij")
    pts = np.column_stack([gi.ravel() * s_x, gj.ravel() * s_y])
    inside = pts[roi.contains(pts[:, 0], pts[:, 1])]
    if len(inside) != n_beams:
        raise ValueError(
            f"grid spacing yields {len(inside)} in-ROI beams, expected {n_beams}; "
            f"adjust the shrink factor")
    inside = _sorted_yx(inside)
    beams = []
    for bid, p in enumerate(inside):
        beams.append(LabeledBeam(
            beam_id=bid,
            rf_chain=bid % geometry.n_rf,
            target=(float(p[0]), float(p[1])),
        ))
    return beams


def cycle_table(cycle: CodebookCycle) -> list[tuple[int, int, int, float, float]]:
    """Rows of (iteration, beam_id, rf_chain, target_x_m, target_y_m)."""
    rows = []
    for k, beams in enumerate(cycle.iterations):
        for b in beams:
            rows.append((k, b.beam_id, b.rf_chain, b.target[0], b.target[1]))
    return rows


def phase_table(beam: LabeledBeam, geometry: ArrayGeometry,
                h_sat: float) -> list[tuple[int, float]]:
    """Rows of (element_index, phase_radians) for the beam's sub-array."""
    coeffs = beam_precoder(beam.target, geometry, beam.rf_chain, h_sat).coeffs
    on = np.flatnonzero(geometry.rf_map == beam.rf_chain)
    return list(zip(on.tolist(), np.angle(coeffs[on]).tolist()))
