"""Hexagonal-lattice dynamic codebook construction and the DFT-grid baseline.

The beam targets of iteration k form a hexagonal lattice shifted back along x
by k/K of one lattice period, clipped to the elliptical region of interest.
Advancing one iteration per update period freezes the beam footprints on the
ground. A ground node keeps a single beam ID for the whole pass: its base
label is its (y, x) rank among the nodes active in some iteration of one
lattice enumeration, and IDs increment cyclically once per K-iteration cycle.
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
    return LatticeSpec(c_x=c_x, c_y=c_y, cycle_len=cycle_len,
                       t_c=c_x / (cycle_len * v_ground))


def _sorted_yx(points: np.ndarray) -> np.ndarray:
    order = np.lexsort((points[:, 0], points[:, 1]))
    return points[order]


def _lattice(spec: LatticeSpec, roi: Roi) -> tuple[np.ndarray, np.ndarray]:
    """Targets (K x nodes x 2) of both sub-lattices and their in-ROI mask.

    Iteration k puts node (i, j) at (c_x * (i - k/K), sqrt(3) * c_y * j), with
    half-integer (i, j) on the offset sub-lattice. The index box covers the
    ROI at every shift; nodes come in (y, x) label order.
    """
    ny = math.sqrt(3.0) * spec.c_y
    i_hi = int(math.ceil((roi.semi_x + spec.c_x) / spec.c_x)) + 2
    j_hi = int(math.ceil(roi.semi_y / ny)) + 2
    gi, gj = np.meshgrid(np.arange(-i_hi, i_hi + 1, dtype=float),
                         np.arange(-j_hi, j_hi + 1, dtype=float), indexing="ij")
    i = np.concatenate([gi.ravel(), gi.ravel() + 0.5])
    j = np.concatenate([gj.ravel(), gj.ravel() + 0.5])
    order = np.lexsort((i, j))
    shift = np.arange(spec.cycle_len)[:, None] / spec.cycle_len
    x = spec.c_x * (i[order] - shift)
    pts = np.stack(np.broadcast_arrays(x, ny * j[order]), axis=-1)
    return pts, roi.contains(pts[..., 0], pts[..., 1])


def iteration_lattice(k: int, spec: LatticeSpec, roi: Roi) -> np.ndarray:
    """Satellite-frame lattice points of iteration k inside the ROI, sorted by (y, x)."""
    if k < 0:
        raise ValueError("iteration index must be non-negative")
    pts, mask = _lattice(spec, roi)
    return pts[k % spec.cycle_len][mask[k % spec.cycle_len]]


def eventually_active_points(spec: LatticeSpec, roi: Roi) -> np.ndarray:
    """Base-lattice points active during at least one iteration, sorted by (y, x).

    The (y, x) order defines the beam labels 0..n_beams-1.
    """
    pts, mask = _lattice(spec, roi)
    return pts[0][mask.any(axis=0)]


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

    def __init__(self, iterations: list[list[LabeledBeam]],
                 labeled_points: np.ndarray):
        self.iterations = iterations
        self.labeled_points = labeled_points

    @property
    def n_beams(self) -> int:
        return len(self.labeled_points)

    @property
    def cycle_len(self) -> int:
        return len(self.iterations)

    def targets(self, k: int) -> np.ndarray:
        return np.array([b.target for b in self.iterations[k % self.cycle_len]])

    def beam_ids(self, g: int) -> np.ndarray:
        """Stable beam IDs of global iteration g (g may be negative)."""
        m, k = divmod(g, self.cycle_len)
        base = np.array([b.beam_id for b in self.iterations[k]])
        return (base + m) % self.n_beams


def build_cycle(geometry: ArrayGeometry, spec: LatticeSpec,
                roi: Roi) -> CodebookCycle:
    """Construct all K iterations with labeled beams and per-iteration RF chains.

    A node's label is its rank among the eventually active nodes; an
    iteration's beams are its active nodes in label order, on chains 0, 1, ...
    """
    pts, mask = _lattice(spec, roi)
    ever = mask.any(axis=0)
    label = np.cumsum(ever) - 1
    iterations = []
    for k, on in enumerate(mask):
        ids, targets = label[on].tolist(), pts[k][on].tolist()
        if len(ids) > geometry.n_rf:
            raise ValueError(f"iteration {k} needs {len(ids)} beams but only "
                             f"{geometry.n_rf} RF chains are available")
        iterations.append([LabeledBeam(beam_id=b, rf_chain=c, target=tuple(t))
                           for c, (b, t) in enumerate(zip(ids, targets))])
    return CodebookCycle(iterations, pts[0][ever])


def _grid_shape(n_beams: int, aspect: float) -> tuple[int, int]:
    # factor pair closest in log-aspect to the ROI
    return min(((cols, n_beams // cols) for cols in range(1, n_beams + 1)
                if n_beams % cols == 0),
               key=lambda cr: abs(math.log((cr[0] / cr[1]) / aspect)))


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
    return [LabeledBeam(beam_id=bid, rf_chain=bid % geometry.n_rf, target=tuple(p))
            for bid, p in enumerate(_sorted_yx(inside).tolist())]


def cycle_table(cycle: CodebookCycle) -> list[tuple[int, int, int, float, float]]:
    """Rows of (iteration, beam_id, rf_chain, target_x_m, target_y_m)."""
    return [(k, b.beam_id, b.rf_chain, *b.target)
            for k, beams in enumerate(cycle.iterations) for b in beams]


def phase_table(beam: LabeledBeam, geometry: ArrayGeometry,
                h_sat: float) -> list[tuple[int, float]]:
    """Rows of (element_index, phase_radians) for the beam's sub-array."""
    coeffs = beam_precoder(beam.target, geometry, beam.rf_chain, h_sat).coeffs
    on = np.flatnonzero(geometry.rf_map == beam.rf_chain)
    return list(zip(on.tolist(), np.angle(coeffs[on]).tolist()))
