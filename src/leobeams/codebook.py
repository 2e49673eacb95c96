"""Hexagonal-lattice dynamic codebook construction and the DFT-grid baseline.

The beam targets of iteration k form a hexagonal lattice shifted back along x
by k/K of one lattice period, clipped to the elliptical region of interest.
Advancing one iteration per update period freezes the beam footprints on the
ground. A ground node keeps a single beam ID for the whole pass: its base
label is its (y, x) rank among the nodes active in some iteration of one
lattice enumeration, and IDs increment cyclically once per K-iteration cycle.
Both codebooks are `Codebook` arrays; the DFT grid is the one-iteration case
whose IDs never advance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import ArrayGeometry, Precoder, steering_vector
from .geometry import Roi, direction_to

MAX_LATTICE_NODES = 2**20  # nodes of one lattice enumeration, all K shifts


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
    c_x, c_y = (math.pi * h_sat / (oversampling * n) for n in (n_x, n_y))
    if not min(c_x, c_y) > 0:
        raise ValueError(f"oversampling = {oversampling} at h_sat_m = {h_sat} "
                         f"underflows the lattice period to 0")
    return c_x, c_y


def make_lattice_spec(h_sat: float, oversampling: float,
                      subarray_dims: tuple[int, int], cycle_len: int,
                      v_ground: float) -> LatticeSpec:
    """Lattice scalings and update period. A cycle_len over MAX_LATTICE_NODES
    is refused here, before it meets a float: one enumeration holds at least
    one node per iteration."""
    c_x, c_y = lattice_scaling(h_sat, oversampling, subarray_dims)
    if cycle_len < 1:
        raise ValueError("cycle_len must be at least 1")
    if cycle_len > MAX_LATTICE_NODES:
        raise ValueError(f"cycle_len needs more lattice nodes than the "
                         f"{MAX_LATTICE_NODES} one enumeration may hold")
    return LatticeSpec(c_x=c_x, c_y=c_y, cycle_len=cycle_len,
                       t_c=c_x / (cycle_len * v_ground))


def _sorted_yx(points: np.ndarray) -> np.ndarray:
    order = np.lexsort((points[:, 0], points[:, 1]))
    return points[order]


def _lattice(spec: LatticeSpec, roi: Roi) -> tuple[np.ndarray, np.ndarray]:
    """Targets (K x nodes x 2) of both sub-lattices and their in-ROI mask.

    Iteration k puts node (i, j) at (c_x * (i - k/K), sqrt(3) * c_y * j), with
    half-integer (i, j) on the offset sub-lattice. The index box covers the
    ROI at every shift; nodes come in (y, x) label order. Boxes over
    MAX_LATTICE_NODES, counted in floats, are refused before any allocation.
    """
    ny = math.sqrt(3.0) * spec.c_y
    i_hi, j_hi = (float(np.ceil(span)) + 2 for span in
                  ((roi.semi_x + spec.c_x) / spec.c_x, roi.semi_y / ny))
    nodes = 2.0 * (2 * i_hi + 1) * (2 * j_hi + 1) * spec.cycle_len
    if not nodes <= MAX_LATTICE_NODES:
        raise ValueError(f"cycle_len = {spec.cycle_len}, oversampling, "
                         f"roi_semi_x_m and roi_semi_y_m need {nodes:.4g} "
                         f"lattice nodes, over {MAX_LATTICE_NODES}")
    gi, gj = np.meshgrid(np.arange(-i_hi, i_hi + 1, dtype=float),
                         np.arange(-j_hi, j_hi + 1, dtype=float), indexing="ij")
    i = np.concatenate([gi.ravel(), gi.ravel() + 0.5])
    j = np.concatenate([gj.ravel(), gj.ravel() + 0.5])
    order = np.lexsort((i, j))
    shift = np.arange(spec.cycle_len)[:, None] / spec.cycle_len
    x = spec.c_x * (i[order] - shift)
    pts = np.stack(np.broadcast_arrays(x, ny * j[order]), axis=-1)
    return pts, roi.contains(pts[..., 0], pts[..., 1])


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
    on = geometry.rf_map == rf_chain
    coeffs = np.zeros(geometry.n_elements, dtype=complex)
    coeffs[on] = (steering_vector(geometry.positions[on], v)
                  / np.sqrt(geometry.n_sub))
    return Precoder(coeffs=coeffs, rf_chain=rf_chain)


@dataclass(frozen=True, eq=False)
class Codebook:
    """A K-iteration cycle of beams as read-only arrays.

    Iteration k holds its beams' satellite-frame targets (n_k x 2), base IDs
    and RF chains, in ascending base-ID order. Targets repeat every cycle;
    IDs advance by `advance` (mod n_beams) per full cycle: 1 for the hex
    cycle, so each ground node keeps its ID for the whole pass, and 0 for
    the DFT grid. No mirror pairing is stored: the evaluator finds a mirrored
    target's row by exact comparison of target values on each call.
    """

    targets: tuple[np.ndarray, ...]
    ids: tuple[np.ndarray, ...]
    rf: tuple[np.ndarray, ...]
    n_beams: int
    advance: int

    def __post_init__(self):
        for a in (*self.targets, *self.ids, *self.rf):
            a.flags.writeable = False

    @property
    def cycle_len(self) -> int:
        return len(self.targets)

    def snapshot(self, g: int) -> tuple[np.ndarray, np.ndarray]:
        """Targets and stable IDs of global iteration g (any integer;
        snapshots repeat every K * n_beams), in ascending-ID order. IDs wrap
        mod n_beams past a cycle, so the base order is re-sorted."""
        m, k = divmod(g, self.cycle_len)
        ids = (self.ids[k] + self.advance * m % self.n_beams) % self.n_beams
        asc = np.argsort(ids, kind="stable")
        return self.targets[k][asc], ids[asc]


def build_cycle(geometry: ArrayGeometry, spec: LatticeSpec,
                roi: Roi) -> Codebook:
    """The dynamic hex codebook: K iterations, IDs advancing once per cycle.

    A node's label is its rank among the eventually active nodes; an
    iteration's beams are its active nodes in label order, on chains 0, 1, ...
    """
    pts, mask = _lattice(spec, roi)
    ever = mask.any(axis=0)
    label = np.cumsum(ever) - 1
    for k, n in enumerate(np.count_nonzero(mask, axis=1)):
        if n > geometry.n_rf:
            raise ValueError(f"iteration {k} needs {n} beams but only "
                             f"{geometry.n_rf} RF chains are available")
    return Codebook(targets=tuple(pts[k][on] for k, on in enumerate(mask)),
                    ids=tuple(label[on] for on in mask),
                    rf=tuple(np.arange(np.count_nonzero(on)) for on in mask),
                    n_beams=int(np.count_nonzero(ever)), advance=1)


def _grid_shape(n_beams: int, aspect: float) -> tuple[int, int]:
    # factor pair closest in log-aspect to the ROI, fewest columns on a tie;
    # divisors come in pairs about sqrt(n_beams)
    low = [c for c in range(1, math.isqrt(n_beams) + 1) if n_beams % c == 0]
    cols = sorted({*low, *(n_beams // c for c in low)})
    return min(((c, n_beams // c) for c in cols),
               key=lambda cr: abs(math.log((cr[0] / cr[1]) / aspect)))


def dft_baseline(geometry: ArrayGeometry, roi: Roi, n_beams: int,
                 shrink: float) -> Codebook:
    """Static rectangular-grid codebook used as the fixed-beam baseline: one
    iteration whose IDs, the beams' (y, x) ranks, never advance.

    The grid is centered on the ROI with spacings shrink * (2*semi_x / cols,
    2*semi_y / rows); the construction is rejected unless exactly n_beams
    lattice points fall inside the ellipse, counted over a symmetric range
    that covers the ROI box, so the grid is closed under x -> -x and
    y -> -y. A count and shrink whose range would hold more than
    MAX_LATTICE_NODES nodes are refused before the grid is laid out.
    """
    if n_beams < 1:
        raise ValueError("n_beams must be at least 1")
    if shrink <= 0:
        raise ValueError("shrink must be positive")
    if n_beams > MAX_LATTICE_NODES:
        raise ValueError(f"dft_n_beams = {n_beams} is more than the "
                         f"{MAX_LATTICE_NODES} grid nodes one codebook may hold")
    aspect = roi.semi_x / roi.semi_y
    if not 0.0 < aspect < math.inf:
        raise ValueError(f"roi_semi_x_m / roi_semi_y_m = {roi.semi_x} / "
                         f"{roi.semi_y} leaves float range")
    cols, rows = _grid_shape(n_beams, aspect)
    # an in-ROI node lies within cols / (2 shrink) spacings of the centre
    # along x and rows / (2 shrink) along y: the symmetric range reaches one
    # node past that, so "exactly n_beams inside" counts every in-ROI node
    n_x, n_y = (float(np.ceil(c / (2.0 * shrink))) + 1 for c in (cols, rows))
    nodes = (2 * n_x + cols % 2) * (2 * n_y + rows % 2)
    if not nodes <= MAX_LATTICE_NODES:
        raise ValueError(f"dft_n_beams = {n_beams} lays out a {cols} x {rows} "
                         f"grid of {nodes:.4g} nodes at dft_shrink = {shrink}, "
                         f"more than {MAX_LATTICE_NODES}")
    s_x = shrink * 2.0 * roi.semi_x / cols
    s_y = shrink * 2.0 * roi.semi_y / rows
    if not max(n_x * s_x, n_y * s_y) < math.inf:
        raise ValueError(f"dft_shrink = {shrink} puts the DFT grid out of "
                         f"float range")
    # centered grid: integer multiples for odd counts, half-offsets for even
    i, j = (np.arange(m) - (m - 1) / 2 for m in (int(2 * n_x) + cols % 2,
                                                   int(2 * n_y) + rows % 2))
    gi, gj = np.meshgrid(i, j, indexing="ij")
    pts = np.column_stack([gi.ravel() * s_x, gj.ravel() * s_y])
    inside = pts[roi.contains(pts[:, 0], pts[:, 1])]
    if len(inside) != n_beams:
        raise ValueError(
            f"grid spacing yields {len(inside)} in-ROI beams, expected {n_beams}; "
            f"adjust the shrink factor")
    ids = np.arange(n_beams)
    return Codebook(targets=(_sorted_yx(inside),), ids=(ids,),
                    rf=(ids % geometry.n_rf,), n_beams=n_beams, advance=0)


def phase_table(target, geometry: ArrayGeometry, rf_chain: int,
                h_sat: float) -> list[tuple[int, float]]:
    """Rows of (element_index, phase_radians) of rf_chain steered at target."""
    coeffs = beam_precoder(target, geometry, rf_chain, h_sat).coeffs
    on = np.flatnonzero(geometry.rf_map == rf_chain)
    return list(zip(on.tolist(), np.angle(coeffs[on]).tolist()))
