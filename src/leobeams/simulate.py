"""Scene-level experiments: coverage maps, SINR CDFs, pass series, handovers.

Maps are snapshots in the satellite frame. Pass series and handover counts
follow a fixed ground point through the moving footprint pattern: the point
drifts backward along x in the satellite frame at the ground-track speed.

Serving disciplines differ by design. Static codebooks (frozen lattice or the
DFT baseline) re-select the best beam at every sample; the sweep over the
pattern is monotone, so this never flaps. The dynamic codebook associates at
window entry and at each update instant tau = g * t_c exactly, holding the
beam in between so the serving ID stays constant while footprints are frozen.

The scene holds two `Codebook`s: `Scene.hex`, the K-iteration hex cycle, and
`Scene.dft`, the DFT grid as one iteration whose IDs never advance.
`codebook_for` maps every mode name to one of them.

Every kernel call goes through one slice loop, `_gain_slices`: at most
KERNEL_EVALS point x target pairs per call, each slice's per-point trig
(`point_terms`) computed once for every target set it serves. Every serving
decision goes through one serving loop, `_served_slices`, which runs the
slice loop over the rows of one or more `_serve_plan`s and serves each slice
through one evaluator, `_serve_slice`. The map fills, `serving_beam`, the
SINR CDF, the dynamic schedule, the handover sweeps and the pass series use
each slice's IDs and gains as it comes, so none holds whole served arrays.
Map blocks, sweep calls and pass-series blocks hold at most BLOCK points,
so memory is bounded whatever the grid, codebook and series sizes. Maps and
CDFs share one block loop, `_roi_blocks`: a map holds its value grid plus
one block, and a CDF counts each slice's values mode by mode, and holds no
grid.

The scene is symmetric about both axes, bit for bit: the grid axes are
closed under x -> -x and y -> -y, and the kernel is odd in x and in y
(np.sin is odd, np.cos even, and IEEE negation commutes with every
rounding). So a beam's gain at a mirrored point is the kernel's value at the
point itself toward the beam's mirrored target. `_serve_plan` applies this
one rule: the mirror images of (px, |py|) are served from one kernel slice
over the distinct signed targets they need, and the sides that read the
same rows share one max walk over them. Maps fill the quadrant x >= 0,
y >= 0 and write all four images, sweeps run the rows y >= 0, and a single
point takes the side matching the sign of its y. The dynamic codebook's
association events pair point x at update index g with -x at -g, whose
positions are negatives of each other, and g and g + K share their targets,
so one evaluator call serves a window's indices of one residue class mod
K. `_dynamic_events` is that policy's one schedule: window by window of
BLOCK // points whole rounds of K indices, it yields each class's IDs, whose
changes the handover map counts and whose one point the series reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import ArrayGeometry
from .codebook import Codebook, LatticeSpec
from .fields import CdfCurve, FieldMap, TimeSeries
from .geometry import Roi, slant_range
from .kernels import gain_matrix, point_terms
from .link import LinkParams, noise_rel, sinr_db, snr_db

DEFAULT_GRID_STEP = 2000.0      # coverage-map spacing [m]
DEFAULT_HANDOVER_STEP = 5000.0  # handover-map spacing [m]
UPDATE_SUBSTEPS = 20            # time samples per codebook update period
TIME_TOL = 1e-9                 # [s] before g * t_c that still counts as g
BLOCK = 2**15                   # points per map, sweep or series block
KERNEL_EVALS = 81920            # point x beam evaluations per gain-kernel call
MAX_SAMPLES = 2**22             # time samples of one pass series or sweep row
MAX_CELLS = 2**23               # grid nodes of one map's ROI box
CDF_THRESHOLDS_DB = np.arange(-10.0, 20.0001, 0.25)  # SINR CDF abscissae [dB]
CDF_THRESHOLDS_DB.flags.writeable = False            # shared by every curve

MAP_MODES = ("hex", "dft")
PASS_MODES = ("static", "dynamic", "dft")
METRICS = ("snr", "sinr", "cell")


@dataclass(frozen=True)
class Scene:
    """Everything needed to run experiments: array, codebooks, ROI, budget."""

    geometry: ArrayGeometry
    lattice: LatticeSpec
    roi: Roi
    h_sat: float
    link: LinkParams
    hex: Codebook
    dft: Codebook
    v_ground: float
    dt: float  # default time step of pass series and handover sweeps [s]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def roi_grid(roi: Roi, step: float,
             key: str = "grid step") -> tuple[np.ndarray, np.ndarray]:
    """Grid axes centered on the sub-satellite point covering the ROI box.

    Raises ValueError naming key, before allocating, when step is not finite
    or the box would hold more than MAX_CELLS nodes.
    """
    _check_finite(**{key: step})
    if step <= 0:
        raise ValueError(f"{key} must be positive")
    # nodes per half axis: a Python float quotient past float range is inf,
    # not an error, and Python ints count any finite grid exactly
    nx, ny = (math.floor(h) if math.isfinite(h) else math.inf
              for h in (float(roi.semi_x) / float(step),
                        float(roi.semi_y) / float(step)))
    cells = (2 * nx + 1) * (2 * ny + 1)
    if cells > MAX_CELLS:
        from decimal import Decimal  # only this error needs it: not on import
        raise ValueError(f"{key} = {step} m puts {Decimal(cells):.4g} nodes "
                         f"in one map, more than the {MAX_CELLS} it may hold")
    return (step * np.arange(-nx, nx + 1, dtype=float),
            step * np.arange(-ny, ny + 1, dtype=float))


def codebook_for(scene: Scene, mode: str, modes=MAP_MODES) -> Codebook:
    """The codebook a mode serves from: the DFT grid for "dft" and the hex
    cycle for every other name in modes (MAP_MODES, or PASS_MODES for pass
    series and handover maps)."""
    if mode not in modes:
        raise ValueError(f"unknown codebook mode {mode!r}")
    return scene.dft if mode == "dft" else scene.hex


def _gain_slices(scene: Scene, px: np.ndarray, py: np.ndarray, *targets):
    """The one kernel loop: per slice s of KERNEL_EVALS // r points (at least
    one), r the most rows of any (tx, ty) in targets, computes the points'
    `point_terms` once and yields (s, i, gains) for each target set i in
    turn, gains the kernel at (px[s], py[s]) toward targets[i], C-ordered
    (rows, points). A consumer drops each gains before it asks for the
    next, so one matrix is held at a time."""
    g = scene.geometry
    step = max(1, KERNEL_EVALS // max(tx.size for tx, _ in targets))
    for a in range(0, px.size, step):
        s = slice(a, a + step)
        terms = point_terms(px[s], py[s], scene.h_sat, g.subarray_nx,
                            g.subarray_ny, g.spacing)
        for i, (tx, ty) in enumerate(targets):
            yield s, i, gain_matrix(px[s], py[s], tx, ty, scene.h_sat,
                                    g.subarray_nx, g.subarray_ny, g.spacing,
                                    terms).T


def _max_walk(gains: np.ndarray,
              rows: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running max over gains' rows in the order listed: the max at each
    point, the position in rows of its first maximal row, and a mask of the
    points where a row equalled the running max at its turn, which holds
    every point where two rows tie at the max (and may hold a few more)."""
    k = np.zeros(gains.shape[1], dtype=np.intp)
    best = gains[rows[0]].copy()
    tie = np.zeros(best.shape, dtype=bool)
    for b in range(1, len(rows)):
        row = gains[rows[b]]
        tie |= row == best
        k[row > best] = b
        np.maximum(best, row, out=best)
    return best, k, tie


def _serve_plan(book: Codebook, g, h=None) -> tuple:
    """The kernel rows and walks that serve book's global iteration g at
    (px, |py|) and (px, -|py|), and with h, iteration h at (-px, |py|) and
    (-px, -|py|): two sides, or four with h, in that order. Returns (tx, ty,
    orders, walks, n_beams).

    g and h are each one iteration, or one per point, all of one residue mod
    K, so every point of a side reads the same targets and only its IDs
    advance: by advance x its cycles past the first point's (mod n_beams).
    The interferer sums need one iteration per side, and the error for an
    iteration with no beams names the first point's.

    Beam j seen from (sx * px, sy * |py|) is the kernel at (px, |py|) toward
    the signed target (sx * tx_j, sy * ty_j), and exact duplicates share one
    kernel row ((x, 0.0) and (x, -0.0) too). A flip the codebook is closed
    under adds no row: y -> -y always, and x -> -x for the DFT grid, hex k
    with 2k = 0 mod K, and h = -g at K = 2, 4 and 8; otherwise a plan
    carries up to twice the rows.

    tx, ty are the distinct signed targets, one kernel row each; orders[side]
    lists the rows of that side's beams in ascending-ID order; walks holds
    one [rows, members] per set of rows that some sides read, with rows in
    first-seen order and members one (side, lowest ID on each row, shift)
    per such side, shift(s) the ID advance of each point of a slice s of
    per-point iterations, or None: a plan holds no per-point array of its
    own. An iteration with no beams raises ValueError.
    """
    n_beams = book.n_beams
    sides, rows = [], {}  # rows: signed target (x, y) -> kernel row
    for sx, it in ((1.0, g),) if h is None else ((1.0, g), (-1.0, h)):
        # shift(s): the ID advance past the first point's at slice s, or None
        first, shift = it, None
        if np.ndim(it):
            first = int(it[0])
            shift = lambda s, it=it, c=first // book.cycle_len: (
                book.advance * (it[s] // book.cycle_len - c) % n_beams)
        targets, ids = book.snapshot(first)
        if ids.size == 0:
            raise ValueError(f"iteration {first} has no beams in the ROI")
        tx = (sx * targets[:, 0]).tolist()
        for ty in (targets[:, 1].tolist(), (-targets[:, 1]).tolist()):
            sides.append(([rows.setdefault(t, len(rows)) for t in zip(tx, ty)],
                          ids.tolist(), shift))
    walks = {}  # row set -> [its rows, [(side, lowest ID on each row, shift)]]
    for side, (order, ids, shift) in enumerate(sides):
        walk, members = walks.setdefault(frozenset(order),
                                         [list(dict.fromkeys(order)), []])
        lowest = dict(zip(reversed(order), reversed(ids)))
        members.append((side, np.array([lowest[r] for r in walk]), shift))
    tx, ty = np.array(list(rows)).T
    return tx, ty, [order for order, _, _ in sides], list(walks.values()), n_beams


def _serve_slice(plan: tuple, gains: np.ndarray, s: slice,
                 interference: bool = True, ids: bool = True) -> tuple:
    """The serving IDs, serving gains and interferer sums of plan's sides at
    one `_gain_slices` slice s of the points, from the slice's gains toward
    plan's rows: each (sides, points in s), None where not asked for.

    Sides whose beams read the same set of rows (compared exactly) share
    one walk over it; the max is exact in any order, so it is every sharing
    side's serving gain, and without IDs the walk is a running max alone.
    With IDs it is `_max_walk`: each side maps the first maximal row to its
    lowest ID on that row, advanced at each point of s by its slice of the
    plan's shift, and at the points the walk marks as possible ties takes
    the lowest of its advanced IDs on the rows at the max, wrapped IDs
    included. The interferer sum adds each side's rows in its own
    ascending-ID order, less the serving gain. So each side gets, bit for
    bit, what a direct walk over its beams would give, whatever the slicing.
    """
    _, _, orders, walks, n_beams = plan
    shifts = {f: f(s) for f in {m[2] for _, ms in walks for m in ms} if f}
    g_serve = np.empty((len(orders), gains.shape[1]))
    sid = np.empty(g_serve.shape, dtype=np.int64) if ids else None
    for walk, members in walks:
        if not ids:  # the max alone: no ID gather, no tie pass
            best = gains[walk[0]].copy()
            for r in walk[1:]:
                np.maximum(best, gains[r], out=best)
            g_serve[[side for side, _, _ in members]] = best
            continue
        best, k, tie = _max_walk(gains, walk)
        for side, lowest, shift in members:
            sid[side] = (lowest[k] if shift is None
                         else (lowest[k] + shifts[shift]) % n_beams)
            g_serve[side] = best
        c = np.flatnonzero(tie)
        if c.size:  # each side's lowest ID among the rows at the max
            hit = gains[np.ix_(walk, c)] == best[c]
            for side, lowest, shift in members:
                lowest = (lowest[:, None] if shift is None
                          else (lowest[:, None] + shifts[shift][c])
                          % n_beams)
                sid[side, c] = np.where(hit, lowest, n_beams).min(axis=0)
    interf = np.empty(g_serve.shape) if interference else None
    for side, order in enumerate(orders if interference else ()):
        total = gains[order[0]].copy()
        for r in order[1:]:
            total += gains[r]
        interf[side] = total - g_serve[side]
    return sid, g_serve, interf


def _served_slices(scene: Scene, px: np.ndarray, py: np.ndarray, *plans,
                   interference: bool = True, ids: bool = True):
    """The one serving loop: one `_gain_slices` pass over the rows of every
    `_serve_plan` in plans at the points (px, py), py holding |y|. Yields
    (s, i, ids, gains, sums) per slice s and plan i in turn, `_serve_slice`'s
    result for plans[i] at the points in s: each (sides, points in s), None
    where interference or ids is False. Max gain wins, and exact ties go to
    the lowest ID. A consumer that drops each result before it asks for the
    next holds one slice of one plan at a time."""
    for s, i, gains in _gain_slices(scene, px, py,
                                    *(plan[:2] for plan in plans)):
        served = _serve_slice(plans[i], gains, s, interference, ids)
        del gains
        yield (s, i, *served)
        del served  # freed before the next slice's kernel call allocates


def serving_beam(scene: Scene, point_xy, mode: str = "hex",
                 iteration: int = 0) -> tuple[int, float]:
    """Serving beam ID and its linear gain at one satellite-frame point."""
    x, y = float(point_xy[0]), float(point_xy[1])
    _check_finite(x=x, y=y)
    _, _, sid, g, _ = next(_served_slices(
        scene, np.array([x]), np.array([abs(y)]),
        _serve_plan(codebook_for(scene, mode), iteration), interference=False))
    side = int(y < 0)
    return int(sid[side, 0]), float(g[side, 0])


def _roi_blocks(roi: Roi, xs: np.ndarray, ys: np.ndarray):
    """The one block loop over a grid's quadrant: yields (r, m, px, py) per
    block of whole rows r, r + 1, ... holding about BLOCK quadrant nodes,
    with m the block's quadrant ROI mask, shape (rows, xs.size - xs.size //
    2), and px, py the coordinates of m's nodes, all with x >= 0, y >= 0.

    The grid and the ellipse are symmetric about both axes bit for bit
    (ys[-1 - i] == -ys[i], and the same for xs), so a consumer evaluates
    only these nodes and takes the four sides of a `_serve_plan`. Each
    block is tested against the ROI as it is yielded, so a consumer holds
    one block.
    """
    c = xs.size // 2
    rows = max(1, BLOCK // (xs.size - c))
    for r in range(ys.size // 2, ys.size, rows):
        m = roi.contains(xs[c:], ys[r:r + rows, None])
        yield (r, m, np.broadcast_to(xs[c:], m.shape)[m],
               np.broadcast_to(ys[r:r + rows, None], m.shape)[m])


def _roi_field(roi: Roi, step: float, key: str, fill) -> FieldMap:
    """Grid over the ROI box holding fill's values at in-ROI nodes, NaN
    elsewhere, assembled from `_roi_blocks`: fill(px, py) returns the four
    sides at a block's nodes, shape (4, n). Row -y takes the second side,
    column -x the last two, and the axes the first, so nothing but the value
    grid grows with the grid.
    """
    xs, ys = roi_grid(roi, step, key)
    vals = np.full((ys.size, xs.size), np.nan)
    # row i of vals[::-1] is row -y, column i of vals[:, ::-1] column -x
    sides = (vals, vals[::-1], vals[:, ::-1], vals[::-1, ::-1])
    c = xs.size // 2
    for r, m, px, py in _roi_blocks(roi, xs, ys):
        out = fill(px, py)
        for side in (3, 2, 1, 0):  # side 0 last: the axes take it
            sides[side][r:r + m.shape[0], c:][m] = out[side]
    return FieldMap(xs=xs, ys=ys, values=vals)


def _check_finite(**values) -> None:
    """Refuse a non-finite value by its name; None stands for a default."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _check_dt(dt: float) -> None:
    _check_finite(dt=dt)
    if dt <= 0:
        raise ValueError("dt must be positive")


def _check_samples(n: float, dt: float) -> None:
    if not n <= MAX_SAMPLES:
        raise ValueError(f"dt = {dt} s needs {n:.4g} samples in one pass, "
                         f"more than the {MAX_SAMPLES} it may hold")


# ---------------------------------------------------------------------------
# maps and CDFs
# ---------------------------------------------------------------------------

def _metric_fill(scene: Scene, metric: str, mode: str, iteration: int):
    """The `_roi_blocks` fill of a coverage map: metric at the four sides."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    book = codebook_for(scene, mode)

    def at(px, py):
        out = np.empty((4, px.size), np.int64 if metric == "cell" else float)
        for s, _, sid, g_serve, interf in _served_slices(
                scene, px, py, _serve_plan(book, iteration, iteration),
                interference=metric == "sinr", ids=metric == "cell"):
            if metric == "cell":
                out[:, s] = sid
            else:
                dist = slant_range(px[s], py[s], scene.h_sat)
                out[:, s] = (snr_db(g_serve, dist, scene.link)
                             if metric == "snr" else
                             sinr_db(g_serve, interf,
                                     noise_rel(dist, scene.link)))
            del sid, g_serve, interf  # freed before the next kernel call
        return out
    return at


def coverage_map(scene: Scene, metric: str = "sinr", mode: str = "hex",
                 iteration: int = 0, step: float = DEFAULT_GRID_STEP) -> FieldMap:
    """Satellite-frame map of SNR, SINR, or serving-cell ID over the ROI."""
    return _roi_field(scene.roi, step, "grid_step_m",
                      _metric_fill(scene, metric, mode, iteration))


def _count_above(vals: np.ndarray, thresholds_db: np.ndarray):
    """Number of values, and how many of them exceed each threshold: vals,
    the caller's one gathered copy of the finite values, is sorted in
    place."""
    vals.sort()
    return vals.size, vals.size - np.searchsorted(vals, thresholds_db,
                                                  side="right")


def _cdf(n: int, above: np.ndarray, thresholds_db: np.ndarray,
         label: str) -> CdfCurve:
    if n == 0:
        raise ValueError("map has no in-ROI cells")
    return CdfCurve(thresholds_db=thresholds_db, probs=above / n, label=label)


def cdf_from_map(fmap: FieldMap, thresholds_db: np.ndarray,
                 label: str = "") -> CdfCurve:
    """Complementary CDF prob(value > threshold) over a map's in-ROI cells."""
    vals = fmap.values
    return _cdf(*_count_above(vals[np.isfinite(vals)], thresholds_db),
                thresholds_db, label)


def sinr_cdf(scene: Scene, modes=MAP_MODES, iteration: int = 0,
             step: float = DEFAULT_GRID_STEP) -> list[CdfCurve]:
    """Coverage curves prob(SINR > threshold), one per mode, over the in-ROI
    grid at the thresholds CDF_THRESHOLDS_DB.

    The values are counted block by block as `_roi_blocks` yields them, so
    no map is built: each grid node is counted once, from the side the map
    would write there, and the counts, so the curves, are those of
    `cdf_from_map` over `coverage_map`. Each block is served without IDs by
    one `_served_slices` pass over every mode's `_serve_plan`, so a slice's
    point terms, slant ranges, noise and side masks are computed once for
    all modes; each mode's SINR is counted and its arrays released before
    the next mode's gains. So the loop holds one block's coordinates and
    one mode's slice at a time.
    """
    if not modes:
        raise ValueError("modes must name at least one codebook")
    books = [codebook_for(scene, mode) for mode in modes]
    xs, ys = roi_grid(scene.roi, step, "grid_step_m")
    plans = [_serve_plan(book, iteration, iteration) for book in books]
    n = np.zeros(len(books), dtype=np.int64)
    above = np.zeros((len(books), CDF_THRESHOLDS_DB.size), dtype=np.int64)
    for _, _, bx, by in _roi_blocks(scene.roi, xs, ys):
        for s, i, _, *served in _served_slices(scene, bx, by, *plans,
                                               ids=False):
            if i == 0:  # the slice's noise and sides, shared by every mode
                # the sides on nodes of their own: y != 0, x != 0, both (the
                # axes' nodes are the grid's only zeros: roi_grid's step * 0)
                y_off, x_off = by[s] != 0.0, bx[s] != 0.0
                own = np.stack([np.ones_like(y_off), y_off, x_off,
                                y_off & x_off])
                rel = noise_rel(slant_range(bx[s], by[s], scene.h_sat),
                                scene.link)
            out = sinr_db(*served, rel)
            n_b, above_b = _count_above(out[own & np.isfinite(out)],
                                        CDF_THRESHOLDS_DB)
            del served, out  # before the next mode's gains are computed
            n[i] += n_b
            above[i] += above_b
    return [_cdf(n_i, above_i, CDF_THRESHOLDS_DB, mode)
            for n_i, above_i, mode in zip(n, above, modes)]


# ---------------------------------------------------------------------------
# pass time series
# ---------------------------------------------------------------------------

def pass_window(scene: Scene, ut_xy):
    """Times between which fixed ground point(s) sit inside the moving ROI."""
    x_g, x_b = np.asarray(ut_xy[0], dtype=float), scene.roi.x_extent(ut_xy[1])
    return (x_g - x_b) / scene.v_ground, (x_g + x_b) / scene.v_ground


def _iteration(scene: Scene, t) -> np.ndarray:
    """Dynamic iteration g at time(s) t; up to TIME_TOL before g * t_c counts
    as g."""
    return np.floor((np.asarray(t) + TIME_TOL)
                    / scene.lattice.t_c).astype(np.int64)


def pass_timeseries(scene: Scene, ut_xy, mode: str = "dynamic",
                    duration: float = None, dt: float = None,
                    t_start: float = 0.0) -> TimeSeries:
    """Serving ID and SNR for a fixed ground point while it crosses the ROI.

    Samples run from t_start at spacing dt (default scene.dt) while the point
    is inside the ROI, up to its exit or the end of duration. Dynamic mode
    reads its point's side of the handover map's `_dynamic_events` with the
    first and last samples as the window, so a series ending before the
    window's final tau can show one change fewer than `handover_map`. Each
    event's held target is read from its own iteration's `Codebook.snapshot`,
    and each block's held gains come from one `_gain_slices` pass toward the
    distinct held targets, each sample reading its own event's target's row.

    Sample k is at t_start + dt * k. The indices are generated BLOCK at a
    time, twice unless they fit one block: once to count the in-ROI samples
    and find the first and last, and once to serve each block and write its
    times, IDs and SNR into the preallocated result. So a series holds its
    result (24 B per sample) plus one block.
    """
    book = codebook_for(scene, mode, PASS_MODES)
    if dt is None:
        dt = scene.dt
    x_g, y = float(ut_xy[0]), float(ut_xy[1])
    _check_finite(x=x_g, y=y, t_start=t_start, duration=duration)
    _check_dt(dt)
    if duration is not None and duration < 0:
        raise ValueError("duration must be non-negative")
    t_in, t_out = pass_window(scene, ut_xy)
    end = t_out if duration is None else min(t_start + duration, t_out)
    # float64 must resolve dt, and t_c for the iteration index, at these times
    t_max = max(abs(t_start), abs(t_in), abs(t_out))
    if not t_max * 2.0**-52 < min(dt, scene.lattice.t_c):
        raise ValueError(f"dt = {dt} is below the float resolution at t = {t_max:g}")
    # sample indices from one before entry to the end; the ROI mask cuts
    k0 = max(0, math.ceil((t_in - t_start) / dt) - 1)
    n = math.floor((end - t_start) / dt + 1e-9) + 1 - k0
    _check_samples(n, dt)

    def blocks():  # each block of sample indices: its in-ROI times and x
        for a in range(k0, k0 + max(n, 0), BLOCK):
            ts = t_start + dt * np.arange(a, min(a + BLOCK, k0 + n))
            sx = x_g - scene.v_ground * ts
            keep = scene.roi.contains(sx, np.full_like(sx, y))
            yield ts[keep], sx[keep]

    # the count pass, then the serving pass: one block is generated once
    counting, serving = ([list(blocks())] * 2 if n <= BLOCK
                         else (blocks(), blocks()))
    size, ends = 0, []  # in-ROI samples, and the first and last one's times
    for ts, _ in counting:
        size += ts.size
        ends += ts[[0, -1]].tolist() if ts.size else []
    if size == 0:
        raise ValueError("no samples fall inside the region of interest")

    side = int(y < 0)
    if mode == "dynamic":
        # this point's events sit at update indices g0, g0 + 1, ..., and
        # each sample holds the beam of its own index's event
        g0 = int(_iteration(scene, ends[0]))
        g, ids = zip(*((g + book.cycle_len * np.arange(ids.shape[1]),
                        ids[side, :, 0]) for g, ids in _dynamic_events(
            scene, np.array([x_g]), np.array([abs(y)]), np.array(ends[:1]),
            np.array(ends[-1:]))))
        held = np.concatenate(ids)[np.argsort(np.concatenate(g))]
        held = held[held < book.n_beams].astype(np.int64)
        # each event's held target, from its own iteration's snapshot, and
        # its row of the gains: one row per distinct target
        targets = np.concatenate([t[i == h] for (t, i), h in zip(
            map(book.snapshot, range(g0, g0 + held.size)), held.tolist())])
        targets, row = np.unique(targets, axis=0, return_inverse=True)
        tx, ty = targets.T

    t_s, sid, metric = (np.empty(size), np.empty(size, dtype=np.int64),
                        np.empty(size))
    o = 0
    for ts, sx in serving:
        sy = np.full_like(sx, y)
        # this block's views of the result; gain holds the gains until SNR
        at = slice(o, o + ts.size)
        o += ts.size
        t_s[at], ids, gain = ts, sid[at], metric[at]
        if mode == "dynamic":
            e = _iteration(scene, ts) - g0
            ids[:] = held[e]
            for s, _, gains in _gain_slices(scene, sx, sy, (tx, ty)):
                gain[s] = gains[row[e[s]], np.arange(gains.shape[1])]
                del gains
        else:
            for s, _, sid_s, g_s, _ in _served_slices(
                    scene, sx, np.abs(sy), _serve_plan(book, 0),
                    interference=False):
                ids[s], gain[s] = sid_s[side], g_s[side]
                del sid_s, g_s
        gain[:] = snr_db(gain, slant_range(sx, sy, scene.h_sat), scene.link)
    return TimeSeries(t_s=t_s, serving_id=sid, metric_db=metric)


# ---------------------------------------------------------------------------
# handover maps
# ---------------------------------------------------------------------------

def _swept_handover_counts(scene: Scene, py: np.ndarray, book: Codebook,
                           dt: float) -> np.ndarray:
    """Static-codebook handovers at the four sides of (x, py), py >= 0, shape
    (4, n): at (x, py), (x, -py), (-x, py) and (-x, -py).

    Every point of a row sees the same sweep, and row -y sees it mirrored,
    so each row y >= 0 is swept once for both signs, and column -x repeats
    column x. The rows' samples run one after another under one running
    sample index, BLOCK indices per `_served_slices` call; a row counts the
    ID changes between its own consecutive in-ROI samples slice by slice,
    and each slice carries the previous slice's last sample, so a row split
    between two slices or calls counts the change at the split.
    """
    ys = np.unique(py)
    x_b = scene.roi.x_extent(ys)
    if not math.isfinite(scene.v_ground * dt):
        raise ValueError(f"dt = {dt} s overflows the ground step")
    with np.errstate(over="ignore"):  # an overflowing count is refused
        n = 2.0 * x_b / (scene.v_ground * dt) + 1e-9
    _check_samples(n.max(), dt)
    n = np.floor(n).astype(np.int64) + 1
    first = np.cumsum(n) - n  # each row's first running sample index
    counts = np.zeros((2, ys.size), dtype=np.int64)
    row, sid = np.array([-1]), np.zeros((2, 1), dtype=np.int64)
    for a in range(0, n.sum(), BLOCK):
        s = np.arange(a, min(a + BLOCK, n.sum()))
        r = np.searchsorted(first, s, side="right") - 1
        sx = x_b[r] - scene.v_ground * dt * (s - first[r])
        keep = scene.roi.contains(sx, ys[r])
        r = r[keep]
        for c, _, ids, _, _ in _served_slices(scene, sx[keep], ys[r],
                                              _serve_plan(book, 0),
                                              interference=False):
            row = np.append(row[-1], r[c])
            sid = np.hstack([sid[:, -1:], ids])
            del ids  # freed before the next slice's kernel call allocates
            changed = (sid[:, 1:] != sid[:, :-1]) & (row[1:] == row[:-1])
            for total, k in zip(counts, changed):
                total += np.bincount(row[1:][k], minlength=ys.size)
    return np.tile(counts[:, np.searchsorted(ys, py)], (2, 1))


def _dynamic_events(scene: Scene, px: np.ndarray, py: np.ndarray,
                    t_in: np.ndarray, t_out: np.ndarray):
    """The dynamic codebook's association events at the points (px, py), py
    holding |y|, over the windows (t_in, t_out), and at their x-mirrors
    (-px, py) over (-t_out, -t_in): yields (g, ids) per residue class mod K
    of each window, ids the (4, rows, points) IDs of `_serve_plan`'s four
    sides at loop indices g, g + K, ..., of the narrowest type holding
    n_beams, the fill elsewhere.

    Point i associates at its entry under iteration g_in[i], then at each
    tau = g * t_c, g in (g_in[i], g_out[i]], at loop index g; its mirror
    under iteration -g at loop index g, from its last event at x_end[i] to
    its entry at x_in[i]. So each side's events sit on consecutive indices.
    An index's columns are each point either side updates there (the
    half-open window and TIME_TOL make the two sets differ), then each
    side's entries; only a column's owners write its IDs.

    One size sets the work: a window is BLOCK // points whole rounds of K
    indices (at least one), so a class holds at most BLOCK // points
    indices and its (index, group, point) cells number at most 3 x BLOCK.
    Each class of a window is built in one batch and served by one
    `_served_slices` call, g on the point's sides and -g on the mirror's,
    or skipped if it has no columns. So a block of more than BLOCK / 2
    points serves one index per call, and one point one call per class.
    """
    v, t_c, cycle_len = scene.v_ground, scene.lattice.t_c, scene.hex.cycle_len
    g_in, g_out = _iteration(scene, t_in), _iteration(scene, t_out)
    x_in, x_end = -_iteration(scene, -t_out), -_iteration(scene, -t_in)
    lo = min(int(g_in.min()), int(x_end.min()))
    n = max(int(g_out.max()), int(x_in.max())) + 1 - lo  # loop indices
    g_in, g_out, x_in, x_end = ((i - lo).astype(np.min_scalar_type(n))
                                for i in (g_in, g_out, x_in, x_end))
    rounds, fill = max(1, BLOCK // px.size), scene.hex.n_beams

    def columns(os):  # points, positions, owners and iterations of the
        # columns at indices lo + os, over (index, group, point) cells
        o = np.array(os, dtype=g_in.dtype)[:, None]
        upd, x_upd = (g_in < o) & (o <= g_out), (x_end <= o) & (o < x_in)
        f = np.flatnonzero(np.concatenate([upd | x_upd, g_in == o, x_in == o],
                                          axis=1))
        none = np.zeros_like(upd)
        own = [np.concatenate(m, axis=1).ravel()[f]
               for m in ((upd, ~none, none), (x_upd, none, ~none))]
        t = np.empty((len(os), 3, px.size))  # each cell's instant
        t[:, 0] = (lo + np.array(os)[:, None]) * t_c
        t[:, 1], t[:, 2] = t_in, t_out
        p = f - f // px.size * px.size
        g = lo + (os[0] if len(os) == 1 else np.array(os)[f // (3 * px.size)])
        return p, px[p] - v * t.ravel()[f], np.array(own), g

    for a in range(0, n, rounds * cycle_len):  # a window [a, b)
        b = min(a + rounds * cycle_len, n)
        for r in range(a, min(a + cycle_len, b)):
            os = range(r, b, cycle_len)  # the class's offsets in the window
            ids = np.full((4, len(os), px.size), fill,
                          dtype=np.min_scalar_type(fill))
            flat = ids.reshape(4, -1)
            pts, sx, own, g = columns(os)
            for s, _, sid, _, _ in _served_slices(
                    scene, sx, py[pts], _serve_plan(scene.hex, g, -g),
                    interference=False) if pts.size else ():
                # each column's row of its class: (index - r) // K
                at = pts[s] + ((g[s] if np.ndim(g) else g) - lo - r
                               ) // cycle_len * px.size
                for side, k in zip((0, 2), own[:, s]):
                    flat[side, at[k]] = sid[side][k]
                    flat[side + 1, at[k]] = sid[side + 1][k]
                del sid, at  # freed before the next slice's kernel call
            del pts, sx, own, g  # freed before the next class's columns
            yield lo + r, ids


def _dynamic_handover_counts(scene: Scene, px: np.ndarray,
                             py: np.ndarray) -> np.ndarray:
    """Dynamic-codebook handovers at `_serve_plan`'s four sides, shape (4,
    n): each side's ID changes between its `_dynamic_events` at consecutive
    loop indices, counted as each class comes against the previous class
    and, at a window's last class, against the window's first."""
    t_in, t_out = pass_window(scene, (px, py))
    fill, cycle_len = scene.hex.n_beams, scene.hex.cycle_len
    counts = np.zeros((4, px.size), np.min_scalar_type(  # at most one change
        int(np.max(t_out - t_in) / scene.lattice.t_c) + 2))  # per update

    def count(h, old, g, new):  # changes into new's row i from old's i + d
        d, r = divmod(g - 1 - h, cycle_len)
        if r == 0:  # d is -1 (a window's last class to its first), or >= 0
            i, j = max(0, -d), min(new.shape[1], old.shape[1] - d)
            a, b = new[:, i:j], old[:, i + d:j + d]
            counts[:] += ((a != b) & (np.maximum(a, b) < fill)).sum(
                axis=1, dtype=counts.dtype)

    first = prev = None
    for g, ids in _dynamic_events(scene, px, py, t_in, t_out):
        if first is None or g - first[0] >= cycle_len:  # a window's first
            first = g, ids
        if prev:
            count(*prev, g, ids)
        count(g, ids, *first)  # from a window's last class to its first
        prev = g, ids
    return counts


def handover_map(scene: Scene, mode: str = "dynamic",
                 step: float = DEFAULT_HANDOVER_STEP,
                 dt: float = None) -> FieldMap:
    """Serving-ID changes over each ground point's full in-ROI window. dt,
    the sweep's sample spacing (default scene.dt), must be finite and
    positive in every mode."""
    book = codebook_for(scene, mode, PASS_MODES)
    if dt is None:
        dt = scene.dt
    _check_dt(dt)
    if mode == "dynamic":
        return _roi_field(scene.roi, step, "handover_grid_step_m",
                          lambda px, py: _dynamic_handover_counts(scene, px, py))
    return _roi_field(scene.roi, step, "handover_grid_step_m",
                      lambda px, py: _swept_handover_counts(scene, py, book, dt))


def dominance_violations(dynamic_map: FieldMap,
                         static_map: FieldMap) -> np.ndarray:
    """Grid cells where the dynamic codebook hands over MORE than the static.

    The dynamic scheme dominates almost everywhere; exceptions cluster near
    serving-cell boundary curves, whose satellite-frame position shifts
    slightly while a point crosses. Rows are (x_m, y_m, dynamic, static) so
    callers can report rather than silently tolerate them.
    """
    if not (np.array_equal(dynamic_map.xs, static_map.xs)
            and np.array_equal(dynamic_map.ys, static_map.ys)):
        raise ValueError("maps must share the same grid")
    d, s = dynamic_map.values, static_map.values
    iy, ix = np.nonzero(np.isfinite(d) & np.isfinite(s) & (d > s))
    return np.column_stack([dynamic_map.xs[ix], dynamic_map.ys[iy],
                            d[iy, ix], s[iy, ix]])
